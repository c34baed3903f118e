(* Offline generator of the Steiner topology table that lib/steiner
   ships (see [Steiner.Lut]).  Nothing at run time links this library:
   only tools/steiner_table.exe (which writes and checks the committed
   table) and the tests do.

   A class is generated from its key and canonical permutation alone, so
   the table is the same whatever order, process or domain builds it
   in. *)

(* deterministic splitmix64: probe generation must not depend on any
   ambient RNG state so tables are identical across runs and domains *)
let rng_next st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rng_float st =
  Int64.to_float (Int64.shift_right_logical (rng_next st) 11)
  *. (1.0 /. 9007199254740992.0)

(* -- Dreyfus-Wagner Steiner DP on the n x n Hanan grid --

   Grid vertex [i * n + j] sits at (xg.(i), yg.(j)); terminal p is the
   vertex (p, pi.(p)).  Distances are the metric closure of the plane,
   so a single relaxation pass after each merge step suffices.
   [dp.(mask * v + u)] = minimal length of a tree spanning the
   terminals in [mask] plus vertex [u].  Complexity 3^n n^2 + 2^n n^4
   float ops: ~0.1 ms for n = 6, ~2 ms for n = 8 per span vector. *)

type dw = {
  dw_n : int;
  dw_dist : float array;  (* v * v pairwise rectilinear distances *)
  dw_dp : float array;    (* 2^n * v *)
  dw_merge : float array; (* v scratch for the current mask *)
}

let dw_make n =
  let v = n * n in
  { dw_n = n;
    dw_dist = Array.make (v * v) 0.0;
    dw_dp = Array.make ((1 lsl n) * v) infinity;
    dw_merge = Array.make v infinity }

(* best two-way split of [mask] at every vertex; reconstruction
   recomputes these exact float expressions, so minima can be matched
   back with [=] *)
let dw_merge_pass d mask =
  let v = d.dw_n * d.dw_n in
  Array.fill d.dw_merge 0 v infinity;
  let low = mask land (-mask) in
  let sub = ref ((mask - 1) land mask) in
  while !sub <> 0 do
    if !sub land low <> 0 then begin
      let bs = !sub * v and br = (mask lxor !sub) * v in
      for u = 0 to v - 1 do
        let c = d.dw_dp.(bs + u) +. d.dw_dp.(br + u) in
        if c < d.dw_merge.(u) then d.dw_merge.(u) <- c
      done
    end;
    sub := (!sub - 1) land mask
  done

let dw_solve d pi xg yg =
  let n = d.dw_n in
  let v = n * n in
  for a = 0 to v - 1 do
    let xa = xg.(a / n) and ya = yg.(a mod n) in
    for b = 0 to v - 1 do
      d.dw_dist.((a * v) + b) <-
        Float.abs (xa -. xg.(b / n)) +. Float.abs (ya -. yg.(b mod n))
    done
  done;
  let full = (1 lsl n) - 1 in
  Array.fill d.dw_dp 0 ((full + 1) * v) infinity;
  for p = 0 to n - 1 do
    let t = (p * n) + pi.(p) in
    let base = (1 lsl p) * v in
    for u = 0 to v - 1 do
      d.dw_dp.(base + u) <- d.dw_dist.((t * v) + u)
    done
  done;
  for mask = 3 to full do
    if mask land (mask - 1) <> 0 then begin
      dw_merge_pass d mask;
      let bm = mask * v in
      for vtx = 0 to v - 1 do
        let best = ref infinity in
        for u = 0 to v - 1 do
          let c = d.dw_merge.(u) +. d.dw_dist.((u * v) + vtx) in
          if c < !best then best := c
        done;
        d.dw_dp.(bm + vtx) <- !best
      done
    end
  done;
  d.dw_dp.((full * v) + pi.(0))

(* reconstruct one optimal tree as a list of grid-vertex edges *)
let dw_tree d pi =
  let n = d.dw_n in
  let v = n * n in
  let edges = ref [] in
  let rec tree mask vtx =
    if mask land (mask - 1) = 0 then begin
      let p =
        let rec bit i m = if m land 1 = 1 then i else bit (i + 1) (m lsr 1) in
        bit 0 mask
      in
      let t = (p * n) + pi.(p) in
      if t <> vtx then edges := (t, vtx) :: !edges
    end
    else begin
      dw_merge_pass d mask;
      let target = d.dw_dp.((mask * v) + vtx) in
      let u = ref (-1) in
      let k = ref 0 in
      while !u < 0 && !k < v do
        if d.dw_merge.(!k) +. d.dw_dist.((!k * v) + vtx) = target then
          u := !k;
        incr k
      done;
      let u = !u in
      assert (u >= 0);
      if u <> vtx then edges := (u, vtx) :: !edges;
      split mask u d.dw_merge.(u)
    end
  and split mask u target =
    let low = mask land (-mask) in
    let sub = ref ((mask - 1) land mask) in
    let found = ref 0 in
    while !found = 0 && !sub <> 0 do
      if !sub land low <> 0
         && d.dw_dp.((!sub * v) + u)
            +. d.dw_dp.(((mask lxor !sub) * v) + u)
            = target
      then found := !sub
      else sub := (!sub - 1) land mask
    done;
    assert (!found <> 0);
    tree !found u;
    tree (mask lxor !found) u
  in
  tree ((1 lsl n) - 1) pi.(0);
  !edges

(* -- stored topology entries --

   Node ids 0 .. n-1 are the canonical pins (pin a at Hanan ranks
   (a, pi.(a))); ids n .. n+s-1 are Steiner points at ranks
   (e_sx.(k), e_sy.(k)).  Edges are abstract rectilinear
   connections. *)
type entry = {
  e_s : int;
  e_sx : int array;
  e_sy : int array;
  e_ea : int array;
  e_eb : int array;
}

let entry_of_edges n pi edges =
  let v = n * n in
  let is_term = Array.make v false in
  for p = 0 to n - 1 do is_term.((p * n) + pi.(p)) <- true done;
  let adj = Array.make v [] in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    edges;
  (* prune non-terminal leaves and splice non-terminal degree-2
     vertices; with distinct grid coordinates both operations preserve
     the (optimal) tree length *)
  let changed = ref true in
  while !changed do
    changed := false;
    for u = 0 to v - 1 do
      if not is_term.(u) then
        match adj.(u) with
        | [] -> ()
        | [ a ] ->
          adj.(u) <- [];
          adj.(a) <- List.filter (fun w -> w <> u) adj.(a);
          changed := true
        | [ a; b ] when a <> b ->
          adj.(u) <- [];
          adj.(a) <- b :: List.filter (fun w -> w <> u) adj.(a);
          adj.(b) <- a :: List.filter (fun w -> w <> u) adj.(b);
          changed := true
        | [ a; _ ] ->
          adj.(u) <- [];
          adj.(a) <- List.filter (fun w -> w <> u) adj.(a);
          changed := true
        | _ -> ()
    done
  done;
  let sid = Array.make v (-1) in
  let steiners = ref [] in
  let s = ref 0 in
  for u = 0 to v - 1 do
    if (not is_term.(u)) && adj.(u) <> [] then begin
      sid.(u) <- n + !s;
      steiners := u :: !steiners;
      incr s
    end
  done;
  let term_id = Array.make v (-1) in
  for p = 0 to n - 1 do term_id.((p * n) + pi.(p)) <- p done;
  let id_of u = if is_term.(u) then term_id.(u) else sid.(u) in
  let edge_list = ref [] in
  for u = 0 to v - 1 do
    List.iter
      (fun w ->
        if u < w then begin
          let a = id_of u and b = id_of w in
          edge_list := ((min a b, max a b) :: !edge_list)
        end)
      adj.(u)
  done;
  let es = List.sort_uniq compare !edge_list in
  let sarr = Array.of_list (List.rev !steiners) in
  { e_s = !s;
    e_sx = Array.map (fun u -> u / n) sarr;
    e_sy = Array.map (fun u -> u mod n) sarr;
    e_ea = Array.of_list (List.map fst es);
    e_eb = Array.of_list (List.map snd es) }

let entry_key e =
  let b = Buffer.create 64 in
  let p x =
    Buffer.add_char b ',';
    Buffer.add_string b (string_of_int x)
  in
  Buffer.add_string b (string_of_int e.e_s);
  Array.iter p e.e_sx;
  Array.iter p e.e_sy;
  Array.iter p e.e_ea;
  Array.iter p e.e_eb;
  Buffer.contents b

(* length of a stored topology for canonical axis values [cx]/[cy]
   (cx.(a) = coordinate of canonical x-rank a, likewise cy) *)
let entry_length e n pi cx cy =
  let m = Array.length e.e_ea in
  let len = ref 0.0 in
  for k = 0 to m - 1 do
    let a = e.e_ea.(k) and b = e.e_eb.(k) in
    let xa = if a < n then cx.(a) else cx.(e.e_sx.(a - n))
    and ya = if a < n then cy.(pi.(a)) else cy.(e.e_sy.(a - n)) in
    let xb = if b < n then cx.(b) else cx.(e.e_sx.(b - n))
    and yb = if b < n then cy.(pi.(b)) else cy.(e.e_sy.(b - n)) in
    len := !len +. Float.abs (xa -. xb) +. Float.abs (ya -. yb)
  done;
  !len

(* -- class generation --

   The optimal-length function is a min of linear functionals of the
   rank spans, so a topology optimal somewhere in the open span cone
   stays optimal on the closure (ties included).  We seed with a fixed
   probe family (uniform spans; one stretched / shrunk span at a
   time), then draw random log-uniform span vectors, solving each
   exactly and patching the table whenever the stored candidates fall
   short, until [clean_target] consecutive draws need no patch. *)

let probe_spans n =
  let m = (2 * n) - 2 in
  let probes = ref [ Array.make m 1.0 ] in
  for k = 0 to m - 1 do
    let p = Array.make m 1.0 in
    p.(k) <- 8.0;
    probes := p :: !probes;
    let q = Array.make m 1.0 in
    q.(k) <- 0.125;
    probes := q :: !probes
  done;
  List.rev !probes

let coords_of_spans n spans xg yg =
  xg.(0) <- 0.0;
  yg.(0) <- 0.0;
  for i = 1 to n - 1 do
    xg.(i) <- xg.(i - 1) +. spans.(i - 1);
    yg.(i) <- yg.(i - 1) +. spans.(n - 2 + i)
  done

(* ---- complete candidate generation: Pareto Dreyfus-Wagner ----

   A topology's length is a linear function of the rank spans:
   sum_k a_k xspan_k + sum_k b_k yspan_k, where a_k counts the edges
   whose x-interval crosses gap k (FLUTE's "potentially optimal
   wirelength vector").  Running the DW recursion over Pareto-minimal
   sets of these integer vectors instead of scalar lengths yields
   every vector that can be uniquely optimal for some span assignment
   — a provably complete candidate set, independent of sampling.
   Coefficients are bounded by the edge count (<= 2n - 1 <= 15), so a
   vector packs one byte per gap into a single int per axis: addition
   is machine addition and componentwise dominance is a SWAR guard-bit
   test.  Used for degrees <= [pareto_limit]; the set sizes (and DP
   cost) grow too fast beyond that. *)

let pareto_limit = 7

let gen_pareto n pic =
  let v = n * n in
  let h =
    let g = ref 0 in
    for _ = 1 to n - 1 do g := (!g lsl 8) lor 0x80 done;
    !g
  in
  (* seg.(i1 * n + i2), i1 <= i2: one count in each byte i1 .. i2-1 *)
  let seg = Array.make (n * n) 0 in
  for i1 = 0 to n - 1 do
    for i2 = i1 to n - 1 do
      let s = ref 0 in
      for k = i1 to i2 - 1 do s := !s + (1 lsl (8 * k)) done;
      seg.((i1 * n) + i2) <- !s
    done
  done;
  let segij a b = if a <= b then seg.((a * n) + b) else seg.((b * n) + a) in
  let dvx a b = segij (a / n) (b / n)
  and dvy a b = segij (a mod n) (b mod n) in
  (* a <= b in every byte: adding the guard bit to b_i - a_i leaves it
     set iff b_i >= a_i, and fields <= 15 never carry across bytes *)
  let dominates ax ay bx by =
    (bx + h - ax) land h = h && (by + h - ay) land h = h
  in
  let insert cell vx vy =
    if
      not (List.exists (fun (ax, ay) -> dominates ax ay vx vy) !cell)
    then
      cell :=
        (vx, vy)
        :: List.filter (fun (ax, ay) -> not (dominates vx vy ax ay)) !cell
  in
  let full = (1 lsl n) - 1 in
  let dp = Array.make ((full + 1) * v) [] in
  for p = 0 to n - 1 do
    let t = (p * n) + pic.(p) in
    let base = (1 lsl p) * v in
    for u = 0 to v - 1 do dp.(base + u) <- [ (dvx t u, dvy t u) ] done
  done;
  let merge = Array.make v [] in
  let merge_pass mask =
    Array.fill merge 0 v [];
    let low = mask land (-mask) in
    let sub = ref ((mask - 1) land mask) in
    while !sub <> 0 do
      if !sub land low <> 0 then begin
        let bs = !sub * v and br = (mask lxor !sub) * v in
        for u = 0 to v - 1 do
          let cell = ref merge.(u) in
          List.iter
            (fun (ax, ay) ->
              List.iter
                (fun (bx, by) -> insert cell (ax + bx) (ay + by))
                dp.(br + u))
            dp.(bs + u);
          merge.(u) <- !cell
        done
      end;
      sub := (!sub - 1) land mask
    done
  in
  for mask = 3 to full do
    if mask land (mask - 1) <> 0 then begin
      merge_pass mask;
      let bm = mask * v in
      for vtx = 0 to v - 1 do
        let cell = ref [] in
        for u = 0 to v - 1 do
          let dx = dvx u vtx and dy = dvy u vtx in
          List.iter (fun (mx, my) -> insert cell (mx + dx) (my + dy))
            merge.(u)
        done;
        dp.(bm + vtx) <- !cell
      done
    end
  done;
  let root = pic.(0) in
  (* reconstruct one topology per final Pareto vector, matching the
     integer vector sums back through the recursion *)
  let reconstruct fvx fvy =
    let edges = ref [] in
    let rec tree mask vtx vx vy =
      if mask land (mask - 1) = 0 then begin
        let p =
          let rec bit i m =
            if m land 1 = 1 then i else bit (i + 1) (m lsr 1)
          in
          bit 0 mask
        in
        let t = (p * n) + pic.(p) in
        if t <> vtx then edges := (t, vtx) :: !edges
      end
      else begin
        merge_pass mask;
        let ru = ref (-1) and rmx = ref 0 and rmy = ref 0 in
        let u = ref 0 in
        while !ru < 0 && !u < v do
          let dx = dvx !u vtx and dy = dvy !u vtx in
          if
            dominates dx dy vx vy
            && List.mem (vx - dx, vy - dy) merge.(!u)
          then begin
            ru := !u;
            rmx := vx - dx;
            rmy := vy - dy
          end
          else incr u
        done;
        assert (!ru >= 0);
        if !ru <> vtx then edges := (!ru, vtx) :: !edges;
        split mask !ru !rmx !rmy
      end
    and split mask u mx my =
      let low = mask land (-mask) in
      let sub = ref ((mask - 1) land mask) in
      let fs = ref 0 and fax = ref 0 and fay = ref 0 in
      while !fs = 0 && !sub <> 0 do
        (if !sub land low <> 0 then
           let rest = mask lxor !sub in
           match
             List.find_opt
               (fun (ax, ay) ->
                 dominates ax ay mx my
                 && List.mem (mx - ax, my - ay) dp.((rest * v) + u))
               dp.((!sub * v) + u)
           with
           | Some (ax, ay) ->
             fs := !sub;
             fax := ax;
             fay := ay
           | None -> ());
        if !fs = 0 then sub := (!sub - 1) land mask
      done;
      assert (!fs <> 0);
      tree !fs u !fax !fay;
      tree (mask lxor !fs) u (mx - !fax) (my - !fay)
    in
    tree full root fvx fvy;
    !edges
  in
  let seen = Hashtbl.create 16 in
  let entries = ref [] in
  List.iter
    (fun (fvx, fvy) ->
      let e = entry_of_edges n pic (reconstruct fvx fvy) in
      let k = entry_key e in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        entries := e :: !entries
      end)
    (List.rev dp.((full * v) + root));
  Array.of_list (List.rev !entries)

(* ---- sampled generation for degrees above [pareto_limit] ----

   Seeded probe family plus randomized verification draws against the
   scalar DW oracle; deterministic, and near-exhaustive in practice,
   but without the completeness proof of the Pareto path (documented
   in DESIGN.md §11). *)

let gen_sampled n key pic =
  let d = dw_make n in
  let xg = Array.make n 0.0 and yg = Array.make n 0.0 in
  let seen = Hashtbl.create 16 in
  let entries = ref [] in
  let solve_and_add () =
    let e = entry_of_edges n pic (dw_tree d pic) in
    let k = entry_key e in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      entries := e :: !entries
    end
  in
  List.iter
    (fun spans ->
      coords_of_spans n spans xg yg;
      ignore (dw_solve d pic xg yg);
      solve_and_add ())
    (probe_spans n);
  let st =
    ref
      (Int64.add
         (Int64.mul 0x100000001B3L (Int64.of_int n))
         (Int64.of_int key))
  in
  let clean_target = if n <= 6 then 24 else 48 in
  let max_draws = if n <= 6 then 600 else 1600 in
  let clean = ref 0 and draws = ref 0 in
  let spans = Array.make ((2 * n) - 2) 1.0 in
  let vals = Array.make n 0.0 in
  (* spans from n sorted uniform draws: matches the span statistics of
     uniformly placed pins, including near-coincident clusters *)
  let uniform_axis_spans off =
    for i = 0 to n - 1 do vals.(i) <- rng_float st done;
    Array.sort Float.compare vals;
    for i = 0 to n - 2 do
      spans.(off + i) <- vals.(i + 1) -. vals.(i)
    done
  in
  while !clean < clean_target && !draws < max_draws do
    incr draws;
    (match !draws mod 3 with
     | 0 ->
       (* log-uniform spans in [2^-3, 2^3] *)
       for k = 0 to (2 * n) - 3 do
         spans.(k) <-
           Float.exp ((rng_float st -. 0.5) *. (6.0 *. Float.log 2.0))
       done
     | 1 ->
       uniform_axis_spans 0;
       uniform_axis_spans (n - 1)
     | _ ->
       (* wide log-uniform in [2^-6, 2^6]: extreme aspect ratios *)
       for k = 0 to (2 * n) - 3 do
         spans.(k) <-
           Float.exp ((rng_float st -. 0.5) *. (12.0 *. Float.log 2.0))
       done);
    coords_of_spans n spans xg yg;
    let opt = dw_solve d pic xg yg in
    let best =
      List.fold_left
        (fun acc e -> Float.min acc (entry_length e n pic xg yg))
        infinity !entries
    in
    if best > opt +. 1e-9 +. (1e-12 *. opt) then begin
      solve_and_add ();
      clean := 0
    end
    else incr clean
  done;
  Array.of_list (List.rev !entries)

let generate n key pic =
  if n <= pareto_limit then gen_pareto n pic else gen_sampled n key pic

(* ---- exact RSMT length oracle ---- *)

(* Dreyfus-Wagner on the net's own Hanan grid (no symmetry reduction,
   no table): exponential in degree, for tests *)
let optimal_length ~xs ~ys =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let ranks coords =
      let p = Array.init n Fun.id in
      Array.stable_sort (fun a b -> Float.compare coords.(a) coords.(b)) p;
      p
    in
    let perm = ranks xs and yperm = ranks ys in
    let yrank = Array.make n 0 in
    for j = 0 to n - 1 do yrank.(yperm.(j)) <- j done;
    let pi = Array.map (fun p -> yrank.(p)) perm in
    let sx = Array.map (fun p -> xs.(p)) perm in
    let sy = Array.map (fun p -> ys.(p)) yperm in
    dw_solve (dw_make n) pi sx sy
  end

(* ---- encoding into the table ([Steiner.Lut.Table]) ---- *)

let encode_class n entries =
  let b = Buffer.create 256 in
  Array.iter
    (fun e ->
      if Array.length e.e_ea <> n + e.e_s - 1 then
        failwith
          (Printf.sprintf
             "Steiner_gen: degree %d entry with %d Steiner points has %d edges"
             n e.e_s (Array.length e.e_ea));
      Steiner.Lut.Table.encode_entry b ~sx:e.e_sx ~sy:e.e_sy ~ea:e.e_ea
        ~eb:e.e_eb)
    entries;
  Buffer.contents b

let classes n =
  let seen = Hashtbl.create 1024 in
  let pi = Array.init n Fun.id in
  let swap i j =
    let t = pi.(i) in
    pi.(i) <- pi.(j);
    pi.(j) <- t
  in
  let rec permute k =
    if k = n then begin
      let key, pic = Steiner.Lut.canonical pi in
      if not (Hashtbl.mem seen key) then Hashtbl.add seen key pic
    end
    else
      for i = k to n - 1 do
        swap k i;
        permute (k + 1);
        swap k i
      done
  in
  if n >= 2 then permute 0;
  let l = Hashtbl.fold (fun key pic acc -> (key, pic) :: acc) seen [] in
  Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare a b) l)

let class_bytes n (key, pic) = encode_class n (generate n key pic)

let generate_degree ?(pool = Parallel.sequential_pool) n =
  let cls = classes n in
  let out = Array.make (Array.length cls) "" in
  (* classes are independent and heavy (~0.4 s each at degree 8): one
     class per chunk *)
  Parallel.parallel_for pool ~grain:1 (Array.length cls) (fun i ->
    out.(i) <- class_bytes n cls.(i));
  Array.mapi (fun i (key, _) -> (key, out.(i))) cls

let check ~regenerate_upto table =
  let module T = Steiner.Lut.Table in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  for d = 0 to Steiner.Lut.max_degree do
    let cls = classes d in
    if T.class_count table d <> Array.length cls then
      problem "degree %d: %d classes in the table, %d expected" d
        (T.class_count table d) (Array.length cls);
    Array.iter
      (fun ((key, _) as c) ->
        match T.class_bytes table d key with
        | None -> problem "degree %d: class %d missing" d key
        | Some bytes ->
          if d <= regenerate_upto && class_bytes d c <> bytes then
            problem "degree %d: class %d differs from its regeneration" d key)
      cls
  done;
  List.rev !problems
