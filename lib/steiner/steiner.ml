type t = {
  pin_count : int;
  xs : float array;
  ys : float array;
  parent : int array;
  x_source : int array;
  y_source : int array;
  order : int array;
}

let node_count t = Array.length t.xs
let is_steiner t v = v >= t.pin_count

let edge_length t v =
  let p = t.parent.(v) in
  if p < 0 then 0.0
  else
    Float.abs (t.xs.(v) -. t.xs.(p)) +. Float.abs (t.ys.(v) -. t.ys.(p))

let total_length t =
  let acc = ref 0.0 in
  for v = 0 to node_count t - 1 do
    acc := !acc +. edge_length t v
  done;
  !acc

let hpwl ~xs ~ys =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let bbox = ref Geometry.Bbox.empty in
    for i = 0 to n - 1 do
      bbox := Geometry.Bbox.add_xy !bbox xs.(i) ys.(i)
    done;
    Geometry.Bbox.half_perimeter !bbox
  end

(* ---- working graph used during construction ---- *)

type graph = {
  mutable n : int;  (* current node count *)
  gx : float array;
  gy : float array;
  gxs : int array;  (* provenance *)
  gys : int array;
  adj : int list array;
}

let dist g a b =
  Float.abs (g.gx.(a) -. g.gx.(b)) +. Float.abs (g.gy.(a) -. g.gy.(b))

let make_graph capacity pins_x pins_y =
  let npins = Array.length pins_x in
  let g =
    { n = npins;
      gx = Array.make capacity 0.0;
      gy = Array.make capacity 0.0;
      gxs = Array.make capacity 0;
      gys = Array.make capacity 0;
      adj = Array.make capacity [] }
  in
  for i = 0 to npins - 1 do
    g.gx.(i) <- pins_x.(i);
    g.gy.(i) <- pins_y.(i);
    g.gxs.(i) <- i;
    g.gys.(i) <- i
  done;
  g

let add_edge g a b =
  g.adj.(a) <- b :: g.adj.(a);
  g.adj.(b) <- a :: g.adj.(b)

let remove_edge g a b =
  g.adj.(a) <- List.filter (fun v -> v <> b) g.adj.(a);
  g.adj.(b) <- List.filter (fun v -> v <> a) g.adj.(b)

let add_node g x y xs ys =
  let id = g.n in
  g.n <- id + 1;
  g.gx.(id) <- x;
  g.gy.(id) <- y;
  g.gxs.(id) <- xs;
  g.gys.(id) <- ys;
  id

(* Median of three values with provenance: returns (value, source). *)
let median3 (v0, s0) (v1, s1) (v2, s2) =
  let arr = [| (v0, s0); (v1, s1); (v2, s2) |] in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) arr;
  arr.(1)

(* ---- Prim MST over the first [k] nodes of a coordinate set ---- *)

let prim_edges xs ys k =
  (* Returns the MST edge list over nodes 0..k-1 and its total length. *)
  if k <= 1 then ([], 0.0)
  else begin
    let in_tree = Array.make k false in
    let best_d = Array.make k infinity in
    let best_to = Array.make k 0 in
    let edges = ref [] in
    let total = ref 0.0 in
    in_tree.(0) <- true;
    for j = 1 to k - 1 do
      best_d.(j) <- Float.abs (xs.(j) -. xs.(0)) +. Float.abs (ys.(j) -. ys.(0));
      best_to.(j) <- 0
    done;
    for _ = 1 to k - 1 do
      let pick = ref (-1) and pick_d = ref infinity in
      for j = 0 to k - 1 do
        if (not in_tree.(j)) && best_d.(j) < !pick_d then begin
          pick := j;
          pick_d := best_d.(j)
        end
      done;
      let u = !pick in
      in_tree.(u) <- true;
      edges := (best_to.(u), u) :: !edges;
      total := !total +. !pick_d;
      for j = 0 to k - 1 do
        if not in_tree.(j) then begin
          let d = Float.abs (xs.(j) -. xs.(u)) +. Float.abs (ys.(j) -. ys.(u)) in
          if d < best_d.(j) then begin
            best_d.(j) <- d;
            best_to.(j) <- u
          end
        end
      done
    done;
    (!edges, !total)
  end

let mst_length ~xs ~ys =
  let _, len = prim_edges xs ys (Array.length xs) in
  len

(* ---- greedy Steinerisation of a tree graph ----

   For a node [u] with neighbours [a] and [b], inserting the median point
   [s] of (u, a, b) and rewiring (u-a, u-b) to (u-s, a-s, b-s) never
   lengthens the tree and usually shortens it.  We apply the best move
   per sweep until no move improves, bounded by the theoretical n-2
   Steiner-point maximum (capacity of the graph). *)

let steinerize g =
  let improved = ref true in
  while !improved && g.n < Array.length g.gx do
    improved := false;
    let best_gain = ref 1e-9 in
    let best = ref None in
    for u = 0 to g.n - 1 do
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
          List.iter
            (fun b ->
              let mx, mxs =
                median3
                  (g.gx.(u), g.gxs.(u)) (g.gx.(a), g.gxs.(a))
                  (g.gx.(b), g.gxs.(b))
              and my, mys =
                median3
                  (g.gy.(u), g.gys.(u)) (g.gy.(a), g.gys.(a))
                  (g.gy.(b), g.gys.(b))
              in
              let cost_now = dist g u a +. dist g u b in
              let d n2 =
                Float.abs (g.gx.(n2) -. mx) +. Float.abs (g.gy.(n2) -. my)
              in
              let cost_new = d u +. d a +. d b in
              let gain = cost_now -. cost_new in
              if gain > !best_gain then begin
                best_gain := gain;
                best := Some (u, a, b, mx, my, mxs, mys)
              end)
            rest;
          pairs rest
      in
      pairs g.adj.(u)
    done;
    match !best with
    | None -> ()
    | Some (u, a, b, mx, my, mxs, mys) ->
      let s = add_node g mx my mxs mys in
      remove_edge g u a;
      remove_edge g u b;
      add_edge g u s;
      add_edge g a s;
      add_edge g b s;
      improved := true
  done

(* ---- exact RSMT for small nets by Hanan enumeration ----

   An optimal RSMT uses at most n-2 Steiner points, all on the Hanan
   grid.  For each subset of candidate grid points up to that size we
   compute the MST over pins + subset; the minimum over subsets realises
   the optimal length. *)

let exact_rsmt pins_x pins_y =
  let n = Array.length pins_x in
  let candidates = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let x = pins_x.(i) and y = pins_y.(j) in
      let coincides = ref false in
      for p = 0 to n - 1 do
        if pins_x.(p) = x && pins_y.(p) = y then coincides := true
      done;
      if not !coincides
         && not
              (List.exists
                 (fun (cx, cy, _, _) -> cx = x && cy = y)
                 !candidates)
      then candidates := (x, y, i, j) :: !candidates
    done
  done;
  let candidates = Array.of_list !candidates in
  let ncand = Array.length candidates in
  let max_extra = max 0 (n - 2) in
  let best_len = ref infinity in
  let best_subset = ref [] in
  let rec enumerate start chosen size =
    (* evaluate current subset *)
    let k = n + size in
    let xs = Array.make k 0.0 and ys = Array.make k 0.0 in
    Array.blit pins_x 0 xs 0 n;
    Array.blit pins_y 0 ys 0 n;
    List.iteri
      (fun idx c ->
        let cx, cy, _, _ = candidates.(c) in
        xs.(n + idx) <- cx;
        ys.(n + idx) <- cy)
      chosen;
    let _, len = prim_edges xs ys k in
    if len < !best_len -. 1e-12 then begin
      best_len := len;
      best_subset := chosen
    end;
    if size < max_extra then
      for c = start to ncand - 1 do
        enumerate (c + 1) (c :: chosen) (size + 1)
      done
  in
  enumerate 0 [] 0;
  (* rebuild the winning tree *)
  let chosen = !best_subset in
  let size = List.length chosen in
  let g = make_graph (n + size) pins_x pins_y in
  List.iter
    (fun c ->
      let cx, cy, si, sj = candidates.(c) in
      ignore (add_node g cx cy si sj))
    chosen;
  let xs = Array.sub g.gx 0 g.n and ys = Array.sub g.gy 0 g.n in
  let edges, _ = prim_edges xs ys g.n in
  List.iter (fun (a, b) -> add_edge g a b) edges;
  g

(* ---- finalisation: prune useless Steiner points, root at node 0 ---- *)

let finalize g npins =
  (* iteratively drop Steiner leaves (they only add length) *)
  let removed = Array.make g.n false in
  let changed = ref true in
  while !changed do
    changed := false;
    for v = npins to g.n - 1 do
      if (not removed.(v)) && List.length g.adj.(v) <= 1 then begin
        removed.(v) <- true;
        (match g.adj.(v) with
         | [] -> ()
         | [ u ] -> remove_edge g u v
         | _ :: _ :: _ -> assert false);
        changed := true
      end
    done
  done;
  (* compact ids: pins keep theirs, surviving Steiner points follow *)
  let remap = Array.make g.n (-1) in
  let count = ref npins in
  for v = 0 to g.n - 1 do
    if v < npins then remap.(v) <- v
    else if not removed.(v) then begin
      remap.(v) <- !count;
      incr count
    end
  done;
  let total = !count in
  let xs = Array.make total 0.0 and ys = Array.make total 0.0 in
  let x_source = Array.make total 0 and y_source = Array.make total 0 in
  let adj = Array.make total [] in
  for v = 0 to g.n - 1 do
    let nv = remap.(v) in
    if nv >= 0 then begin
      xs.(nv) <- g.gx.(v);
      ys.(nv) <- g.gy.(v);
      x_source.(nv) <- g.gxs.(v);
      y_source.(nv) <- g.gys.(v);
      adj.(nv) <- List.filter_map
          (fun u -> if remap.(u) >= 0 then Some remap.(u) else None)
          g.adj.(v)
    end
  done;
  (* BFS from the driver to orient edges *)
  let parent = Array.make total (-1) in
  let order = Array.make total 0 in
  let visited = Array.make total false in
  let queue = Queue.create () in
  Queue.push 0 queue;
  visited.(0) <- true;
  let pos = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!pos) <- v;
    incr pos;
    List.iter
      (fun u ->
        if not visited.(u) then begin
          visited.(u) <- true;
          parent.(u) <- v;
          Queue.push u queue
        end)
      adj.(v)
  done;
  if !pos <> total then
    invalid_arg "Steiner: internal error, tree is disconnected";
  { pin_count = npins; xs; ys; parent; x_source; y_source; order }

let build_median3 pins_x pins_y =
  let g = make_graph 4 pins_x pins_y in
  let mx, mxs =
    median3 (pins_x.(0), 0) (pins_x.(1), 1) (pins_x.(2), 2)
  and my, mys =
    median3 (pins_y.(0), 0) (pins_y.(1), 1) (pins_y.(2), 2)
  in
  let coincident = ref (-1) in
  for p = 0 to 2 do
    if pins_x.(p) = mx && pins_y.(p) = my then coincident := p
  done;
  if !coincident >= 0 then begin
    let c = !coincident in
    for p = 0 to 2 do
      if p <> c then add_edge g c p
    done
  end
  else begin
    let s = add_node g mx my mxs mys in
    for p = 0 to 2 do
      add_edge g s p
    done
  end;
  g

(* ---- direct constructors for trivial degrees ----

   Degrees 1-3 account for the bulk of real netlists; building them
   without the scratch graph / BFS machinery keeps the per-net rebuild
   cost at a handful of allocations. *)

let build_single xs ys =
  { pin_count = 1; xs = [| xs.(0) |]; ys = [| ys.(0) |];
    parent = [| -1 |]; x_source = [| 0 |]; y_source = [| 0 |];
    order = [| 0 |] }

let build_two xs ys =
  { pin_count = 2; xs = [| xs.(0); xs.(1) |]; ys = [| ys.(0); ys.(1) |];
    parent = [| -1; 0 |]; x_source = [| 0; 1 |]; y_source = [| 0; 1 |];
    order = [| 0; 1 |] }

let build_three xs ys =
  let mx, mxs = median3 (xs.(0), 0) (xs.(1), 1) (xs.(2), 2)
  and my, mys = median3 (ys.(0), 0) (ys.(1), 1) (ys.(2), 2) in
  let coincident = ref (-1) in
  for p = 0 to 2 do
    if xs.(p) = mx && ys.(p) = my then coincident := p
  done;
  let pxs = [| xs.(0); xs.(1); xs.(2) |]
  and pys = [| ys.(0); ys.(1); ys.(2) |] in
  match !coincident with
  | 0 ->
    { pin_count = 3; xs = pxs; ys = pys; parent = [| -1; 0; 0 |];
      x_source = [| 0; 1; 2 |]; y_source = [| 0; 1; 2 |];
      order = [| 0; 1; 2 |] }
  | 1 ->
    { pin_count = 3; xs = pxs; ys = pys; parent = [| -1; 0; 1 |];
      x_source = [| 0; 1; 2 |]; y_source = [| 0; 1; 2 |];
      order = [| 0; 1; 2 |] }
  | 2 ->
    { pin_count = 3; xs = pxs; ys = pys; parent = [| -1; 2; 0 |];
      x_source = [| 0; 1; 2 |]; y_source = [| 0; 1; 2 |];
      order = [| 0; 2; 1 |] }
  | _ ->
    { pin_count = 3;
      xs = [| xs.(0); xs.(1); xs.(2); mx |];
      ys = [| ys.(0); ys.(1); ys.(2); my |];
      parent = [| -1; 3; 3; 0 |];
      x_source = [| 0; 1; 2; mxs |]; y_source = [| 0; 1; 2; mys |];
      order = [| 0; 3; 1; 2 |] }

let heuristic_tree xs ys n =
  let g = make_graph ((2 * n) - 2) xs ys in
  let edges, _ = prim_edges xs ys n in
  List.iter (fun (a, b) -> add_edge g a b) edges;
  steinerize g;
  finalize g n

(* ====================================================================
   FLUTE-style topology lookup tables (paper §3.4.1, §3.6).

   The optimal RSMT topology of an n-pin net depends only on the
   relative order of the pin coordinates, not on their values: sort the
   pins by x and record the permutation [pi] mapping each x-rank to its
   y-rank.  Nets sharing [pi] (up to the 8 dihedral symmetries of the
   plane) share a small set of candidate topologies; for given
   coordinate spans the shortest candidate is the exact optimum.  We
   build the candidate set per class on first use with a Dreyfus-Wagner
   Steiner DP on the Hanan grid (exact), probing a family of span
   vectors and patching with randomized verification draws until the
   stored set covers every draw.  Runtime [build] for a net of degree
   <= [max_degree] is then: canonicalize the permutation, evaluate the
   stored candidates on the actual spans, materialize the winner with
   x/y-source provenance intact.
   ==================================================================== *)

module Lut = struct
  let max_degree = 8

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

  (* -- canonicalization --

     perm.(i)  = pin at x-rank i (ties broken by pin id)
     yperm.(j) = pin at y-rank j
     pi.(i)    = y-rank of the pin at x-rank i
     The class key minimizes the base-n encoding of [pi] over the 8
     dihedral transforms (flip x, flip y, transpose). *)

  let sort_ranks n coords perm =
    for i = 0 to n - 1 do perm.(i) <- i done;
    (* insertion sort: n <= 8, stable by construction *)
    for i = 1 to n - 1 do
      let p = perm.(i) in
      let c = coords.(p) in
      let j = ref (i - 1) in
      while !j >= 0 && coords.(perm.(!j)) > c do
        perm.(!j + 1) <- perm.(!j);
        decr j
      done;
      perm.(!j + 1) <- p
    done

  let canonicalize n xs ys =
    let perm = Array.make n 0 and yperm = Array.make n 0 in
    sort_ranks n xs perm;
    sort_ranks n ys yperm;
    let yrank = Array.make n 0 in
    for j = 0 to n - 1 do yrank.(yperm.(j)) <- j done;
    let pi = Array.make n 0 in
    for i = 0 to n - 1 do pi.(i) <- yrank.(perm.(i)) done;
    let pit = Array.make n 0 in
    let pic = Array.make n 0 in
    let best_key = ref max_int and best_t = ref 0 in
    for tr = 0 to 7 do
      let fx = tr land 1 <> 0 and fy = tr land 2 <> 0 and tp = tr land 4 <> 0 in
      for i = 0 to n - 1 do
        let j = pi.(i) in
        let fi = if fx then n - 1 - i else i in
        let fj = if fy then n - 1 - j else j in
        if tp then pit.(fj) <- fi else pit.(fi) <- fj
      done;
      let key = ref 0 in
      for a = n - 1 downto 0 do key := (!key * n) + pit.(a) done;
      if !key < !best_key then begin
        best_key := !key;
        best_t := tr;
        Array.blit pit 0 pic 0 n
      end
    done;
    (perm, yperm, pi, !best_key, !best_t, pic)

  (* -- tables: one per degree, process-wide --

     [try_build] only reads.  Generation mutates the tables and must
     run from sequential code (Sta.Nets patches missing classes after
     its parallel phase); [gen_lock] additionally serializes generators
     so a class is published only once, fully built. *)

  let tables : (int, entry array) Hashtbl.t array =
    Array.init (max_degree + 1) (fun _ -> Hashtbl.create 64)

  let gen_lock = Mutex.create ()

  let class_count n =
    if n >= 0 && n <= max_degree then Hashtbl.length tables.(n) else 0

  let ensure_class n key pic =
    match Hashtbl.find_opt tables.(n) key with
    | Some es -> es
    | None ->
      Mutex.lock gen_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock gen_lock)
        (fun () ->
          match Hashtbl.find_opt tables.(n) key with
          | Some es -> es
          | None ->
            let es = generate n key pic in
            Hashtbl.replace tables.(n) key es;
            es)

  (* -- materialization: canonical entry -> rooted tree in pin space -- *)
  let materialize n entries perm yperm tr pic xs ys =
    let sx = Array.make n 0.0 and sy = Array.make n 0.0 in
    for i = 0 to n - 1 do
      sx.(i) <- xs.(perm.(i));
      sy.(i) <- ys.(yperm.(i))
    done;
    let fx = tr land 1 <> 0 and fy = tr land 2 <> 0 and tp = tr land 4 <> 0 in
    (* canonical axis values: the canonical x-axis maps to our y-axis
       under transpose; flips reverse rank order (harmless for the
       absolute differences in entry_length) *)
    let cx = Array.make n 0.0 and cy = Array.make n 0.0 in
    for a = 0 to n - 1 do
      if tp then begin
        cx.(a) <- sy.(if fy then n - 1 - a else a);
        cy.(a) <- sx.(if fx then n - 1 - a else a)
      end
      else begin
        cx.(a) <- sx.(if fx then n - 1 - a else a);
        cy.(a) <- sy.(if fy then n - 1 - a else a)
      end
    done;
    let best = ref entries.(0) in
    let best_len = ref (entry_length entries.(0) n pic cx cy) in
    for k = 1 to Array.length entries - 1 do
      let l = entry_length entries.(k) n pic cx cy in
      if l < !best_len then begin
        best_len := l;
        best := entries.(k)
      end
    done;
    let e = !best in
    (* inverse transform: canonical ranks (a, b) -> our ranks (i, j) *)
    let inv_i a b =
      if tp then (if fx then n - 1 - b else b)
      else if fx then n - 1 - a
      else a
    and inv_j a b =
      if tp then (if fy then n - 1 - a else a)
      else if fy then n - 1 - b
      else b
    in
    let s = e.e_s in
    let total = n + s in
    let txs = Array.make total 0.0 and tys = Array.make total 0.0 in
    let xsrc = Array.make total 0 and ysrc = Array.make total 0 in
    for p = 0 to n - 1 do
      txs.(p) <- xs.(p);
      tys.(p) <- ys.(p);
      xsrc.(p) <- p;
      ysrc.(p) <- p
    done;
    for k = 0 to s - 1 do
      let a = e.e_sx.(k) and b = e.e_sy.(k) in
      let i = inv_i a b and j = inv_j a b in
      txs.(n + k) <- sx.(i);
      tys.(n + k) <- sy.(j);
      xsrc.(n + k) <- perm.(i);
      ysrc.(n + k) <- yperm.(j)
    done;
    let node_of id =
      if id >= n then id else perm.(inv_i id pic.(id))
    in
    let adj = Array.make total [] in
    for k = 0 to Array.length e.e_ea - 1 do
      let a = node_of e.e_ea.(k) and b = node_of e.e_eb.(k) in
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b)
    done;
    let parent = Array.make total (-1) in
    let order = Array.make total 0 in
    let visited = Array.make total false in
    let queue = Array.make total 0 in
    visited.(0) <- true;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      order.(!head) <- v;
      incr head;
      List.iter
        (fun u ->
          if not visited.(u) then begin
            visited.(u) <- true;
            parent.(u) <- v;
            queue.(!tail) <- u;
            incr tail
          end)
        adj.(v)
    done;
    if !tail <> total then
      invalid_arg "Steiner.Lut: internal error, topology is disconnected";
    { pin_count = n; xs = txs; ys = tys; parent;
      x_source = xsrc; y_source = ysrc; order }

  let try_build ~xs ~ys =
    let n = Array.length xs in
    if n < 2 || n > max_degree then None
    else begin
      let perm, yperm, _, key, tr, pic = canonicalize n xs ys in
      match Hashtbl.find_opt tables.(n) key with
      | None -> None
      | Some entries -> Some (materialize n entries perm yperm tr pic xs ys)
    end

  let ensure ~xs ~ys =
    let n = Array.length xs in
    if n >= 2 && n <= max_degree then begin
      let _, _, _, key, _, pic = canonicalize n xs ys in
      ignore (ensure_class n key pic)
    end

  let build ~xs ~ys =
    let n = Array.length xs in
    if n < 2 || n > max_degree then
      invalid_arg "Steiner.Lut.build: degree out of range";
    let perm, yperm, _, key, tr, pic = canonicalize n xs ys in
    let entries = ensure_class n key pic in
    materialize n entries perm yperm tr pic xs ys

  (* exact RSMT length by Dreyfus-Wagner on the real coordinates
     (no symmetry reduction); independent oracle for tests *)
  let optimal_length ~xs ~ys =
    let n = Array.length xs in
    if n < 2 then 0.0
    else begin
      let perm = Array.make n 0 and yperm = Array.make n 0 in
      sort_ranks n xs perm;
      sort_ranks n ys yperm;
      let yrank = Array.make n 0 in
      for j = 0 to n - 1 do yrank.(yperm.(j)) <- j done;
      let pi = Array.make n 0 in
      for i = 0 to n - 1 do pi.(i) <- yrank.(perm.(i)) done;
      let sx = Array.map (fun p -> xs.(p)) perm in
      let sy = Array.map (fun p -> ys.(p)) yperm in
      let d = dw_make n in
      dw_solve d pi sx sy
    end
end

let build ?exact_limit ~xs ~ys () =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Steiner.build: empty net";
  if Array.length ys <> n then invalid_arg "Steiner.build: xs/ys mismatch";
  match exact_limit with
  | Some exact_limit ->
    (* legacy oracle path: exhaustive Hanan-subset optimum up to the
       clamped limit, Prim + Steinerisation beyond *)
    let exact_limit = max 2 (min 6 exact_limit) in
    let g =
      if n = 1 then make_graph 1 xs ys
      else if n = 2 then begin
        let g = make_graph 2 xs ys in
        add_edge g 0 1;
        g
      end
      else if n = 3 then build_median3 xs ys
      else if n <= exact_limit then exact_rsmt xs ys
      else begin
        let g = make_graph ((2 * n) - 2) xs ys in
        let edges, _ = prim_edges xs ys n in
        List.iter (fun (a, b) -> add_edge g a b) edges;
        steinerize g;
        g
      end
    in
    finalize g n
  | None ->
    if n = 1 then build_single xs ys
    else if n = 2 then build_two xs ys
    else if n = 3 then build_three xs ys
    else if n <= Lut.max_degree then Lut.build ~xs ~ys
    else heuristic_tree xs ys n

let update_coordinates t ~xs ~ys =
  if Array.length xs <> t.pin_count || Array.length ys <> t.pin_count then
    invalid_arg "Steiner.update_coordinates: pin count mismatch";
  for i = 0 to t.pin_count - 1 do
    t.xs.(i) <- xs.(i);
    t.ys.(i) <- ys.(i)
  done;
  for v = t.pin_count to node_count t - 1 do
    t.xs.(v) <- xs.(t.x_source.(v));
    t.ys.(v) <- ys.(t.y_source.(v))
  done

let accumulate_pin_gradient t ~node_gx ~node_gy ~pin_gx ~pin_gy =
  let n = node_count t in
  if Array.length node_gx < n || Array.length node_gy < n then
    invalid_arg "Steiner.accumulate_pin_gradient: node size mismatch";
  if Array.length pin_gx < t.pin_count || Array.length pin_gy < t.pin_count
  then invalid_arg "Steiner.accumulate_pin_gradient: pin size mismatch";
  for v = 0 to n - 1 do
    pin_gx.(t.x_source.(v)) <- pin_gx.(t.x_source.(v)) +. node_gx.(v);
    pin_gy.(t.y_source.(v)) <- pin_gy.(t.y_source.(v)) +. node_gy.(v)
  done
