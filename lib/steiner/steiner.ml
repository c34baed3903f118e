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
   coordinate spans the shortest candidate is the exact optimum.  The
   candidate sets of every class of degree 2 .. [max_degree] are
   generated offline (tools/steiner_gen, a Dreyfus-Wagner Steiner DP on
   the Hanan grid) and shipped as one byte table embedded in this
   library.  Runtime [build] for a net of degree <= [max_degree] is:
   canonicalize the permutation, binary-search the class, evaluate the
   stored candidates on the actual spans straight from the bytes,
   materialize the winner with x/y-source provenance intact.
   ==================================================================== *)

module Lut = struct
  let max_degree = 8

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
    (perm, yperm, !best_key, !best_t, pic)

  let canonical pi =
    let n = Array.length pi in
    let seen = Array.make n false in
    Array.iter
      (fun j ->
        if j < 0 || j >= n || seen.(j) then
          invalid_arg "Steiner.Lut.canonical: not a permutation";
        seen.(j) <- true)
      pi;
    let xs = Array.init n float_of_int and ys = Array.map float_of_int pi in
    let _, _, key, _, pic = canonicalize n xs ys in
    (key, pic)

  (* -- the shipped table --

     Little-endian u32 fields; every node and rank index is below 16,
     so an entry packs two indices per byte.

       0            magic "DGPSTLUT"
       8            version
       12           total length in bytes
       16 + 8 d     class count of degree d, offset of its section
                    (d = 0 .. max_degree)
     section        count class keys, strictly ascending; then
                    count + 1 offsets: class i's entries are the bytes
                    [off i, off (i + 1))
     entry          1 byte    s | m << 4   (Steiner points, edges)
                    s bytes   x-rank << 4 | y-rank of Steiner point k
                    m bytes   a << 4 | b of edge k, a < b

     Node ids 0 .. n-1 are the canonical pins (pin a at Hanan ranks
     (a, pic.(a))); ids n .. n+s-1 are Steiner points.  A class's
     entries are kept in generation order: [materialize] keeps the first
     minimum on a tie.  The table is validated once when loaded and then
     read in place, never decoded. *)

  module Table = struct
    type t = string

    let magic = "DGPSTLUT"
    let version = 1
    let header_bytes = 16 + (8 * (max_degree + 1))

    let u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFF_FFFF
    let count s n = u32 s (16 + (8 * n))
    let section s n = u32 s (20 + (8 * n))
    let run_start s n i = u32 s (section s n + (4 * count s n) + (4 * i))

    exception Bad of string

    let validate s =
      let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
      let len = String.length s in
      if len < String.length magic || String.sub s 0 (String.length magic) <> magic
      then bad "bad magic (not a Steiner topology table)";
      if len < header_bytes then
        bad "truncated header (%d bytes, need %d)" len header_bytes;
      if u32 s 8 <> version then
        bad "unsupported version %d (this build reads version %d)" (u32 s 8)
          version;
      if u32 s 12 <> len then
        bad "length %d bytes but the header says %d (truncated or padded)" len
          (u32 s 12);
      for n = 0 to max_degree do
        let c = count s n and sec = section s n in
        if c > 0 then begin
          if n < 2 then bad "degree %d has %d classes" n c;
          if sec < header_bytes || sec + (8 * c) + 4 > len then
            bad "degree %d: section at %d out of bounds" n sec;
          let limit = int_of_float (float_of_int n ** float_of_int n) in
          let prev = ref (-1) in
          for i = 0 to c - 1 do
            let k = u32 s (sec + (4 * i)) in
            if k <= !prev || k >= limit then
              bad "degree %d: class key %d at %d not ascending or out of range"
                n k i;
            prev := k
          done;
          for i = 0 to c - 1 do
            let a = run_start s n i and b = run_start s n (i + 1) in
            if not (header_bytes <= a && a < b && b <= len) then
              bad "degree %d class %d: entry bytes [%d, %d) out of bounds" n
                i a b;
            let pos = ref a in
            while !pos < b do
              let h = Char.code s.[!pos] in
              let st = h land 15 and m = h lsr 4 in
              if st > n - 2 || m <> n + st - 1 || !pos + 1 + st + m > b then
                bad "degree %d class %d: malformed entry at byte %d" n i !pos;
              for k = 1 to st do
                let r = Char.code s.[!pos + k] in
                if r lsr 4 >= n || r land 15 >= n then
                  bad "degree %d class %d: Steiner rank out of range at byte %d"
                    n i (!pos + k)
              done;
              for k = 1 + st to st + m do
                let e = Char.code s.[!pos + k] in
                if e lsr 4 >= e land 15 || e land 15 >= n + st then
                  bad "degree %d class %d: bad edge at byte %d" n i (!pos + k)
              done;
              pos := !pos + 1 + st + m
            done
          done
        end
      done

    let of_string ~name s =
      match validate s with
      | () -> Ok s
      | exception Bad msg -> Error (Printf.sprintf "Steiner table %s: %s" name msg)

    let to_string t = t

    let encode_entry b ~sx ~sy ~ea ~eb =
      let nib v =
        if v < 0 || v > 15 then invalid_arg "Steiner.Lut.Table: index above 15";
        v
      in
      let pack hi lo = Buffer.add_char b (Char.chr ((nib hi lsl 4) lor nib lo)) in
      pack (Array.length ea) (Array.length sx);
      Array.iteri (fun k x -> pack x sy.(k)) sx;
      Array.iteri (fun k a -> pack a eb.(k)) ea

    let assemble ~name degrees =
      let section = Array.make (max_degree + 1) 0 in
      let pos = ref header_bytes in
      Array.iteri
        (fun d runs ->
          let c = Array.length runs in
          if c > 0 then begin
            section.(d) <- !pos;
            pos := !pos + (8 * c) + 4;
            Array.iter (fun (_, r) -> pos := !pos + String.length r) runs
          end)
        degrees;
      let b = Buffer.create !pos in
      let u32 v = Buffer.add_int32_le b (Int32.of_int v) in
      Buffer.add_string b magic;
      u32 version;
      u32 !pos;
      for d = 0 to max_degree do
        u32 (Array.length degrees.(d));
        u32 section.(d)
      done;
      Array.iteri
        (fun d runs ->
          let off = ref (section.(d) + (8 * Array.length runs) + 4) in
          Array.iter (fun (key, _) -> u32 key) runs;
          if runs <> [||] then u32 !off;
          Array.iter
            (fun (_, r) ->
              off := !off + String.length r;
              u32 !off)
            runs;
          Array.iter (fun (_, r) -> Buffer.add_string b r) runs)
        degrees;
      of_string ~name (Buffer.contents b)

    let embedded =
      match of_string ~name:"steiner_table.bin" Steiner_table_data.data with
      | Ok t -> t
      | Error msg -> failwith msg

    let class_count t n =
      if n >= 0 && n <= max_degree then count t n else 0

    (* index of [key] among degree [n]'s classes, or -1 *)
    let find t n key =
      if n < 0 || n > max_degree then -1
      else begin
        let sec = section t n in
        let lo = ref 0 and hi = ref (count t n - 1) and found = ref (-1) in
        while !found < 0 && !lo <= !hi do
          let mid = (!lo + !hi) lsr 1 in
          let k = u32 t (sec + (4 * mid)) in
          if k = key then found := mid
          else if k < key then lo := mid + 1
          else hi := mid - 1
        done;
        !found
      end

    let class_bytes t n key =
      let i = find t n key in
      if i < 0 then None
      else begin
        let a = run_start t n i in
        Some (String.sub t a (run_start t n (i + 1) - a))
      end
  end

  let class_count n = Table.class_count Table.embedded n

  (* length of the entry at byte [e] for canonical axis values [cx]/[cy]
     (cx.(a) = coordinate of canonical x-rank a, likewise cy) *)
  let entry_length tb e n pic cx cy =
    let h = Char.code tb.[e] in
    let s = h land 15 and m = h lsr 4 in
    let len = ref 0.0 in
    for k = 0 to m - 1 do
      let ab = Char.code tb.[e + 1 + s + k] in
      let a = ab lsr 4 and b = ab land 15 in
      let ra = if a < n then 0 else Char.code tb.[e + 1 + a - n]
      and rb = if b < n then 0 else Char.code tb.[e + 1 + b - n] in
      let xa = if a < n then cx.(a) else cx.(ra lsr 4)
      and ya = if a < n then cy.(pic.(a)) else cy.(ra land 15) in
      let xb = if b < n then cx.(b) else cx.(rb lsr 4)
      and yb = if b < n then cy.(pic.(b)) else cy.(rb land 15) in
      len := !len +. Float.abs (xa -. xb) +. Float.abs (ya -. yb)
    done;
    !len

  let entry_size tb e =
    let h = Char.code tb.[e] in
    1 + (h land 15) + (h lsr 4)

  (* -- materialization: entries [a, b) -> rooted tree in pin space -- *)
  let materialize tb a b n perm yperm tr pic xs ys =
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
    let best = ref a in
    let best_len = ref (entry_length tb a n pic cx cy) in
    let pos = ref (a + entry_size tb a) in
    while !pos < b do
      let l = entry_length tb !pos n pic cx cy in
      if l < !best_len then begin
        best_len := l;
        best := !pos
      end;
      pos := !pos + entry_size tb !pos
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
    let h = Char.code tb.[e] in
    let s = h land 15 and m = h lsr 4 in
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
      let r = Char.code tb.[e + 1 + k] in
      let a = r lsr 4 and b = r land 15 in
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
    for k = 0 to m - 1 do
      let ab = Char.code tb.[e + 1 + s + k] in
      let a = node_of (ab lsr 4) and b = node_of (ab land 15) in
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
      let perm, yperm, key, tr, pic = canonicalize n xs ys in
      let tb = Table.embedded in
      let i = Table.find tb n key in
      if i < 0 then None
      else
        Some
          (materialize tb (Table.run_start tb n i)
             (Table.run_start tb n (i + 1))
             n perm yperm tr pic xs ys)
    end
end

let build ~xs ~ys () =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Steiner.build: empty net";
  if Array.length ys <> n then invalid_arg "Steiner.build: xs/ys mismatch";
  if n = 1 then build_single xs ys
  else if n = 2 then build_two xs ys
  else if n = 3 then build_three xs ys
  else if n <= Lut.max_degree then Option.get (Lut.try_build ~xs ~ys)
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
