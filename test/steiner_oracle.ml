(* Test-only oracle: the pre-LUT exhaustive RSMT construction, verbatim.

   [build ~exact_limit] is the exhaustive Hanan-subset optimum up to
   the clamped limit and Prim + Steinerisation beyond (the legacy
   ?exact_limit path of Steiner.build).  It shares no code with
   lib/steiner's table path, so agreement on lengths is evidence. *)

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
  { Steiner.pin_count = npins; xs; ys; parent; x_source; y_source; order }

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

let build ~exact_limit ~xs ~ys =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Steiner_oracle.build: empty net";
  if Array.length ys <> n then
    invalid_arg "Steiner_oracle.build: xs/ys mismatch";
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
