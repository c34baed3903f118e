(* Test-only oracle: detailed placement as it was before the flat-array
   rewrite of [Detailed.refine], kept verbatim (list permutations, a
   [Hashtbl] of incident nets, whole-net HPWL per try, a full-row
   candidate scan) so the rewrite can be checked bit for bit against an
   independent implementation.  It still has the old defect the rewrite
   fixed: a window is re-packed even across a fixed cell inside its span,
   so comparisons are only meaningful where its output is legal. *)

(* HPWL restricted to the nets touching a set of cells: the only part a
   local move can change. *)
let incident_nets design cells =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun c ->
      Array.iter
        (fun p ->
          let net = design.Netlist.pins.(p).Netlist.net in
          if net >= 0 then Hashtbl.replace seen net ())
        design.Netlist.cells.(c).Netlist.cell_pins)
    cells;
  Hashtbl.fold (fun net () acc -> net :: acc) seen []

let hpwl_of_nets design nets =
  List.fold_left (fun acc n -> acc +. Netlist.net_hpwl design n) 0.0 nets

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

(* ---- window reordering within one row ---- *)

(* [slots] are cell ids of one row sorted by x; try every permutation of
   the cells in [slots.(i .. i+w-1)], left-packed inside their original
   span, and keep the best.  Returns true when a strictly better
   arrangement was applied. *)
let try_window design slots i w =
  let ids = Array.to_list (Array.sub slots i w) in
  let cells = List.map (fun c -> design.Netlist.cells.(c)) ids in
  let left =
    match cells with
    | first :: _ -> first.Netlist.x -. (first.Netlist.width /. 2.0)
    | [] -> 0.0
  in
  let nets = incident_nets design ids in
  let saved = List.map (fun (c : Netlist.cell) -> (c, c.Netlist.x)) cells in
  let base = hpwl_of_nets design nets in
  let apply order =
    let cursor = ref left in
    List.iter
      (fun (c : Netlist.cell) ->
        c.Netlist.x <- !cursor +. (c.Netlist.width /. 2.0);
        cursor := !cursor +. c.Netlist.width)
      order
  in
  let best = ref base and best_order = ref None in
  List.iter
    (fun order ->
      apply order;
      let h = hpwl_of_nets design nets in
      if h < !best -. 1e-9 then begin
        best := h;
        best_order := Some order
      end)
    (permutations cells);
  match !best_order with
  | None ->
    List.iter (fun ((c : Netlist.cell), x) -> c.Netlist.x <- x) saved;
    false
  | Some order ->
    apply order;
    (* keep the slot array sorted by x *)
    let slice = Array.sub slots i w in
    Array.sort
      (fun a b ->
        Float.compare design.Netlist.cells.(a).Netlist.x
          design.Netlist.cells.(b).Netlist.x)
      slice;
    Array.blit slice 0 slots i w;
    true

(* ---- equal-width global swap ---- *)

let try_swap design a b =
  let ca = design.Netlist.cells.(a) and cb = design.Netlist.cells.(b) in
  let nets = incident_nets design [ a; b ] in
  let before = hpwl_of_nets design nets in
  let ax = ca.Netlist.x and ay = ca.Netlist.y in
  ca.Netlist.x <- cb.Netlist.x;
  ca.Netlist.y <- cb.Netlist.y;
  cb.Netlist.x <- ax;
  cb.Netlist.y <- ay;
  if hpwl_of_nets design nets < before -. 1e-9 then true
  else begin
    cb.Netlist.x <- ca.Netlist.x;
    cb.Netlist.y <- ca.Netlist.y;
    ca.Netlist.x <- ax;
    ca.Netlist.y <- ay;
    false
  end

(* Where the incident nets would like this cell to be: the center of the
   bounding box of its nets' other pins. *)
let desired_position design c =
  let bbox = ref Geometry.Bbox.empty in
  Array.iter
    (fun p ->
      let net = design.Netlist.pins.(p).Netlist.net in
      if net >= 0 then
        Array.iter
          (fun q ->
            if design.Netlist.pins.(q).Netlist.cell <> c then
              bbox :=
                Geometry.Bbox.add_xy !bbox (Netlist.pin_x design q)
                  (Netlist.pin_y design q))
          design.Netlist.nets.(net).Netlist.net_pins)
    design.Netlist.cells.(c).Netlist.cell_pins;
  Option.map Geometry.Rect.center (Geometry.Bbox.to_rect !bbox)

let refine ?(passes = 3) ?(window = 3) design =
  if window < 2 then invalid_arg "Detailed.refine: window must be >= 2";
  let hpwl_before = Netlist.total_hpwl design in
  let rh = design.Netlist.row_height in
  let region = design.Netlist.region in
  (* bucket movable cells by row *)
  let nrows =
    max 1 (int_of_float (Float.floor (Geometry.Rect.height region /. rh)))
  in
  let row_of (c : Netlist.cell) =
    let r =
      int_of_float ((c.Netlist.y -. region.Geometry.Rect.ly) /. rh)
    in
    max 0 (min (nrows - 1) r)
  in
  let buckets = Array.make nrows [] in
  List.iter
    (fun i ->
      let c = design.Netlist.cells.(i) in
      buckets.(row_of c) <- i :: buckets.(row_of c))
    (Netlist.movable_cells design);
  let rows =
    Array.map
      (fun ids ->
        let arr = Array.of_list ids in
        Array.sort
          (fun a b ->
            Float.compare design.Netlist.cells.(a).Netlist.x
              design.Netlist.cells.(b).Netlist.x)
          arr;
        arr)
      buckets
  in
  let reorder_moves = ref 0 and swap_moves = ref 0 in
  let passes_run = ref 0 in
  let improved = ref true in
  while !improved && !passes_run < passes do
    improved := false;
    incr passes_run;
    (* phase 1: window reordering *)
    Array.iter
      (fun slots ->
        let n = Array.length slots in
        for i = 0 to n - window do
          if try_window design slots i window then begin
            incr reorder_moves;
            improved := true
          end
        done)
      rows;
    (* phase 2: equal-width swaps toward each cell's desired position.
       The two cells exchange their exact slots, so each replaces the
       other in its row array and x-sortedness is preserved. *)
    let index_of arr v =
      let n = Array.length arr in
      let rec find i = if i >= n then -1 else if arr.(i) = v then i else find (i + 1) in
      find 0
    in
    let swap_entries row_a row_b a b =
      let ia = index_of rows.(row_a) a and ib = index_of rows.(row_b) b in
      if ia >= 0 && ib >= 0 then begin
        rows.(row_a).(ia) <- b;
        rows.(row_b).(ib) <- a
      end
    in
    Array.iteri
      (fun a_row slots ->
        Array.iter
          (fun a ->
            let ca = design.Netlist.cells.(a) in
            if row_of ca = a_row then
              match desired_position design a with
              | None -> ()
              | Some want ->
                let target_row =
                  max 0
                    (min (nrows - 1)
                       (int_of_float
                          ((want.Geometry.Point.y -. region.Geometry.Rect.ly)
                           /. rh)))
                in
                let candidates = rows.(target_row) in
                (* nearest equal-width candidate to the desired x *)
                let best = ref None in
                Array.iter
                  (fun b ->
                    if b <> a then begin
                      let cb = design.Netlist.cells.(b) in
                      if Float.abs (cb.Netlist.width -. ca.Netlist.width) < 1e-9
                      then begin
                        let d =
                          Float.abs (cb.Netlist.x -. want.Geometry.Point.x)
                        in
                        match !best with
                        | Some (bd, _) when bd <= d -> ()
                        | Some _ | None -> best := Some (d, b)
                      end
                    end)
                  candidates;
                (match !best with
                 | Some (_, b) when b <> a ->
                   if try_swap design a b then begin
                     incr swap_moves;
                     improved := true;
                     swap_entries a_row target_row a b
                   end
                 | Some _ | None -> ()))
          (Array.copy slots))
      rows
  done;
  { Detailed.passes_run = !passes_run;
    reorder_moves = !reorder_moves;
    swap_moves = !swap_moves;
    hpwl_before;
    hpwl_after = Netlist.total_hpwl design }
