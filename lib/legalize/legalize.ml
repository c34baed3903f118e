type stats = {
  moved_cells : int;
  total_displacement : float;
  max_displacement : float;
  average_displacement : float;
  overfull_cells : int;
  total_overflow : float;
  warnings : string list;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>moved: %d cells@,displacement: total %.1f um, max %.2f um, avg %.3f um"
    s.moved_cells s.total_displacement s.max_displacement
    s.average_displacement;
  if s.overfull_cells > 0 then
    Format.fprintf ppf "@,overfull: %d cells, %.2f um total overflow"
      s.overfull_cells s.total_overflow;
  Format.fprintf ppf "@]"

(* Each row keeps its free x-intervals; placing a cell splits the
   interval it lands in, so gaps left behind remain usable. *)
type row = {
  row_y : float;  (* center y of the row *)
  mutable free : (float * float) list;  (* sorted, disjoint *)
}

(* Per row, the x-intervals (lo, hi) of the fixed cells whose extent
   crosses it, sorted. *)
let row_blockages (design : Netlist.t) =
  let region = design.Netlist.region in
  let rh = design.Netlist.row_height in
  let nrows =
    max 1 (int_of_float (Float.floor (Geometry.Rect.height region /. rh)))
  in
  let fixed =
    Array.to_list design.Netlist.cells
    |> List.filter (fun (c : Netlist.cell) -> c.Netlist.fixed)
  in
  Array.init nrows (fun r ->
    let lo_y = region.Geometry.Rect.ly +. (float_of_int r *. rh) in
    let hi_y = lo_y +. rh in
    List.filter_map
      (fun (c : Netlist.cell) ->
        let c_lo = c.Netlist.y -. (c.Netlist.height /. 2.0) in
        let c_hi = c.Netlist.y +. (c.Netlist.height /. 2.0) in
        if c_hi > lo_y +. 1e-9 && c_lo < hi_y -. 1e-9 then
          Some
            (c.Netlist.x -. (c.Netlist.width /. 2.0),
             c.Netlist.x +. (c.Netlist.width /. 2.0))
        else None)
      fixed
    |> List.sort compare
    |> Array.of_list)

let build_rows (design : Netlist.t) =
  let region = design.Netlist.region in
  let rh = design.Netlist.row_height in
  let rec carve lo = function
    | [] ->
      if region.Geometry.Rect.hx -. lo > 1e-9 then
        [ (lo, region.Geometry.Rect.hx) ]
      else []
    | (b_lo, b_hi) :: rest ->
      let pre = if b_lo -. lo > 1e-9 then [ (lo, b_lo) ] else [] in
      pre @ carve (Float.max lo b_hi) rest
  in
  Array.mapi
    (fun r blocked ->
      let lo_y = region.Geometry.Rect.ly +. (float_of_int r *. rh) in
      { row_y = lo_y +. (rh /. 2.0);
        free = carve region.Geometry.Rect.lx (Array.to_list blocked) })
    (row_blockages design)

let k_legalize = Obs.kernel "legalize"

let legalize ?(obs = Obs.disabled) design =
  Obs.start obs k_legalize;
  let rows = build_rows design in
  let nrows = Array.length rows in
  let rh = design.Netlist.row_height in
  let region = design.Netlist.region in
  let movable =
    Array.of_list
      (List.map (fun i -> design.Netlist.cells.(i)) (Netlist.movable_cells design))
  in
  Array.sort
    (fun (a : Netlist.cell) (b : Netlist.cell) ->
      Float.compare
        (a.Netlist.x -. (a.Netlist.width /. 2.0))
        (b.Netlist.x -. (b.Netlist.width /. 2.0)))
    movable;
  let moved = ref 0 and total = ref 0.0 and worst = ref 0.0 in
  let overfull = ref 0 and overflow_tot = ref 0.0 in
  let warnings = ref [] in
  Array.iter
    (fun (c : Netlist.cell) ->
      let want_x = c.Netlist.x and want_y = c.Netlist.y in
      let home_row =
        int_of_float ((want_y -. region.Geometry.Rect.ly) /. rh)
      in
      let home_row = max 0 (min (nrows - 1) home_row) in
      (* candidate placement in one row; None if the cell cannot fit *)
      let try_row r =
        let row = rows.(r) in
        let y_cost = Float.abs (row.row_y -. want_y) in
        let half = c.Netlist.width /. 2.0 in
        List.fold_left
          (fun best (lo, hi) ->
            if hi -. lo >= c.Netlist.width -. 1e-9 then begin
              let x =
                Float.max lo (Float.min (want_x -. half) (hi -. c.Netlist.width))
              in
              let cost = Float.abs (x +. half -. want_x) +. y_cost in
              match best with
              | Some (bc, _) when bc <= cost -> best
              | Some _ | None -> Some (cost, x)
            end
            else best)
          None row.free
      in
      (* scan rows outward from the home row; stop once the row's y
         distance alone exceeds the best cost so far *)
      let best = ref None in
      let consider r =
        if r >= 0 && r < nrows then begin
          let y_cost = Float.abs (rows.(r).row_y -. want_y) in
          let beaten =
            match !best with Some (bc, _, _) -> y_cost >= bc | None -> false
          in
          if not beaten then
            match try_row r with
            | Some (cost, x) ->
              (match !best with
               | Some (bc, _, _) when bc <= cost -> ()
               | Some _ | None -> best := Some (cost, r, x))
            | None -> ()
        end
      in
      consider home_row;
      let radius = ref 1 in
      let continue_ = ref true in
      while !continue_ && !radius < nrows do
        let d_y = float_of_int !radius *. rh in
        (match !best with
         | Some (bc, _, _) when d_y -. rh >= bc -> continue_ := false
         | Some _ | None -> ());
        if !continue_ then begin
          consider (home_row + !radius);
          consider (home_row - !radius)
        end;
        incr radius
      done;
      let commit nx ny =
        let d = Float.abs (nx -. want_x) +. Float.abs (ny -. want_y) in
        if d > 1e-9 then begin
          incr moved;
          total := !total +. d;
          if d > !worst then worst := d
        end;
        c.Netlist.x <- nx;
        c.Netlist.y <- ny
      in
      match !best with
      | Some (_, r, x) ->
        let row = rows.(r) in
        (* split the interval the cell landed in *)
        let rec split = function
          | [] -> []
          | (lo, hi) :: rest ->
            if x >= lo -. 1e-9 && x +. c.Netlist.width <= hi +. 1e-9 then begin
              let left = if x -. lo > 1e-9 then [ (lo, x) ] else [] in
              let right =
                if hi -. (x +. c.Netlist.width) > 1e-9 then
                  [ (x +. c.Netlist.width, hi) ]
                else []
              in
              left @ right @ rest
            end
            else (lo, hi) :: split rest
        in
        row.free <- split row.free;
        commit (x +. (c.Netlist.width /. 2.0)) row.row_y
      | None ->
        (* no reachable interval is wide enough: degrade gracefully
           instead of aborting the whole flow.  Take the minimum-
           overflow free interval anywhere (ties: smallest displacement,
           then the fixed row/interval scan order — deterministic),
           consume it whole and center the cell on it; the residual
           overlap is reported, not fatal. *)
        let fb = ref None in
        Array.iteri
          (fun r row ->
            let y_cost = Float.abs (row.row_y -. want_y) in
            List.iter
              (fun (lo, hi) ->
                let ov = c.Netlist.width -. (hi -. lo) in
                let cost =
                  Float.abs (((lo +. hi) /. 2.0) -. want_x) +. y_cost
                in
                let better =
                  match !fb with
                  | None -> true
                  | Some (bov, bcost, _, _, _) ->
                    ov < bov -. 1e-12
                    || (ov <= bov +. 1e-12 && cost < bcost -. 1e-12)
                in
                if better then fb := Some (ov, cost, r, lo, hi))
              row.free)
          rows;
        let clamp_x x =
          let half = c.Netlist.width /. 2.0 in
          Float.max
            (region.Geometry.Rect.lx +. half)
            (Float.min (region.Geometry.Rect.hx -. half) x)
        in
        let nx, ny, ov =
          match !fb with
          | Some (ov, _, r, lo, hi) ->
            let row = rows.(r) in
            row.free <-
              List.filter (fun (l, h) -> not (l = lo && h = hi)) row.free;
            (clamp_x ((lo +. hi) /. 2.0), row.row_y, ov)
          | None ->
            (* no free space at all: clamp to the wanted position *)
            (clamp_x want_x, rows.(home_row).row_y, c.Netlist.width)
        in
        incr overfull;
        overflow_tot := !overflow_tot +. ov;
        warnings :=
          Printf.sprintf
            "legalize: cell %s (w=%.2f) does not fit; placed at \
             (%.2f, %.2f) with %.2f um overflow"
            c.Netlist.cell_name c.Netlist.width nx ny ov
          :: !warnings;
        commit nx ny)
    movable;
  Obs.add obs "legalize.overfull_cells" (float_of_int !overfull);
  Obs.add obs "legalize.total_overflow" !overflow_tot;
  Obs.stop obs;
  let n = Array.length movable in
  { moved_cells = !moved;
    total_displacement = !total;
    max_displacement = !worst;
    average_displacement = (if n = 0 then 0.0 else !total /. float_of_int n);
    overfull_cells = !overfull;
    total_overflow = !overflow_tot;
    warnings = List.rev !warnings }
