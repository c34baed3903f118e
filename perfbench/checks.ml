(* Output checks the benchmark applies to the program's results.  Each
   returns the list of violations found (empty = pass), so a failed
   check becomes one failed operation in the benchmark's tally. *)

let eps = 1e-6

(* Operations attempted and failed: a check with any violation, or a
   request the program refused, is one failed operation. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t errors =
  t.attempted <- t.attempted + 1;
  if errors <> [] then begin
    t.failed <- t.failed + 1;
    List.iter (fun e -> Printf.eprintf "check failed: %s\n%!" e) errors
  end

(* Row legality of a placement: every movable cell sits on a row
   center, lies inside the region, and overlaps no other movable cell
   nor any fixed cell sharing its row. *)
let legality (d : Netlist.t) =
  let r = d.Netlist.region in
  let rh = d.Netlist.row_height in
  let nrows =
    max 1 (int_of_float (Float.floor (Geometry.Rect.height r /. rh)))
  in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let rows = Array.make nrows [] in
  Array.iter
    (fun (c : Netlist.cell) ->
      let hw = c.Netlist.width /. 2.0 and hh = c.Netlist.height /. 2.0 in
      let lo = c.Netlist.x -. hw and hi = c.Netlist.x +. hw in
      if c.Netlist.fixed then
        (* a fixed cell blocks every row its extent crosses *)
        Array.iteri
          (fun i _ ->
            let ry = r.Geometry.Rect.ly +. (float_of_int i *. rh) in
            if c.Netlist.y +. hh > ry +. eps && c.Netlist.y -. hh < ry +. rh -. eps
            then rows.(i) <- (lo, hi, true, c.Netlist.cell_id) :: rows.(i))
          rows
      else begin
        if lo < r.Geometry.Rect.lx -. eps || hi > r.Geometry.Rect.hx +. eps
           || c.Netlist.y -. hh < r.Geometry.Rect.ly -. eps
           || c.Netlist.y +. hh > r.Geometry.Rect.hy +. eps
        then fail "cell %s outside the region" c.Netlist.cell_name;
        let row_f = (c.Netlist.y -. r.Geometry.Rect.ly) /. rh -. 0.5 in
        let row = int_of_float (Float.round row_f) in
        if Float.abs (row_f -. float_of_int row) *. rh > eps || row < 0
           || row >= nrows
        then fail "cell %s is not on a row (y = %g)" c.Netlist.cell_name
            c.Netlist.y
        else rows.(row) <- (lo, hi, false, c.Netlist.cell_id) :: rows.(row)
      end)
    d.Netlist.cells;
  Array.iter
    (fun cells ->
      let sorted = List.sort compare cells in
      let mov_hi = ref neg_infinity and fix_hi = ref neg_infinity in
      List.iter
        (fun (lo, hi, fixed, id) ->
          let reach = if fixed then !mov_hi else Float.max !mov_hi !fix_hi in
          if lo < reach -. eps then
            fail "cell %s overlaps a neighbour" d.Netlist.cells.(id).Netlist.cell_name;
          if fixed then fix_hi := Float.max !fix_hi hi
          else mov_hi := Float.max !mov_hi hi)
        sorted)
    rows;
  List.rev !errors

(* Half-perimeter wirelength recomputed from pin positions (cell center
   plus pin offset), summed in net order. *)
let hpwl (d : Netlist.t) =
  let total = ref 0.0 in
  Array.iter
    (fun (net : Netlist.net) ->
      let pins = net.Netlist.net_pins in
      if Array.length pins >= 2 then begin
        let pos p =
          let pin = d.Netlist.pins.(p) in
          let c = d.Netlist.cells.(pin.Netlist.cell) in
          (c.Netlist.x +. pin.Netlist.offset_x, c.Netlist.y +. pin.Netlist.offset_y)
        in
        let x0, y0 = pos pins.(0) in
        let lx = ref x0 and hx = ref x0 and ly = ref y0 and hy = ref y0 in
        for j = 1 to Array.length pins - 1 do
          let x, y = pos pins.(j) in
          lx := Float.min !lx x;
          hx := Float.max !hx x;
          ly := Float.min !ly y;
          hy := Float.max !hy y
        done;
        total := !total +. ((!hx -. !lx) +. (!hy -. !ly))
      end)
    d.Netlist.nets;
  !total

let hpwl_matches d ~scored =
  let mine = hpwl d in
  if Float.equal mine scored then []
  else [ Printf.sprintf "HPWL %.6f recomputed vs %.6f scored" mine scored ]

(* The dgp_serve replies the benchmark verifies, rendered from a full
   analysis of the same placement exactly as the daemon prints them. *)
let commit_prefix (r : Sta.Timer.report) =
  Printf.sprintf "ok wns %.3f tns %.3f endpoints %d pins " r.Sta.Timer.setup_wns
    r.Sta.Timer.setup_tns
    (List.length r.Sta.Timer.endpoint_slacks)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let check_commit ~reference reply =
  let want = commit_prefix reference in
  if String.starts_with ~prefix:want reply then []
  else [ Printf.sprintf "commit reply %S, full analysis gives %S..." reply want ]

let slack_reply tm pin =
  Printf.sprintf "ok slack %.3f at_rise %.3f at_fall %.3f"
    (Sta.Timer.pin_slack_late tm pin)
    (Sta.Timer.at_late tm pin Sta.Rise)
    (Sta.Timer.at_late tm pin Sta.Fall)

let check_slack ~reference ~pin reply =
  let want = slack_reply reference pin in
  if String.equal want reply then []
  else [ Printf.sprintf "slack %d reply %S, full analysis gives %S" pin reply want ]

(* Reports of two analyses are bitwise identical. *)
let same_report (a : Sta.Timer.report) (b : Sta.Timer.report) =
  let bits = Int64.bits_of_float in
  bits a.Sta.Timer.setup_wns = bits b.Sta.Timer.setup_wns
  && bits a.Sta.Timer.setup_tns = bits b.Sta.Timer.setup_tns
  && bits a.Sta.Timer.hold_wns = bits b.Sta.Timer.hold_wns
  && bits a.Sta.Timer.hold_tns = bits b.Sta.Timer.hold_tns
  && List.equal
       (fun (x : Sta.Timer.endpoint_slack) (y : Sta.Timer.endpoint_slack) ->
         x.Sta.Timer.ep_pin = y.Sta.Timer.ep_pin
         && bits x.Sta.Timer.ep_setup_slack = bits y.Sta.Timer.ep_setup_slack
         && bits x.Sta.Timer.ep_hold_slack = bits y.Sta.Timer.ep_hold_slack)
       a.Sta.Timer.endpoint_slacks b.Sta.Timer.endpoint_slacks
