(* Tests for the Tetris legaliser. *)

let region = Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:60.0 ~hy:60.0

let random_design ?(rows = 1.5) ?(util = 0.5) seed n =
  let b = Netlist.Builder.create ~region ~row_height:rows "lg" in
  let rng = Workload.Rng.create seed in
  let target_area = util *. Geometry.Rect.area region in
  let area = ref 0.0 in
  let i = ref 0 in
  while !area < target_area && !i < n do
    let w = 0.8 +. Workload.Rng.float rng 2.0 in
    ignore
      (Netlist.Builder.add_cell b
         ~name:(Printf.sprintf "c%d" !i)
         ~lib_cell:0 ~width:w ~height:rows
         ~x:(2.0 +. Workload.Rng.float rng 56.0)
         ~y:(2.0 +. Workload.Rng.float rng 56.0)
         ());
    area := !area +. (w *. rows);
    incr i
  done;
  Netlist.Builder.freeze b

let test_removes_overlap () =
  let d = random_design 3 5000 in
  Alcotest.(check bool) "initial overlap" true (Checks.legality d <> []);
  let _ = Legalize.legalize d in
  Alcotest.(check (list string)) "legal" [] (Checks.legality d)

let test_rows_and_region () =
  let d = random_design 4 5000 in
  let _ = Legalize.legalize d in
  let rh = d.Netlist.row_height in
  Array.iter
    (fun (c : Netlist.cell) ->
      if not c.Netlist.fixed then begin
        (* y on a row center *)
        let k = (c.Netlist.y -. (rh /. 2.0)) /. rh in
        if Float.abs (k -. Float.round k) > 1e-6 then
          Alcotest.failf "cell %s not on a row (y=%f)" c.Netlist.cell_name
            c.Netlist.y;
        (* fully inside the region *)
        if c.Netlist.x -. (c.Netlist.width /. 2.0) < -1e-6
           || c.Netlist.x +. (c.Netlist.width /. 2.0) > 60.0 +. 1e-6
        then Alcotest.fail "cell outside region"
      end)
    d.Netlist.cells

let test_displacement_stats () =
  let d = random_design 5 5000 in
  let before = Netlist.copy_positions d in
  let s = Legalize.legalize d in
  Alcotest.(check bool) "some cells move" true (s.Legalize.moved_cells > 0);
  Alcotest.(check bool) "avg <= max" true
    (s.Legalize.average_displacement <= s.Legalize.max_displacement +. 1e-9);
  (* recompute displacement independently *)
  let xs, ys = before in
  let total = ref 0.0 in
  Array.iteri
    (fun i (c : Netlist.cell) ->
      if not c.Netlist.fixed then
        total := !total +. Float.abs (c.Netlist.x -. xs.(i))
                 +. Float.abs (c.Netlist.y -. ys.(i)))
    d.Netlist.cells;
  Alcotest.(check (float 1e-6)) "total displacement" !total
    s.Legalize.total_displacement

let test_fixed_untouched () =
  let b = Netlist.Builder.create ~region ~row_height:1.5 "fx" in
  let _ =
    Netlist.Builder.add_cell b ~name:"block" ~lib_cell:(-1) ~width:20.0
      ~height:20.0 ~x:30.0 ~y:30.0 ~fixed:true ()
  in
  for i = 0 to 199 do
    ignore
      (Netlist.Builder.add_cell b
         ~name:(Printf.sprintf "c%d" i)
         ~lib_cell:0 ~width:1.5 ~height:1.5 ~x:30.0 ~y:30.0 ())
  done;
  let d = Netlist.Builder.freeze b in
  let _ = Legalize.legalize d in
  let block = d.Netlist.cells.(0) in
  Alcotest.(check (float 1e-12)) "fixed x" 30.0 block.Netlist.x;
  (* movable cells avoid the blockage *)
  Alcotest.(check (list string)) "legal" [] (Checks.legality d)

let test_determinism () =
  let d1 = random_design 6 4000 in
  let d2 = random_design 6 4000 in
  let _ = Legalize.legalize d1 in
  let _ = Legalize.legalize d2 in
  Array.iteri
    (fun i (c : Netlist.cell) ->
      let c2 = d2.Netlist.cells.(i) in
      if c.Netlist.x <> c2.Netlist.x || c.Netlist.y <> c2.Netlist.y then
        Alcotest.fail "legalisation not deterministic")
    d1.Netlist.cells

let test_too_full_degrades () =
  (* 120% utilisation cannot be legalised overlap-free; instead of
     aborting the flow the legaliser must finish, report the overfull
     cells and leave every cell inside the region on a row *)
  let b = Netlist.Builder.create ~region ~row_height:1.5 "full" in
  let area = ref 0.0 in
  let i = ref 0 in
  while !area < 1.2 *. Geometry.Rect.area region do
    ignore
      (Netlist.Builder.add_cell b
         ~name:(Printf.sprintf "c%d" !i)
         ~lib_cell:0 ~width:3.0 ~height:1.5 ~x:30.0 ~y:30.0 ());
    area := !area +. 4.5;
    incr i
  done;
  let d = Netlist.Builder.freeze b in
  let s = Legalize.legalize d in
  Alcotest.(check bool) "some cells overfull" true (s.Legalize.overfull_cells > 0);
  Alcotest.(check bool) "overflow positive" true (s.Legalize.total_overflow > 0.0);
  Alcotest.(check int) "one warning per overfull cell"
    s.Legalize.overfull_cells
    (List.length s.Legalize.warnings);
  List.iter
    (fun w ->
      Alcotest.(check bool) "warning mentions overflow" true
        (let has_sub sub s =
           let n = String.length sub and m = String.length s in
           let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         has_sub "overflow" w))
    s.Legalize.warnings;
  let rh = d.Netlist.row_height in
  Array.iter
    (fun (c : Netlist.cell) ->
      if not c.Netlist.fixed then begin
        let k = (c.Netlist.y -. (rh /. 2.0)) /. rh in
        if Float.abs (k -. Float.round k) > 1e-6 then
          Alcotest.failf "cell %s not on a row (y=%f)" c.Netlist.cell_name
            c.Netlist.y;
        if c.Netlist.x -. (c.Netlist.width /. 2.0) < -1e-6
           || c.Netlist.x +. (c.Netlist.width /. 2.0) > 60.0 +. 1e-6
        then Alcotest.fail "cell outside region"
      end)
    d.Netlist.cells

let test_overfull_row_regression () =
  (* one deliberately overfull row: 10 cells of width 8 want row 0 of a
     60-wide region (80 > 60).  The fallback must keep the flow alive,
     place the spill deterministically and report the exact overflow. *)
  let b = Netlist.Builder.create ~region ~row_height:1.5 "row0" in
  for i = 0 to 9 do
    ignore
      (Netlist.Builder.add_cell b
         ~name:(Printf.sprintf "c%d" i)
         ~lib_cell:0 ~width:8.0 ~height:1.5
         ~x:(4.0 +. (6.0 *. float_of_int i))
         ~y:0.75 ())
  done;
  let d = Netlist.Builder.freeze b in
  let s = Legalize.legalize d in
  (* 7 cells fit on row 0 (56 <= 60), the spill lands on nearby rows
     without triggering the overfull fallback — the region as a whole
     has plenty of space, so no warnings *)
  Alcotest.(check int) "nothing overfull" 0 s.Legalize.overfull_cells;
  Alcotest.(check (list string)) "legal" [] (Checks.legality d);
  (* now really exhaust the region: a single movable giant wider than
     any row *)
  let b2 = Netlist.Builder.create ~region ~row_height:1.5 "giant" in
  ignore
    (Netlist.Builder.add_cell b2 ~name:"wide" ~lib_cell:0 ~width:70.0
       ~height:1.5 ~x:30.0 ~y:0.75 ());
  let d2 = Netlist.Builder.freeze b2 in
  let s2 = Legalize.legalize d2 in
  Alcotest.(check int) "giant is overfull" 1 s2.Legalize.overfull_cells;
  Alcotest.(check (float 1e-6)) "overflow = width - row width" 10.0
    s2.Legalize.total_overflow;
  (* deterministic fallback: run again from the same start *)
  let b3 = Netlist.Builder.create ~region ~row_height:1.5 "giant" in
  ignore
    (Netlist.Builder.add_cell b3 ~name:"wide" ~lib_cell:0 ~width:70.0
       ~height:1.5 ~x:30.0 ~y:0.75 ());
  let d3 = Netlist.Builder.freeze b3 in
  let _ = Legalize.legalize d3 in
  Alcotest.(check (float 1e-12)) "deterministic x"
    d2.Netlist.cells.(0).Netlist.x d3.Netlist.cells.(0).Netlist.x;
  Alcotest.(check (float 1e-12)) "deterministic y"
    d2.Netlist.cells.(0).Netlist.y d3.Netlist.cells.(0).Netlist.y

let test_already_legal_small_moves () =
  (* a design already sitting on rows only gets micro-adjustments *)
  let b = Netlist.Builder.create ~region ~row_height:1.5 "calm" in
  for i = 0 to 9 do
    ignore
      (Netlist.Builder.add_cell b
         ~name:(Printf.sprintf "c%d" i)
         ~lib_cell:0 ~width:2.0 ~height:1.5
         ~x:(5.0 +. (4.0 *. float_of_int i))
         ~y:0.75 ())
  done;
  let d = Netlist.Builder.freeze b in
  let s = Legalize.legalize d in
  Alcotest.(check (float 1e-6)) "no movement" 0.0 s.Legalize.total_displacement

let suite =
  [ Alcotest.test_case "removes overlap" `Quick test_removes_overlap;
    Alcotest.test_case "rows and region" `Quick test_rows_and_region;
    Alcotest.test_case "displacement stats" `Quick test_displacement_stats;
    Alcotest.test_case "fixed cells untouched" `Quick test_fixed_untouched;
    Alcotest.test_case "deterministic" `Quick test_determinism;
    Alcotest.test_case "over-full degrades gracefully" `Quick
      test_too_full_degrades;
    Alcotest.test_case "overfull row regression" `Quick
      test_overfull_row_regression;
    Alcotest.test_case "already legal is stable" `Quick
      test_already_legal_small_moves ]
