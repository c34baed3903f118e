(* Tests for NLDM look-up tables, the synthetic library and Liberty-lite
   round-tripping. *)

let lib = Liberty.Synthetic.default ()

let sample_lut () =
  Liberty.Lut.make
    ~x_axis:[| 1.0; 2.0; 4.0 |]
    ~y_axis:[| 10.0; 20.0 |]
    ~values:[| 1.0; 2.0; 3.0; 5.0; 4.0; 9.0 |]

let test_lut_make_errors () =
  let expect name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect "empty axis" (fun () ->
    Liberty.Lut.make ~x_axis:[||] ~y_axis:[| 1.0 |] ~values:[||]);
  expect "non increasing" (fun () ->
    Liberty.Lut.make ~x_axis:[| 1.0; 1.0 |] ~y_axis:[| 1.0 |]
      ~values:[| 0.0; 0.0 |]);
  expect "values size" (fun () ->
    Liberty.Lut.make ~x_axis:[| 1.0; 2.0 |] ~y_axis:[| 1.0 |] ~values:[| 0.0 |])

let test_lut_grid_points () =
  let lut = sample_lut () in
  Alcotest.(check (float 1e-12)) "corner" 1.0 (Liberty.Lut.lookup lut 1.0 10.0);
  Alcotest.(check (float 1e-12)) "corner2" 9.0 (Liberty.Lut.lookup lut 4.0 20.0);
  Alcotest.(check (float 1e-12)) "mid row" 2.0 (Liberty.Lut.lookup lut 1.5 10.0);
  Alcotest.(check (float 1e-12)) "mid col" 1.5 (Liberty.Lut.lookup lut 1.0 15.0)

let test_lut_bilinear_center () =
  let lut = sample_lut () in
  (* center of the first cell: average of the four corners 1,2,3,5 *)
  Alcotest.(check (float 1e-12)) "cell center" 2.75
    (Liberty.Lut.lookup lut 1.5 15.0)

let test_lut_extrapolation () =
  let lut = sample_lut () in
  (* below x range: extend the first segment linearly *)
  let v0 = Liberty.Lut.lookup lut 1.0 10.0 in
  let v1 = Liberty.Lut.lookup lut 2.0 10.0 in
  let slope = v1 -. v0 in
  Alcotest.(check (float 1e-9)) "left extrapolation" (v0 -. slope)
    (Liberty.Lut.lookup lut 0.0 10.0);
  Alcotest.(check (float 1e-9)) "right extrapolation"
    (let va = Liberty.Lut.lookup lut 2.0 10.0
     and vb = Liberty.Lut.lookup lut 4.0 10.0 in
     vb +. (vb -. va))
    (Liberty.Lut.lookup lut 6.0 10.0)

let test_lut_constant () =
  (* a 1x1 table: every query returns the value with zero gradient *)
  let lut = Liberty.Lut.make ~x_axis:[| 0.0 |] ~y_axis:[| 0.0 |] ~values:[| 7.5 |] in
  Alcotest.(check (float 1e-12)) "value" 7.5 (Liberty.Lut.lookup lut 123.0 (-4.0));
  let _, dx, dy = Lut_oracle.lookup_with_gradient lut 3.0 3.0 in
  Alcotest.(check (float 1e-12)) "dx" 0.0 dx;
  Alcotest.(check (float 1e-12)) "dy" 0.0 dy

let prop_lut_gradient_matches_fd =
  QCheck2.Test.make ~name:"lut gradient = finite difference" ~count:300
    QCheck2.Gen.(pair (float_range 0.5 5.0) (float_range 5.0 25.0))
    (fun (x, y) ->
      let lut = sample_lut () in
      let q = Array.make 3 0.0 in
      Liberty.Lut.eval lut x y q 0;
      let v = q.(0) and dx = q.(1) and dy = q.(2) in
      let h = 1e-6 in
      let fdx =
        (Liberty.Lut.lookup lut (x +. h) y -. Liberty.Lut.lookup lut (x -. h) y)
        /. (2.0 *. h)
      in
      let fdy =
        (Liberty.Lut.lookup lut x (y +. h) -. Liberty.Lut.lookup lut x (y -. h))
        /. (2.0 *. h)
      in
      (* skip points that straddle a grid line where the gradient jumps *)
      let on_x_edge =
        Array.exists (fun g -> Float.abs (x -. g) < h *. 2.0) [| 1.0; 2.0; 4.0 |]
      in
      let on_y_edge =
        Array.exists (fun g -> Float.abs (y -. g) < h *. 2.0) [| 10.0; 20.0 |]
      in
      Float.is_finite v
      && (on_x_edge || Float.abs (dx -. fdx) < 1e-6)
      && (on_y_edge || Float.abs (dy -. fdy) < 1e-6))

(* Table pairs for the query-vs-oracle property: shared axes (the
   pair query's one search), load axes that differ (its two-search
   fallback), length-1 axes, and a synthetic delay/slew pair. *)
let oracle_pairs =
  let mk x y v = Liberty.Lut.make ~x_axis:x ~y_axis:y ~values:v in
  let x3 = [| 1.0; 2.0; 4.0 |] and y2 = [| 10.0; 20.0 |] in
  let one = [| 0.0 |] and x1 = [| 3.0 |] and y1 = [| 15.0 |] in
  let arc = (Option.get (Liberty.find_cell lib "NAND2_X1")).Liberty.lc_arcs.(1) in
  [| (mk x3 y2 [| 1.0; 2.0; 3.0; 5.0; 4.0; 9.0 |],
      mk x3 y2 [| 0.5; -1.0; 2.5; 7.0; 3.0; 3.25 |]);
     (mk x3 y2 [| 1.0; 2.0; 3.0; 5.0; 4.0; 9.0 |],
      mk x3 [| 5.0; 12.0; 30.0 |]
        [| 2.0; 4.0; 8.0; 3.0; 3.5; 9.0; 1.0; 6.0; 11.0 |]);
     (mk one one [| 7.5 |], mk one one [| -2.0 |]);
     (mk x1 y2 [| 1.0; 4.0 |], mk x1 y2 [| 6.0; 2.0 |]);
     (mk x3 y1 [| 1.0; 4.0; 2.0 |], mk x3 y1 [| 0.0; 1.0; 8.0 |]);
     (mk one y2 [| 1.0; 4.0 |], mk x3 y1 [| 0.0; 1.0; 8.0 |]);
     (arc.Liberty.cell_fall, arc.Liberty.fall_transition) |]

(* [Lut.lookup], [Lut.eval] and [Lut.eval_pair] (with and without the
   partials) equal the oracle bit for bit, at points inside and outside
   the axes and on grid lines. *)
let prop_queries_match_oracle =
  QCheck2.Test.make ~name:"lut queries = oracle bitwise" ~count:2000
    QCheck2.Gen.(
      quad (int_bound (Array.length oracle_pairs - 1))
        (float_range (-0.5) 1.5) (float_range (-0.5) 1.5) (int_bound 3))
    (fun (k, u, w, snap) ->
      let a, b = oracle_pairs.(k) in
      (* [f] in [-0.5, 1.5] spans the axis and half its width either
         side; [grid] moves the point onto the nearest axis value *)
      let coord axis f grid =
        let n = Array.length axis in
        let lo = axis.(0) and hi = axis.(n - 1) in
        let width = if n = 1 then 10.0 else hi -. lo in
        let c = lo +. (f *. width) in
        if not grid then c
        else
          Array.fold_left
            (fun best g ->
              if Float.abs (g -. c) < Float.abs (best -. c) then g else best)
            axis.(0) axis
      in
      let x = coord a.Liberty.Lut.x_axis u (snap land 1 <> 0) in
      let y = coord a.Liberty.Lut.y_axis w (snap land 2 <> 0) in
      let h = Printf.sprintf "%h" in
      let expect what want got =
        if h want <> h got then
          QCheck2.Test.fail_reportf "%s at (%h, %h): oracle %h, query %h" what
            x y want got
      in
      let va, dxa, dya = Lut_oracle.lookup_with_gradient a x y in
      let vb, dxb, dyb = Lut_oracle.lookup_with_gradient b x y in
      expect "lookup" va (Liberty.Lut.lookup a x y);
      let q = Array.make 7 Float.nan in
      Liberty.Lut.eval a x y q 1;
      List.iteri (fun i v -> expect "eval" v q.(1 + i)) [ va; dxa; dya ];
      Liberty.Lut.eval_pair ~grad:true a b x y q 1;
      List.iteri
        (fun i v -> expect "eval_pair ~grad:true" v q.(1 + i))
        [ va; dxa; dya; vb; dxb; dyb ];
      Liberty.Lut.eval_pair ~grad:false a b x y q 0;
      List.iteri (fun i v -> expect "eval_pair ~grad:false" v q.(i)) [ va; vb ];
      true)

let prop_synthetic_delay_monotone =
  QCheck2.Test.make ~name:"synthetic delay monotone in slew and load" ~count:200
    QCheck2.Gen.(
      quad (float_range 2.0 150.0) (float_range 0.5 30.0)
        (float_range 0.1 10.0) (float_range 0.1 2.0))
    (fun (slew, load, dslew, dload) ->
      let f = Liberty.Synthetic.delay_model ~drive_r:2.0 ~intrinsic:12.0
          ~slew_sensitivity:0.12 in
      f (slew +. dslew) load >= f slew load
      && f slew (load +. dload) >= f slew load)

let test_synthetic_structure () =
  Alcotest.(check int) "cell count" 18 (Array.length lib.Liberty.lib_cells);
  Alcotest.(check bool) "r_unit positive" true (lib.Liberty.r_unit > 0.0);
  let dff =
    match Liberty.find_cell lib "DFF_X1" with
    | Some c -> c
    | None -> Alcotest.fail "DFF_X1 missing"
  in
  Alcotest.(check bool) "dff sequential" true dff.Liberty.lc_is_sequential;
  Alcotest.(check int) "dff checks" 1 (Array.length dff.Liberty.lc_checks);
  Alcotest.(check bool) "dff clock pin" true dff.Liberty.lc_pins.(1).Liberty.lp_is_clock;
  let inv =
    match Liberty.find_cell lib "INV_X1" with
    | Some c -> c
    | None -> Alcotest.fail "INV_X1 missing"
  in
  Alcotest.(check bool) "inv negative unate" true
    (inv.Liberty.lc_arcs.(0).Liberty.sense = Liberty.Negative_unate);
  Alcotest.(check (list int)) "inv inputs" [ 0 ] (Liberty.input_pins inv);
  Alcotest.(check (list int)) "inv outputs" [ 1 ] (Liberty.output_pins inv);
  Alcotest.(check (option int)) "pin_index" (Some 0) (Liberty.pin_index inv "A");
  Alcotest.(check (option int)) "pin_index missing" None (Liberty.pin_index inv "Z");
  (* every comb cell has one arc per input *)
  Array.iter
    (fun c ->
      if not c.Liberty.lc_is_sequential then
        Alcotest.(check int)
          (c.Liberty.lc_name ^ " arcs")
          (List.length (Liberty.input_pins c))
          (Array.length c.Liberty.lc_arcs))
    lib.Liberty.lib_cells

let test_drive_strength_ordering () =
  (* stronger variants are faster at high load *)
  let delay name =
    match Liberty.find_cell lib name with
    | Some c ->
      Liberty.Lut.lookup c.Liberty.lc_arcs.(0).Liberty.cell_rise 20.0 16.0
    | None -> Alcotest.failf "%s missing" name
  in
  Alcotest.(check bool) "INV_X2 faster than INV_X1 at high load" true
    (delay "INV_X2" < delay "INV_X1");
  Alcotest.(check bool) "INV_X4 faster than INV_X2 at high load" true
    (delay "INV_X4" < delay "INV_X2")

let test_io_roundtrip () =
  let s = Liberty.Io.to_string lib in
  let lib2 = Liberty.Io.of_string s in
  Alcotest.(check string) "exact roundtrip" s (Liberty.Io.to_string lib2);
  Alcotest.(check string) "name" lib.Liberty.lib_name lib2.Liberty.lib_name

let test_io_errors () =
  let expect_fail name src =
    match Liberty.Io.of_string src with
    | exception Failure msg ->
      Alcotest.(check bool)
        (name ^ " mentions position")
        true
        (String.length msg > 0)
    | _ -> Alcotest.failf "%s: expected Failure" name
  in
  expect_fail "not a library" "cell \"x\" {}";
  expect_fail "unterminated string" "library \"x";
  expect_fail "unknown field" "library \"x\" { bogus 1; }";
  expect_fail "bad sense"
    "library \"x\" { cell \"c\" { pin \"A\" { direction input; } pin \"Y\" { \
     direction output; } arc \"A\" -> \"Y\" { sense sideways; } } }";
  expect_fail "unknown pin in arc"
    "library \"x\" { cell \"c\" { pin \"A\" { direction input; } arc \"A\" -> \
     \"Z\" { sense non_unate; } } }"

let test_io_minimal () =
  let src =
    "library \"m\" { r_unit 0.5; c_unit 0.1; default_slew 9;\n\
     # a comment\n\
     cell \"buf\" { area 2; width 1; height 2; sequential false;\n\
     pin \"A\" { direction input; capacitance 1.5; clock false; }\n\
     pin \"Y\" { direction output; capacitance 0; clock false; }\n\
     arc \"A\" -> \"Y\" { sense positive_unate\n\
     ; cell_rise { x 1 2; y 1 2; values 1 2 3 4; }\n\
     cell_fall { x 1 2; y 1 2; values 1 2 3 4; }\n\
     rise_transition { x 1 2; y 1 2; values 1 2 3 4; }\n\
     fall_transition { x 1 2; y 1 2; values 1 2 3 4; } } } }"
  in
  let l = Liberty.Io.of_string src in
  Alcotest.(check (float 1e-12)) "r_unit" 0.5 l.Liberty.r_unit;
  Alcotest.(check (float 1e-12)) "default_slew" 9.0 l.Liberty.default_slew;
  Alcotest.(check int) "one cell" 1 (Array.length l.Liberty.lib_cells);
  let c = l.Liberty.lib_cells.(0) in
  Alcotest.(check (float 1e-12)) "cap" 1.5 c.Liberty.lc_pins.(0).Liberty.lp_capacitance;
  Alcotest.(check bool) "positive" true
    (c.Liberty.lc_arcs.(0).Liberty.sense = Liberty.Positive_unate)

let suite =
  [ Alcotest.test_case "lut make errors" `Quick test_lut_make_errors;
    Alcotest.test_case "lut grid points" `Quick test_lut_grid_points;
    Alcotest.test_case "lut bilinear center" `Quick test_lut_bilinear_center;
    Alcotest.test_case "lut extrapolation" `Quick test_lut_extrapolation;
    Alcotest.test_case "lut constant" `Quick test_lut_constant;
    Alcotest.test_case "synthetic structure" `Quick test_synthetic_structure;
    Alcotest.test_case "drive strength ordering" `Quick test_drive_strength_ordering;
    Alcotest.test_case "io roundtrip" `Quick test_io_roundtrip;
    Alcotest.test_case "io errors" `Quick test_io_errors;
    Alcotest.test_case "io minimal library" `Quick test_io_minimal;
    QCheck_alcotest.to_alcotest prop_lut_gradient_matches_fd;
    QCheck_alcotest.to_alcotest prop_queries_match_oracle;
    QCheck_alcotest.to_alcotest prop_synthetic_delay_monotone ]

let test_lookup_continuous_at_grid () =
  (* bilinear interpolation is continuous across cell boundaries even
     though its gradient is not *)
  let lut = sample_lut () in
  let eps = 1e-9 in
  List.iter
    (fun x ->
      let below = Liberty.Lut.lookup lut (x -. eps) 14.0 in
      let above = Liberty.Lut.lookup lut (x +. eps) 14.0 in
      Alcotest.(check (float 1e-6)) "continuous in x" below above)
    [ 2.0 ];
  List.iter
    (fun y ->
      let below = Liberty.Lut.lookup lut 1.7 (y -. eps) in
      let above = Liberty.Lut.lookup lut 1.7 (y +. eps) in
      Alcotest.(check (float 1e-6)) "continuous in y" below above)
    [ 10.0; 20.0 ]

let suite =
  suite
  @ [ Alcotest.test_case "lookup continuous at grid lines" `Quick
        test_lookup_continuous_at_grid ]
