(* Failure injection and degenerate inputs across the whole stack: the
   engines must stay well-defined on designs a user can plausibly feed
   them. *)

let lib = Liberty.Synthetic.default ()
let region = Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:60.0 ~hy:60.0

let lib_cell name =
  match Liberty.cell_index lib name with
  | Some i -> i
  | None -> Alcotest.failf "missing %s" name

let instance b name kind =
  let lc = lib.Liberty.lib_cells.(kind) in
  let cell =
    Netlist.Builder.add_cell b ~name ~lib_cell:kind ~width:lc.Liberty.lc_width
      ~height:lc.Liberty.lc_height ~x:30.0 ~y:30.0 ()
  in
  Array.mapi
    (fun j (lp : Liberty.lib_pin) ->
      Netlist.Builder.add_pin b ~cell
        ~name:(Printf.sprintf "%s/%s" name lp.Liberty.lp_name)
        ~direction:
          (match lp.Liberty.lp_direction with
           | Liberty.Lib_input -> Netlist.Input
           | Liberty.Lib_output -> Netlist.Output)
        ~lib_pin:j ())
    lc.Liberty.lc_pins

(* A design with logic but no constrained endpoint: one inverter whose
   output dangles and whose input dangles. *)
let test_no_endpoints () =
  let b = Netlist.Builder.create ~region "dangling" in
  let _ = instance b "u0" (lib_cell "INV_X1") in
  let d = Netlist.Builder.freeze b in
  let g = Sta.Graph.build d lib Sta.Constraints.default in
  let report = Sta.Timer.run (Sta.Timer.create g) in
  Alcotest.(check (float 1e-12)) "wns zero" 0.0 report.Sta.Timer.setup_wns;
  Alcotest.(check (float 1e-12)) "tns zero" 0.0 report.Sta.Timer.setup_tns;
  Alcotest.(check int) "no endpoints" 0
    (List.length report.Sta.Timer.endpoint_slacks);
  (* the differentiable engine agrees and produces zero gradients *)
  let dt = Difftimer.create g in
  let m = Difftimer.forward dt in
  Alcotest.(check int) "diff no endpoints" 0 m.Difftimer.endpoint_count;
  let gx = Array.make (Netlist.num_cells d) 0.0 in
  let gy = Array.make (Netlist.num_cells d) 0.0 in
  Difftimer.backward dt ~w_tns:1.0 ~w_wns:1.0 ~grad_x:gx ~grad_y:gy;
  Array.iter (fun v -> Alcotest.(check (float 1e-12)) "zero grad" 0.0 v) gx;
  (* critical path on an endpoint-less design is empty *)
  let timer = Sta.Timer.create g in
  let _ = Sta.Timer.run timer in
  Alcotest.(check int) "no path" 0 (List.length (Test_sta.critical_path timer))

let test_all_cells_fixed () =
  let b = Netlist.Builder.create ~region "frozen" in
  let c0 =
    Netlist.Builder.add_cell b ~name:"p0" ~lib_cell:(-1) ~width:2.0
      ~height:2.0 ~x:0.0 ~y:30.0 ~fixed:true ()
  in
  let p0 =
    Netlist.Builder.add_pin b ~cell:c0 ~name:"p0/P" ~direction:Netlist.Output ()
  in
  let c1 =
    Netlist.Builder.add_cell b ~name:"p1" ~lib_cell:(-1) ~width:2.0
      ~height:2.0 ~x:60.0 ~y:30.0 ~fixed:true ()
  in
  let p1 =
    Netlist.Builder.add_pin b ~cell:c1 ~name:"p1/P" ~direction:Netlist.Input ()
  in
  let _ = Netlist.Builder.add_net b ~name:"n" ~pins:[ p0; p1 ] in
  let d = Netlist.Builder.freeze b in
  let g = Sta.Graph.build d lib Sta.Constraints.default in
  (* nothing to place, but nothing crashes either *)
  let cfg = { Core.default_config with Core.max_iterations = 5; min_iterations = 0 } in
  let r = Core.run cfg g in
  Alcotest.(check bool) "ran" true (r.Core.res_iterations >= 1);
  Alcotest.(check (float 1e-9)) "pads untouched" 0.0 d.Netlist.cells.(0).Netlist.x;
  let lg = Legalize.legalize d in
  Alcotest.(check int) "nothing moved" 0 lg.Legalize.moved_cells

let test_single_movable_cell () =
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 1; sp_inputs = 2; sp_outputs = 2; sp_depth = 2 }
  in
  let design, cons = Workload.generate lib spec in
  let g = Sta.Graph.build design lib cons in
  let cfg =
    { Core.default_config with
      Core.mode = Core.Differentiable_timing Core.default_timing;
      max_iterations = 30; min_iterations = 0; stop_overflow = 1.0 }
  in
  let r = Core.run cfg g in
  Alcotest.(check bool) "finished" true (r.Core.res_iterations >= 1);
  let report, _ = Core.score g in
  Alcotest.(check bool) "finite" true (Float.is_finite report.Sta.Timer.setup_wns)

let test_coincident_cells_wirelength () =
  (* all pins at the same point: the WA model must stay finite *)
  let b = Netlist.Builder.create ~region "stack" in
  let mk i =
    let c = Netlist.Builder.add_cell b ~name:(Printf.sprintf "c%d" i)
        ~lib_cell:0 ~width:1.0 ~height:1.0 ~x:30.0 ~y:30.0 () in
    Netlist.Builder.add_pin b ~cell:c ~name:(Printf.sprintf "c%d/P" i)
      ~direction:(if i = 0 then Netlist.Output else Netlist.Input) ()
  in
  let pins = List.init 5 mk in
  let _ = Netlist.Builder.add_net b ~name:"n" ~pins in
  let d = Netlist.Builder.freeze b in
  let wl = Wirelength.create ~gamma:1.0 d in
  let gx = Array.make 5 0.0 and gy = Array.make 5 0.0 in
  let v = Wirelength.evaluate wl ~grad_x:gx ~grad_y:gy () in
  Alcotest.(check bool) "finite value" true (Float.is_finite v);
  Array.iter
    (fun g -> Alcotest.(check bool) "finite grad" true (Float.is_finite g))
    gx

let test_zero_length_net_timing () =
  (* driver and sink at the same location: zero wire delay, no NaNs *)
  let b = Netlist.Builder.create ~region "zl" in
  let pad =
    Netlist.Builder.add_cell b ~name:"pi" ~lib_cell:(-1) ~width:2.0
      ~height:2.0 ~x:30.0 ~y:30.0 ~fixed:true ()
  in
  let pp =
    Netlist.Builder.add_pin b ~cell:pad ~name:"pi/P" ~direction:Netlist.Output ()
  in
  let pins = instance b "u0" (lib_cell "BUF_X1") in
  let po =
    Netlist.Builder.add_cell b ~name:"po" ~lib_cell:(-1) ~width:2.0
      ~height:2.0 ~x:30.0 ~y:30.0 ~fixed:true ()
  in
  let pop =
    Netlist.Builder.add_pin b ~cell:po ~name:"po/P" ~direction:Netlist.Input ()
  in
  let _ = Netlist.Builder.add_net b ~name:"n1" ~pins:[ pp; pins.(0) ] in
  let _ = Netlist.Builder.add_net b ~name:"n2" ~pins:[ pins.(1); pop ] in
  let d = Netlist.Builder.freeze b in
  (* note: pad and cell are coincident by construction *)
  (match Netlist.cell_by_name d "u0" with
   | Some c -> c.Netlist.x <- 30.0; c.Netlist.y <- 30.0
   | None -> Alcotest.fail "u0");
  let g = Sta.Graph.build d lib Sta.Constraints.default in
  let report = Sta.Timer.run (Sta.Timer.create g) in
  Alcotest.(check bool) "finite wns" true (Float.is_finite report.Sta.Timer.setup_wns);
  let dt = Difftimer.create g in
  let m = Difftimer.forward dt in
  Alcotest.(check bool) "diff finite" true (Float.is_finite m.Difftimer.wns_smooth);
  let gx = Array.make (Netlist.num_cells d) 0.0 in
  let gy = Array.make (Netlist.num_cells d) 0.0 in
  Difftimer.backward dt ~w_tns:1.0 ~w_wns:1.0 ~grad_x:gx ~grad_y:gy;
  Array.iter
    (fun v -> Alcotest.(check bool) "grad finite" true (Float.is_finite v))
    gx

let test_bookshelf_fuzz_never_crashes () =
  (* random mutations of a valid file must either parse or raise
     Failure/Invalid_argument, never anything else *)
  let design, cons =
    Workload.generate lib { Workload.default_spec with Workload.sp_cells = 40 }
  in
  let src = Bookshelf.to_string design cons in
  let rng = Workload.Rng.create 99 in
  for _ = 1 to 200 do
    let b = Bytes.of_string src in
    for _ = 0 to 4 do
      let i = Workload.Rng.int rng (Bytes.length b) in
      Bytes.set b i (Char.chr (32 + Workload.Rng.int rng 95))
    done;
    match Bookshelf.of_string lib (Bytes.to_string b) with
    | _ -> ()
    | exception Failure _ -> ()
    | exception Invalid_argument _ -> ()
  done

let test_verilog_fuzz_never_crashes () =
  (* the same contract for structural Verilog *)
  let design, _ =
    Workload.generate lib { Workload.default_spec with Workload.sp_cells = 40 }
  in
  let src = Verilog.export design lib in
  let rng = Workload.Rng.create 77 in
  for _ = 1 to 200 do
    let b = Bytes.of_string src in
    for _ = 0 to 4 do
      let i = Workload.Rng.int rng (Bytes.length b) in
      Bytes.set b i (Char.chr (32 + Workload.Rng.int rng 95))
    done;
    match Verilog.import lib (Bytes.to_string b) with
    | _ -> ()
    | exception Failure _ -> ()
    | exception Invalid_argument _ -> ()
  done

let test_liberty_fuzz_never_crashes () =
  let src = Liberty.Io.to_string lib in
  let rng = Workload.Rng.create 123 in
  for _ = 1 to 100 do
    let start = Workload.Rng.int rng (String.length src - 600) in
    let truncated = String.sub src 0 (start + 600) in
    match Liberty.Io.of_string truncated with
    | _ -> ()
    | exception Failure _ -> ()
    | exception Invalid_argument _ -> ()
  done

let test_empty_design_stats () =
  let b = Netlist.Builder.create ~region "empty" in
  let d = Netlist.Builder.freeze b in
  let s = Netlist.Stats.compute d in
  Alcotest.(check int) "no cells" 0 s.Netlist.Stats.cells;
  Alcotest.(check (float 1e-12)) "hpwl" 0.0 (Netlist.total_hpwl d);
  let g = Sta.Graph.build d lib Sta.Constraints.default in
  let report = Sta.Timer.run (Sta.Timer.create g) in
  Alcotest.(check (float 1e-12)) "empty wns" 0.0 report.Sta.Timer.setup_wns

let suite =
  [ Alcotest.test_case "no endpoints" `Quick test_no_endpoints;
    Alcotest.test_case "all cells fixed" `Quick test_all_cells_fixed;
    Alcotest.test_case "single movable cell" `Quick test_single_movable_cell;
    Alcotest.test_case "coincident cells wirelength" `Quick
      test_coincident_cells_wirelength;
    Alcotest.test_case "zero-length net timing" `Quick test_zero_length_net_timing;
    Alcotest.test_case "bookshelf fuzz" `Quick test_bookshelf_fuzz_never_crashes;
    Alcotest.test_case "verilog fuzz" `Quick test_verilog_fuzz_never_crashes;
    Alcotest.test_case "liberty fuzz" `Quick test_liberty_fuzz_never_crashes;
    Alcotest.test_case "empty design" `Quick test_empty_design_stats ]
