(* Tests for the differentiable STA engine: LSE smoothing behaviour,
   agreement with the exact timer, and gradient exactness. *)

let lib = Liberty.Synthetic.default ()

let small_design ?(cells = 150) ?(period = 520.0) seed =
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = cells; sp_seed = seed; sp_inputs = 8;
      sp_outputs = 8; sp_depth = 6; sp_clock_period = period }
  in
  let design, cons = Workload.generate lib spec in
  (design, Sta.Graph.build design lib cons)

let test_softmin0 () =
  Alcotest.(check (float 1e-9)) "very positive" 0.0
    (Difftimer.softmin0 ~gamma:10.0 1e6);
  Alcotest.(check (float 1e-6)) "very negative" (-500.0)
    (Difftimer.softmin0 ~gamma:10.0 (-500.0));
  let v = Difftimer.softmin0 ~gamma:10.0 0.0 in
  Alcotest.(check (float 1e-9)) "at zero" (-10.0 *. log 2.0) v;
  (* always below both 0 and s *)
  List.iter
    (fun s ->
      let v = Difftimer.softmin0 ~gamma:5.0 s in
      Alcotest.(check bool) "below min" true (v <= Float.min 0.0 s +. 1e-9))
    [ -20.0; -1.0; 0.0; 1.0; 20.0 ]

let test_smoothed_at_bounds_exact () =
  (* with identical Steiner trees, the smoothed AT upper-bounds the exact
     AT, and converges to it as gamma shrinks *)
  let _, graph = small_design 42 in
  let timer = Sta.Timer.create graph in
  let _ = Sta.Timer.run timer in
  let dt = Difftimer.create ~gamma:20.0 graph in
  Sta.Nets.rebuild (Difftimer.nets dt);
  let _ = Difftimer.forward dt in
  let npins = Netlist.num_pins graph.Sta.Graph.design in
  for p = 0 to npins - 1 do
    let exact = Sta.Timer.at_late timer p Sta.Rise in
    let smooth = Difftimer.at dt p Sta.Rise in
    if exact > neg_infinity && smooth < exact -. 1e-6 then
      Alcotest.failf "smoothed AT below exact at pin %d: %f < %f" p smooth exact
  done;
  (* shrink gamma: smoothed metrics approach the exact ones *)
  let dt = Difftimer.create ~gamma:0.5 graph in
  Sta.Nets.rebuild (Difftimer.nets dt);
  let m = Difftimer.forward dt in
  let exact_report = Sta.Timer.run ~rebuild_trees:false timer in
  let rel a b = Float.abs (a -. b) /. Float.max 1.0 (Float.abs b) in
  Alcotest.(check bool) "wns converges" true
    (rel m.Difftimer.wns exact_report.Sta.Timer.setup_wns < 0.05);
  Alcotest.(check bool) "tns converges" true
    (rel m.Difftimer.tns exact_report.Sta.Timer.setup_tns < 0.05)

let test_metrics_relations () =
  let _, graph = small_design 7 in
  let dt = Difftimer.create ~gamma:25.0 graph in
  Sta.Nets.rebuild (Difftimer.nets dt);
  let m = Difftimer.forward dt in
  Alcotest.(check bool) "tns <= 0" true (m.Difftimer.tns <= 0.0);
  Alcotest.(check bool) "tns <= wns" true (m.Difftimer.tns <= m.Difftimer.wns);
  Alcotest.(check bool) "smooth wns <= hard wns" true
    (m.Difftimer.wns_smooth <= m.Difftimer.wns +. 1e-9);
  Alcotest.(check bool) "endpoints found" true (m.Difftimer.endpoint_count > 0)

let test_endpoint_slack_access () =
  let design, graph = small_design 9 in
  let dt = Difftimer.create graph in
  Sta.Nets.rebuild (Difftimer.nets dt);
  let _ = Difftimer.forward dt in
  (* endpoints have finite slack, internal pins are infinity *)
  Array.iter
    (fun p ->
      Alcotest.(check bool) "endpoint finite" true
        (Difftimer.endpoint_slack dt p < infinity))
    graph.Sta.Graph.endpoints;
  let internal =
    Array.to_seq design.Netlist.pins
    |> Seq.filter (fun (pin : Netlist.pin) ->
      not graph.Sta.Graph.is_endpoint.(pin.Netlist.pin_id))
    |> Seq.uncons
  in
  match internal with
  | Some (pin, _) ->
    Alcotest.(check bool) "internal infinite" true
      (Difftimer.endpoint_slack dt pin.Netlist.pin_id = infinity)
  | None -> Alcotest.fail "no internal pin"

let test_gradient_matches_fd () =
  let design, graph = small_design 3 in
  let dt = Difftimer.create ~gamma:30.0 graph in
  let nets = Difftimer.nets dt in
  let w_tns = 0.6 and w_wns = 0.3 in
  let objective () =
    Sta.Nets.refresh nets;
    let m = Difftimer.forward dt in
    (w_tns *. -.m.Difftimer.tns_smooth) +. (w_wns *. -.m.Difftimer.wns_smooth)
  in
  ignore (objective ());
  let ncells = Netlist.num_cells design in
  let gx = Array.make ncells 0.0 and gy = Array.make ncells 0.0 in
  Difftimer.backward dt ~w_tns ~w_wns ~grad_x:gx ~grad_y:gy;
  let rng = Workload.Rng.create 55 in
  let h = 1e-4 in
  for _ = 1 to 25 do
    let c = design.Netlist.cells.(Workload.Rng.int rng ncells) in
    if not c.Netlist.fixed then begin
      let y0 = c.Netlist.y in
      c.Netlist.y <- y0 +. h;
      let fp = objective () in
      c.Netlist.y <- y0 -. h;
      let fm = objective () in
      c.Netlist.y <- y0;
      let fd = (fp -. fm) /. (2.0 *. h) in
      let analytic = gy.(c.Netlist.cell_id) in
      if Float.abs (fd -. analytic) > 1e-4 *. Float.max 1.0 (Float.abs fd) then
        Alcotest.failf "gradient mismatch on %s: %g vs fd %g"
          c.Netlist.cell_name analytic fd
    end
  done

let test_backward_accumulates () =
  let design, graph = small_design 5 in
  let dt = Difftimer.create graph in
  Sta.Nets.rebuild (Difftimer.nets dt);
  let _ = Difftimer.forward dt in
  let ncells = Netlist.num_cells design in
  let gx = Array.make ncells 0.0 and gy = Array.make ncells 0.0 in
  Difftimer.backward dt ~w_tns:1.0 ~w_wns:0.0 ~grad_x:gx ~grad_y:gy;
  let snapshot = Array.copy gx in
  Difftimer.backward dt ~w_tns:1.0 ~w_wns:0.0 ~grad_x:gx ~grad_y:gy;
  Array.iteri
    (fun i v ->
      if Float.abs (v -. (2.0 *. snapshot.(i))) > 1e-9 *. Float.max 1.0 (Float.abs v)
      then Alcotest.fail "backward does not accumulate linearly")
    gx

let test_backward_linear_in_weights () =
  let design, graph = small_design 6 in
  let dt = Difftimer.create graph in
  Sta.Nets.rebuild (Difftimer.nets dt);
  let _ = Difftimer.forward dt in
  let ncells = Netlist.num_cells design in
  let g1x = Array.make ncells 0.0 and g1y = Array.make ncells 0.0 in
  Difftimer.backward dt ~w_tns:0.25 ~w_wns:0.0 ~grad_x:g1x ~grad_y:g1y;
  let g2x = Array.make ncells 0.0 and g2y = Array.make ncells 0.0 in
  Difftimer.backward dt ~w_tns:0.5 ~w_wns:0.0 ~grad_x:g2x ~grad_y:g2y;
  Array.iteri
    (fun i v ->
      if Float.abs ((2.0 *. g1x.(i)) -. v) > 1e-9 *. Float.max 1.0 (Float.abs v)
      then Alcotest.fail "backward not linear in w_tns")
    g2x

let test_parallel_forward_matches_sequential () =
  let _, graph = small_design ~cells:600 11 in
  let dt = Difftimer.create graph in
  Sta.Nets.rebuild (Difftimer.nets dt);
  let m_seq = Difftimer.forward dt in
  let pool = Parallel.create ~domains:4 () in
  let m_par =
    Fun.protect
      ~finally:(fun () -> Parallel.shutdown pool)
      (fun () -> Difftimer.forward ~pool dt)
  in
  Alcotest.(check (float 1e-9)) "wns" m_seq.Difftimer.wns m_par.Difftimer.wns;
  Alcotest.(check (float 1e-9)) "tns" m_seq.Difftimer.tns m_par.Difftimer.tns;
  Alcotest.(check (float 1e-9)) "tns smooth" m_seq.Difftimer.tns_smooth
    m_par.Difftimer.tns_smooth

let test_tree_reuse_approximation () =
  (* refreshing coordinates through provenance must agree with a full
     rebuild when cells have not moved *)
  let _, graph = small_design 13 in
  let dt = Difftimer.create graph in
  let nets = Difftimer.nets dt in
  Sta.Nets.rebuild nets;
  let m1 = Difftimer.forward dt in
  Sta.Nets.refresh nets;
  let m2 = Difftimer.forward dt in
  Alcotest.(check (float 1e-9)) "tns stable" m1.Difftimer.tns_smooth
    m2.Difftimer.tns_smooth

let suite =
  [ Alcotest.test_case "softmin0" `Quick test_softmin0;
    Alcotest.test_case "smoothed AT bounds exact AT" `Quick
      test_smoothed_at_bounds_exact;
    Alcotest.test_case "metric relations" `Quick test_metrics_relations;
    Alcotest.test_case "endpoint slack access" `Quick test_endpoint_slack_access;
    Alcotest.test_case "gradient matches finite differences" `Quick
      test_gradient_matches_fd;
    Alcotest.test_case "backward accumulates" `Quick test_backward_accumulates;
    Alcotest.test_case "backward linear in weights" `Quick
      test_backward_linear_in_weights;
    Alcotest.test_case "parallel forward = sequential" `Quick
      test_parallel_forward_matches_sequential;
    Alcotest.test_case "tree refresh stable when static" `Quick
      test_tree_reuse_approximation ]

(* On a single-fan-in chain every LSE has exactly one contribution, so
   the smoothed engine must equal the exact engine bit-for-bit. *)
let test_chain_smoothed_equals_exact () =
  let region = Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:120.0 ~hy:40.0 in
  let b = Netlist.Builder.create ~region "chain" in
  let inv_kind =
    match Liberty.cell_index lib "INV_X1" with
    | Some k -> k
    | None -> Alcotest.fail "INV_X1"
  in
  let pad name x direction =
    let cell =
      Netlist.Builder.add_cell b ~name ~lib_cell:(-1) ~width:2.0 ~height:2.0
        ~x ~y:20.0 ~fixed:true ()
    in
    Netlist.Builder.add_pin b ~cell ~name:(name ^ "/P") ~direction ()
  in
  let pi = pad "pi" 0.0 Netlist.Output in
  let po = pad "po" 120.0 Netlist.Input in
  let prev = ref pi in
  for i = 0 to 4 do
    let lc = lib.Liberty.lib_cells.(inv_kind) in
    let cell =
      Netlist.Builder.add_cell b
        ~name:(Printf.sprintf "i%d" i)
        ~lib_cell:inv_kind ~width:lc.Liberty.lc_width
        ~height:lc.Liberty.lc_height
        ~x:(20.0 +. (16.0 *. float_of_int i))
        ~y:20.0 ()
    in
    let a =
      Netlist.Builder.add_pin b ~cell ~name:(Printf.sprintf "i%d/A" i)
        ~direction:Netlist.Input ~lib_pin:0 ()
    in
    let y =
      Netlist.Builder.add_pin b ~cell ~name:(Printf.sprintf "i%d/Y" i)
        ~direction:Netlist.Output ~lib_pin:1 ()
    in
    let _ =
      Netlist.Builder.add_net b ~name:(Printf.sprintf "n%d" i)
        ~pins:[ !prev; a ]
    in
    prev := y
  done;
  let _ = Netlist.Builder.add_net b ~name:"n_out" ~pins:[ !prev; po ] in
  let design = Netlist.Builder.freeze b in
  let graph = Sta.Graph.build design lib Sta.Constraints.default in
  let timer = Sta.Timer.create graph in
  let _ = Sta.Timer.run timer in
  let dt = Difftimer.create ~gamma:50.0 graph in
  Sta.Nets.rebuild (Difftimer.nets dt);
  let m = Difftimer.forward dt in
  for p = 0 to Netlist.num_pins design - 1 do
    List.iter
      (fun tr ->
        let e = Sta.Timer.at_late timer p tr and s = Difftimer.at dt p tr in
        if e > neg_infinity then begin
          Alcotest.(check (float 1e-9)) "at equal" e s;
          Alcotest.(check (float 1e-9)) "slew equal"
            (Sta.Timer.slew_late timer p tr)
            (Difftimer.slew dt p tr)
        end)
      [ Sta.Rise; Sta.Fall ]
  done;
  let exact = Sta.Timer.run ~rebuild_trees:false timer in
  Alcotest.(check (float 1e-9)) "wns equal" exact.Sta.Timer.setup_wns
    m.Difftimer.wns

(* mid-size finite-difference check: exercises multi-fan-in LSE paths,
   the forward LUT tape and the gather backward on a design big enough
   to have deep shared logic cones *)
let test_gradient_matches_fd_midsize () =
  let design, graph = small_design ~cells:600 ~period:480.0 21 in
  let dt = Difftimer.create ~gamma:20.0 graph in
  let nets = Difftimer.nets dt in
  let w_tns = 1.0 and w_wns = 0.5 in
  let objective () =
    Sta.Nets.refresh nets;
    let m = Difftimer.forward dt in
    (w_tns *. -.m.Difftimer.tns_smooth) +. (w_wns *. -.m.Difftimer.wns_smooth)
  in
  ignore (objective ());
  let ncells = Netlist.num_cells design in
  let gx = Array.make ncells 0.0 and gy = Array.make ncells 0.0 in
  Difftimer.backward dt ~w_tns ~w_wns ~grad_x:gx ~grad_y:gy;
  let rng = Workload.Rng.create 77 in
  let h = 1e-4 in
  for _ = 1 to 20 do
    let c = design.Netlist.cells.(Workload.Rng.int rng ncells) in
    if not c.Netlist.fixed then begin
      let x0 = c.Netlist.x in
      c.Netlist.x <- x0 +. h;
      let fp = objective () in
      c.Netlist.x <- x0 -. h;
      let fm = objective () in
      c.Netlist.x <- x0;
      let fd = (fp -. fm) /. (2.0 *. h) in
      let analytic = gx.(c.Netlist.cell_id) in
      if Float.abs (fd -. analytic) > 1e-4 *. Float.max 1.0 (Float.abs fd)
      then
        Alcotest.failf "mid-size gradient mismatch on %s: %g vs fd %g"
          c.Netlist.cell_name analytic fd
    end
  done

(* the gather backward makes the reverse sweep deterministic; only the
   per-net slice merge can reassociate, so pooled gradients must match
   the sequential ones to ~1 ulp *)
let test_parallel_backward_matches_sequential () =
  let design, graph = small_design ~cells:600 ~period:480.0 31 in
  let dt = Difftimer.create ~gamma:20.0 graph in
  Sta.Nets.rebuild (Difftimer.nets dt);
  let _ = Difftimer.forward dt in
  let ncells = Netlist.num_cells design in
  let run ?pool () =
    let gx = Array.make ncells 0.0 and gy = Array.make ncells 0.0 in
    Difftimer.backward ?pool dt ~w_tns:0.8 ~w_wns:0.4 ~grad_x:gx ~grad_y:gy;
    (gx, gy)
  in
  let gx_seq, gy_seq = run () in
  let nonzero = Array.exists (fun v -> v <> 0.0) gx_seq in
  Alcotest.(check bool) "sequential gradient nonzero" true nonzero;
  List.iter
    (fun domains ->
      let pool = Parallel.create ~domains () in
      let gx_par, gy_par =
        Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (run ~pool)
      in
      let close a b =
        Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)
      in
      for c = 0 to ncells - 1 do
        if not (close gx_seq.(c) gx_par.(c)) then
          Alcotest.failf "%d-domain grad_x mismatch at cell %d: %.17g vs %.17g"
            domains c gx_seq.(c) gx_par.(c);
        if not (close gy_seq.(c) gy_par.(c)) then
          Alcotest.failf "%d-domain grad_y mismatch at cell %d: %.17g vs %.17g"
            domains c gy_seq.(c) gy_par.(c)
      done)
    [ 2; 4 ]

let suite =
  suite
  @ [ Alcotest.test_case "chain: smoothed = exact (single fan-in)" `Quick
        test_chain_smoothed_equals_exact;
      Alcotest.test_case "gradient matches FD (mid-size)" `Quick
        test_gradient_matches_fd_midsize;
      Alcotest.test_case "parallel backward = sequential" `Quick
        test_parallel_backward_matches_sequential ]
