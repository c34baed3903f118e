(* Tests for the momentum net-weighting engine: the [24] baseline
   (net-slack criticality) and path weighting (top-K path criticality). *)

let lib = Liberty.Synthetic.default ()

let setup ?(cells = 300) () =
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = cells; sp_clock_period = 700.0 }
  in
  let design, cons = Workload.generate lib spec in
  let graph = Sta.Graph.build design lib cons in
  (design, graph)

let test_initial_weights_one () =
  let design, graph = setup () in
  let nw = Netweight.create graph in
  ignore nw;
  Array.iter
    (fun (net : Netlist.net) ->
      Alcotest.(check (float 1e-12)) "weight 1" 1.0 net.Netlist.weight)
    design.Netlist.nets

let test_update_increases_critical_only () =
  let design, graph = setup () in
  let nw = Netweight.create graph in
  let report = Netweight.update nw in
  Alcotest.(check bool) "violations exist" true
    (report.Sta.Timer.setup_wns < 0.0);
  let timer = Netweight.timer nw in
  let raised = ref 0 in
  Array.iter
    (fun (net : Netlist.net) ->
      let slack = Sta.Timer.net_slack timer net.Netlist.net_id in
      if net.Netlist.weight > 1.0 +. 1e-12 then begin
        incr raised;
        if slack >= 0.0 then
          Alcotest.failf "non-critical net %s got weight %f"
            net.Netlist.net_name net.Netlist.weight
      end)
    design.Netlist.nets;
  Alcotest.(check bool) "some nets weighted" true (!raised > 0)

let test_weights_monotone_and_capped () =
  let design, graph = setup () in
  let config = { Netweight.default_config with Netweight.max_weight = 1.5 } in
  let nw = Netweight.create ~config graph in
  let previous = Array.map (fun (n : Netlist.net) -> n.Netlist.weight)
      design.Netlist.nets in
  for _ = 1 to 10 do
    let _ = Netweight.update nw in
    Array.iteri
      (fun i (net : Netlist.net) ->
        if net.Netlist.weight < previous.(i) -. 1e-12 then
          Alcotest.fail "weight decreased";
        if net.Netlist.weight > 1.5 +. 1e-12 then
          Alcotest.fail "weight exceeded cap";
        previous.(i) <- net.Netlist.weight)
      design.Netlist.nets
  done

let test_momentum_smooths () =
  (* with beta = 1 the momentum never reacts, so weights stay at 1 *)
  let design, graph = setup () in
  let config = { Netweight.default_config with Netweight.beta = 1.0 } in
  let nw = Netweight.create ~config graph in
  let _ = Netweight.update nw in
  Array.iter
    (fun (net : Netlist.net) ->
      Alcotest.(check (float 1e-12)) "frozen momentum" 1.0 net.Netlist.weight)
    design.Netlist.nets

let test_should_update_period () =
  let _, graph = setup ~cells:100 () in
  let config = { Netweight.default_config with Netweight.period = 4 } in
  let nw = Netweight.create ~config graph in
  Alcotest.(check bool) "iter 0" true (Netweight.should_update nw 0);
  Alcotest.(check bool) "iter 1" false (Netweight.should_update nw 1);
  Alcotest.(check bool) "iter 4" true (Netweight.should_update nw 4)

let test_pathweight_engine_updates_weights () =
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 300; sp_clock_period = 700.0 }
  in
  let spec = { spec with Workload.sp_seed = 2 } in
  let design, cons = Workload.generate lib spec in
  let graph = Sta.Graph.build design lib cons in
  let pw = Netweight.create ~config:Netweight.path_config graph in
  let report = Netweight.update pw in
  Alcotest.(check bool) "violations exist" true
    (report.Sta.Timer.setup_wns < 0.0);
  let raised =
    Array.fold_left
      (fun acc (n : Netlist.net) ->
        if n.Netlist.weight > 1.0 +. 1e-12 then acc + 1 else acc)
      0 design.Netlist.nets
  in
  Alcotest.(check bool) "some nets weighted" true (raised > 0);
  (* on a static placement criticality is stationary, so weights
     converge monotonically upward (and stay capped) even though the
     update rule can relax weights when criticality drops — the decay
     path is covered by test_pathweight_weight_decays *)
  let previous =
    Array.map (fun (n : Netlist.net) -> n.Netlist.weight) design.Netlist.nets
  in
  for _ = 1 to 6 do
    let _ = Netweight.update pw in
    Array.iteri
      (fun i (n : Netlist.net) ->
        if n.Netlist.weight < previous.(i) -. 1e-12 then
          Alcotest.fail "weight decreased";
        if n.Netlist.weight
           > Netweight.path_config.Netweight.max_weight +. 1e-12
        then Alcotest.fail "weight exceeded cap";
        previous.(i) <- n.Netlist.weight)
      design.Netlist.nets
  done

(* Four updates on the spread initial placement escalate some net; then
   every movable cell collapses to the region center, the design meets
   timing, and twelve more updates run with every net off the violating
   paths.  Returns the escalated net's weight before and after. *)
let collapse_scenario config =
  (* the period sits between the collapsed design's pure-cell-delay
     critical path (~930ps) and the spread initial placement's
     wire-dominated one, so the same design flips from violating to
     clean when the cells collapse *)
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 300; sp_seed = 2; sp_clock_period = 1000.0 }
  in
  let design, cons = Workload.generate lib spec in
  let graph = Sta.Graph.build design lib cons in
  let pw = Netweight.create ~config graph in
  for _ = 1 to 4 do
    ignore (Netweight.update pw)
  done;
  let heavy = ref (-1) and wmax = ref 1.0 in
  Array.iter
    (fun (n : Netlist.net) ->
      if n.Netlist.weight > !wmax then begin
        wmax := n.Netlist.weight;
        heavy := n.Netlist.net_id
      end)
    design.Netlist.nets;
  Alcotest.(check bool) "some net escalated" true
    (!heavy >= 0 && !wmax > 1.0 +. 1e-9);
  let r = design.Netlist.region in
  let cx = 0.5 *. (r.Geometry.Rect.lx +. r.Geometry.Rect.hx) in
  let cy = 0.5 *. (r.Geometry.Rect.ly +. r.Geometry.Rect.hy) in
  Array.iter
    (fun (c : Netlist.cell) ->
      if not c.Netlist.fixed then begin
        c.Netlist.x <- cx;
        c.Netlist.y <- cy
      end)
    design.Netlist.cells;
  let report = ref (Netweight.update pw) in
  for _ = 1 to 11 do
    report := Netweight.update pw
  done;
  if !report.Sta.Timer.setup_wns < 0.0 then
    Alcotest.failf "timing not clean after collapse: wns %g"
      !report.Sta.Timer.setup_wns;
  (!wmax, design.Netlist.nets.(!heavy).Netlist.weight)

(* path weighting does not ratchet: a transiently critical net's weight
   comes back down once it leaves every violating path, because the
   excess over 1 decays as momentum fades *)
let test_pathweight_weight_decays () =
  let wmax, w_end = collapse_scenario Netweight.path_config in
  Alcotest.(check bool) "weight came back down" true
    (w_end -. 1.0 < 0.35 *. (wmax -. 1.0));
  Alcotest.(check bool) "weight stays >= 1" true (w_end >= 1.0 -. 1e-9)

(* decay = 1 keeps the excess weight exactly, so the same scenario
   leaves the escalated net at least as heavy as at its peak *)
let test_decay_one_ratchets () =
  let wmax, w_end =
    collapse_scenario { Netweight.path_config with Netweight.decay = 1.0 }
  in
  Alcotest.(check bool) "weight kept" true (w_end >= wmax)

let test_pathweight_placement_runs () =
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 300; sp_seed = 4; sp_clock_period = 800.0 }
  in
  let design, cons = Workload.generate lib spec in
  let graph = Sta.Graph.build design lib cons in
  let cfg =
    { Core.default_config with
      Core.mode = Core.Net_weighting Netweight.path_config;
      max_iterations = 160; min_iterations = 40; stop_overflow = 0.15;
      trace_timing_period = 10 }
  in
  let r = Core.run cfg graph in
  Alcotest.(check bool) "ran" true (r.Core.res_iterations >= 40);
  Alcotest.(check bool) "spread" true (r.Core.res_overflow < 0.5);
  (* the trace carries measured timing from the weight updates *)
  Alcotest.(check bool) "trace has timing" true
    (List.exists
       (fun (p : Core.trace_point) -> p.Core.tp_wns <> None)
       r.Core.res_trace);
  ignore design

let suite =
  [ Alcotest.test_case "initial weights are 1" `Quick test_initial_weights_one;
    Alcotest.test_case "update raises critical nets only" `Quick
      test_update_increases_critical_only;
    Alcotest.test_case "weights monotone and capped" `Quick
      test_weights_monotone_and_capped;
    Alcotest.test_case "momentum smooths reaction" `Quick test_momentum_smooths;
    Alcotest.test_case "update period" `Quick test_should_update_period;
    Alcotest.test_case "pathweight engine updates weights" `Slow
      test_pathweight_engine_updates_weights;
    Alcotest.test_case "transient net weight decays" `Slow
      test_pathweight_weight_decays;
    Alcotest.test_case "decay 1 is the [24] ratchet" `Slow
      test_decay_one_ratchets;
    Alcotest.test_case "pathweight placement runs" `Slow
      test_pathweight_placement_runs ]
