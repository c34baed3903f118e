(* Integration tests for the placement framework. *)

let lib = Liberty.Synthetic.default ()

let quick_config =
  { Core.default_config with
    Core.max_iterations = 140; min_iterations = 40; stop_overflow = 0.15 }

let setup ?(cells = 400) ?(seed = 1) () =
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = cells; sp_seed = seed; sp_clock_period = 800.0 }
  in
  let design, cons = Workload.generate lib spec in
  (design, Sta.Graph.build design lib cons)

let test_wirelength_mode_spreads_and_shortens () =
  let design, graph = setup () in
  let result =
    Core.run { quick_config with Core.mode = Core.Wirelength_only } graph
  in
  Alcotest.(check bool) "ran some iterations" true
    (result.Core.res_iterations >= 40);
  Alcotest.(check bool) "overflow reduced" true (result.Core.res_overflow < 0.5);
  Alcotest.(check bool) "no timing mode" true
    (result.Core.res_timing_active_at = None);
  (* cells stay inside the region *)
  let region = design.Netlist.region in
  Array.iter
    (fun (c : Netlist.cell) ->
      if not c.Netlist.fixed then begin
        if c.Netlist.x < region.Geometry.Rect.lx -. 1e-9
           || c.Netlist.x > region.Geometry.Rect.hx +. 1e-9
           || c.Netlist.y < region.Geometry.Rect.ly -. 1e-9
           || c.Netlist.y > region.Geometry.Rect.hy +. 1e-9
        then Alcotest.fail "cell escaped the region"
      end)
    design.Netlist.cells

let test_trace_structure () =
  let _, graph = setup ~seed:2 () in
  let result =
    Core.run { quick_config with Core.mode = Core.Wirelength_only } graph
  in
  let trace = result.Core.res_trace in
  Alcotest.(check int) "one point per iteration" result.Core.res_iterations
    (List.length trace);
  (* iterations are chronological starting at 0 *)
  List.iteri
    (fun i (p : Core.trace_point) ->
      Alcotest.(check int) "iteration order" i p.Core.tp_iteration)
    trace;
  (* overflow at the end is below the start (cells spread) *)
  match trace with
  | first :: _ ->
    let last = List.nth trace (List.length trace - 1) in
    Alcotest.(check bool) "overflow decreases" true
      (last.Core.tp_overflow < first.Core.tp_overflow)
  | [] -> Alcotest.fail "empty trace"

let test_timing_mode_activates_and_improves () =
  let seed = 3 in
  let _, graph_wl = setup ~seed () in
  let wl_result =
    Core.run { quick_config with Core.mode = Core.Wirelength_only } graph_wl
  in
  ignore wl_result;
  let wl_report, _ = Core.score graph_wl in
  let _, graph_t = setup ~seed () in
  let t_result =
    Core.run
      { quick_config with
        Core.mode = Core.Differentiable_timing Core.default_timing }
      graph_t
  in
  let t_report, _ = Core.score graph_t in
  Alcotest.(check bool) "timing activated" true
    (t_result.Core.res_timing_active_at <> None);
  Alcotest.(check bool) "wns improves over baseline" true
    (t_report.Sta.Timer.setup_wns > wl_report.Sta.Timer.setup_wns);
  Alcotest.(check bool) "tns improves over baseline" true
    (t_report.Sta.Timer.setup_tns > wl_report.Sta.Timer.setup_tns)

let test_netweight_mode_updates_weights () =
  let design, graph = setup ~seed:4 () in
  let _ =
    Core.run
      { quick_config with
        Core.mode = Core.Net_weighting Netweight.default_config }
      graph
  in
  let weighted =
    Array.exists
      (fun (net : Netlist.net) -> net.Netlist.weight > 1.0 +. 1e-9)
      design.Netlist.nets
  in
  Alcotest.(check bool) "some weights raised" true weighted

let test_keep_init () =
  let design, graph = setup ~seed:5 () in
  (* place all cells somewhere specific and keep *)
  Array.iter
    (fun (c : Netlist.cell) ->
      if not c.Netlist.fixed then begin
        c.Netlist.x <- 10.0;
        c.Netlist.y <- 10.0
      end)
    design.Netlist.cells;
  let cfg =
    { quick_config with
      Core.mode = Core.Wirelength_only; max_iterations = 1; min_iterations = 0 }
  in
  let _ = Core.run { cfg with Core.init = `Keep } graph in
  (* after a single iteration from `Keep, cells are still near (10,10) *)
  let c = design.Netlist.cells.(List.hd (Netlist.movable_cells design)) in
  Alcotest.(check bool) "stayed near start" true
    (Float.abs (c.Netlist.x -. 10.0) < 5.0)

let test_trace_timing_period () =
  let _, graph = setup ~seed:6 () in
  let cfg =
    { quick_config with
      Core.mode = Core.Wirelength_only; trace_timing_period = 20;
      max_iterations = 45; min_iterations = 0; stop_overflow = 0.0 }
  in
  let result = Core.run cfg graph in
  (* STA runs at iterations 0, 20, 40; every other point carries the
     last measurement forward, so no point is ever absent... *)
  Alcotest.(check bool) "every point has a wns" true
    (List.for_all
       (fun (p : Core.trace_point) -> p.Core.tp_wns <> None)
       result.Core.res_trace);
  (* ...and the trace holds at most three distinct runs of values. *)
  let runs =
    List.fold_left
      (fun (runs, prev) (p : Core.trace_point) ->
        if Some p.Core.tp_wns = prev then (runs, prev)
        else (runs + 1, Some p.Core.tp_wns))
      (0, None) result.Core.res_trace
    |> fst
  in
  Alcotest.(check bool) "between 2 and 3 measurement runs" true
    (runs >= 2 && runs <= 3)

let test_iteration_cap_reported () =
  (* a run that uses its whole iteration cap says so *)
  let _, graph = setup ~seed:9 () in
  let r =
    Core.run
      { quick_config with
        Core.mode = Core.Wirelength_only; max_iterations = 5;
        min_iterations = 0 }
      graph
  in
  Alcotest.(check int) "ran to the cap" 5 r.Core.res_iterations;
  Alcotest.(check bool) "stop is `Capped" true (r.Core.res_stop = `Capped)

let test_score_consistency () =
  let design, graph = setup ~seed:7 () in
  let report, hpwl = Core.score graph in
  Alcotest.(check (float 1e-9)) "hpwl matches netlist" (Netlist.total_hpwl design) hpwl;
  Alcotest.(check bool) "wns finite" true (Float.is_finite report.Sta.Timer.setup_wns)

let test_deterministic_runs () =
  let run () =
    let _, graph = setup ~seed:8 () in
    let r = Core.run { quick_config with Core.mode = Core.Wirelength_only } graph in
    (r.Core.res_hpwl, r.Core.res_iterations)
  in
  let h1, i1 = run () and h2, i2 = run () in
  Alcotest.(check int) "same iterations" i1 i2;
  Alcotest.(check (float 1e-9)) "same hpwl" h1 h2

let bits = Int64.bits_of_float

let all_modes =
  (* the timing mode activates immediately so short runs still exercise
     the forward/backward pipeline *)
  [ ("wirelength", Core.Wirelength_only);
    ("netweight", Core.Net_weighting Netweight.default_config);
    ("pathweight", Core.Net_weighting Netweight.path_config);
    ("difftimer",
     Core.Differentiable_timing
       { Core.default_timing with Core.activation_overflow = 10.0 }) ]

let test_pooled_run_bit_identical () =
  (* a pooled Core.run must reproduce the sequential one bit for bit —
     final metrics, every cell position and every trace point — in each
     of the four placement modes, at every domain count, and with the
     profiler recording (the --profile path) *)
  List.iter
    (fun (label, mode) ->
      let cfg =
        { quick_config with
          Core.mode; trace_timing_period = 10; max_iterations = 60;
          min_iterations = 20 }
      in
      let run ?obs pool =
        let design, graph = setup ~cells:300 ~seed:14 () in
        let r = Core.run ?pool ?obs cfg graph in
        let pos =
          Array.map
            (fun (c : Netlist.cell) -> (c.Netlist.x, c.Netlist.y))
            design.Netlist.cells
        in
        (r, pos)
      in
      let r1, pos1 = run None in
      let check_same tag (rd, posd) =
        Alcotest.(check int) (label ^ tag ^ ": same iterations")
          r1.Core.res_iterations rd.Core.res_iterations;
        Alcotest.(check bool) (label ^ tag ^ ": hpwl bit-identical") true
          (bits r1.Core.res_hpwl = bits rd.Core.res_hpwl);
        Alcotest.(check bool) (label ^ tag ^ ": overflow bit-identical") true
          (bits r1.Core.res_overflow = bits rd.Core.res_overflow);
        Array.iteri
          (fun i (x1, y1) ->
            let xd, yd = posd.(i) in
            if bits x1 <> bits xd || bits y1 <> bits yd then
              Alcotest.failf "%s%s: cell %d position differs" label tag i)
          pos1;
        List.iter2
          (fun (p1 : Core.trace_point) (pd : Core.trace_point) ->
            if p1 <> pd then
              Alcotest.failf "%s%s: trace point %d differs" label tag
                p1.Core.tp_iteration)
          r1.Core.res_trace rd.Core.res_trace
      in
      let with_pool ~domains f =
        let pool = Parallel.create ~domains ~oversubscribe:true () in
        Fun.protect
          ~finally:(fun () -> Parallel.shutdown pool)
          (fun () -> f pool)
      in
      List.iter
        (fun domains ->
          check_same
            (Printf.sprintf " @%dd" domains)
            (with_pool ~domains (fun pool -> run (Some pool))))
        [ 1; 2; 4; 8 ];
      (* and with a live recorder on the pooled run (--profile) *)
      check_same " @4d+profile"
        (with_pool ~domains:4 (fun pool ->
           run ~obs:(Obs.create ()) (Some pool))))
    all_modes

let test_trace_never_nan () =
  (* the carried-forward wns/tns must never surface a NaN, in any mode *)
  List.iter
    (fun (label, mode) ->
      let cfg =
        { quick_config with
          Core.mode; trace_timing_period = 7; max_iterations = 40;
          min_iterations = 10; stop_overflow = 0.0 }
      in
      let _, graph = setup ~cells:250 ~seed:15 () in
      let r = Core.run cfg graph in
      let measured = ref 0 in
      List.iter
        (fun (p : Core.trace_point) ->
          (match p.Core.tp_wns with
           | Some v when Float.is_nan v ->
             Alcotest.failf "%s: NaN wns at iteration %d" label
               p.Core.tp_iteration
           | Some _ -> incr measured
           | None -> ());
          match p.Core.tp_tns with
          | Some v when Float.is_nan v ->
            Alcotest.failf "%s: NaN tns at iteration %d" label
              p.Core.tp_iteration
          | Some _ | None -> ())
        r.Core.res_trace;
      Alcotest.(check bool) (label ^ ": trace has measurements") true
        (!measured > 0))
    all_modes

let suite =
  [ Alcotest.test_case "wirelength mode spreads" `Slow
      test_wirelength_mode_spreads_and_shortens;
    Alcotest.test_case "trace structure" `Slow test_trace_structure;
    Alcotest.test_case "timing mode activates and improves" `Slow
      test_timing_mode_activates_and_improves;
    Alcotest.test_case "net weighting updates weights" `Slow
      test_netweight_mode_updates_weights;
    Alcotest.test_case "keep init" `Quick test_keep_init;
    Alcotest.test_case "trace timing period" `Slow test_trace_timing_period;
    Alcotest.test_case "iteration cap reported" `Quick
      test_iteration_cap_reported;
    Alcotest.test_case "score consistency" `Quick test_score_consistency;
    Alcotest.test_case "deterministic runs" `Slow test_deterministic_runs ]

let test_schedule_pinned () =
  (* The V-cycle levels and the flat engine each work out their step
     size, density weight and grid from constants; these runs pin the
     resulting schedule bit for bit: a 2-level timing-mode V-cycle and a
     flat run from the generated positions. *)
  let timing =
    { quick_config with
      Core.mode = Core.Differentiable_timing Core.default_timing }
  in
  let check label (r : Core.result) ~iterations ~hpwl ~overflow =
    Alcotest.(check int) (label ^ ": iterations") iterations
      r.Core.res_iterations;
    Alcotest.(check string) (label ^ ": hpwl bits")
      (Printf.sprintf "%h" hpwl)
      (Printf.sprintf "%h" r.Core.res_hpwl);
    Alcotest.(check string) (label ^ ": overflow bits")
      (Printf.sprintf "%h" overflow)
      (Printf.sprintf "%h" r.Core.res_overflow);
    Alcotest.(check (option int)) (label ^ ": timing active at") (Some 0)
      r.Core.res_timing_active_at
  in
  let _, graph = setup ~cells:300 ~seed:17 () in
  let obs = Obs.create () in
  let r =
    Core.run_multilevel ~obs
      ~ml:{ Core.default_multilevel with Core.ml_levels = 2; ml_min_cells = 16 }
      timing graph
  in
  Alcotest.(check (list (pair string (float 0.0)))) "v-cycle levels"
    [ ("multilevel.coarse_iters", 101.0); ("multilevel.refine1_iters", 21.0) ]
    (List.filter
       (fun (k, _) -> String.ends_with ~suffix:"_iters" k)
       (Obs.counters obs));
  check "v-cycle" r ~iterations:122 ~hpwl:0x1.296b5dc2571fep+12
    ~overflow:0x1.f1a3900b0cdafp-4;
  let _, graph = setup ~cells:300 ~seed:18 () in
  check "flat keep"
    (Core.run { timing with Core.init = `Keep } graph)
    ~iterations:125 ~hpwl:0x1.7fddbcc840575p+12
    ~overflow:0x1.2ccc0f468486dp-3


let test_config_options_smoke () =
  (* every option a caller sets, away from its default, in one run:
     timing mode with its own weights, gamma and activation, a shorter
     Steiner period and no dirty-net filter, from the generated
     positions, with a looser stop target and periodic trace STA *)
  let _, graph = setup ~cells:200 ~seed:12 () in
  let cfg =
    { quick_config with
      Core.mode =
        Core.Differentiable_timing
          { Core.t1 = 0.05; t2 = 0.2; gamma = 10.0;
            activation_overflow = 0.6; steiner_period = 5;
            steiner_dirty = None };
      init = `Keep; stop_overflow = 0.2; trace_timing_period = 15;
      max_iterations = 60; min_iterations = 10 }
  in
  let r = Core.run cfg graph in
  Alcotest.(check bool) "runs with explicit options" true
    (r.Core.res_iterations >= 10 && r.Core.res_iterations <= 60);
  Alcotest.(check bool) "finite hpwl" true (Float.is_finite r.Core.res_hpwl);
  Alcotest.(check bool) "trace carries timing" true
    (List.for_all
       (fun (p : Core.trace_point) -> p.Core.tp_wns <> None)
       r.Core.res_trace)

let suite =
  suite
  @ [ Alcotest.test_case "schedule pinned" `Quick test_schedule_pinned;
      Alcotest.test_case "config options smoke" `Quick test_config_options_smoke;
      Alcotest.test_case "pooled run bit-identical" `Slow
        test_pooled_run_bit_identical;
      Alcotest.test_case "trace never nan" `Slow test_trace_never_nan ]

let test_steiner_dirty_zero_matches_full () =
  (* the dirty-net classifier at threshold 0 must not change the
     placement trajectory at all vs unconditional rebuilds *)
  let run steiner_dirty =
    let design, graph = setup ~cells:300 ~seed:9 () in
    let cfg =
      { quick_config with
        Core.max_iterations = 60; min_iterations = 30;
        mode =
          Core.Differentiable_timing
            { Core.default_timing with
              Core.activation_overflow = 10.0; steiner_dirty } }
    in
    let r = Core.run cfg graph in
    (r,
     Array.map (fun (c : Netlist.cell) -> (bits c.Netlist.x, bits c.Netlist.y))
       design.Netlist.cells)
  in
  let r0, pos0 = run None in
  let r1, pos1 = run (Some 0.0) in
  Alcotest.(check int) "same iterations" r0.Core.res_iterations
    r1.Core.res_iterations;
  Alcotest.(check bool) "hpwl bit-identical" true
    (bits r0.Core.res_hpwl = bits r1.Core.res_hpwl);
  Array.iteri
    (fun i p -> if p <> pos1.(i) then Alcotest.failf "cell %d differs" i)
    pos0

let suite =
  suite
  @ [ Alcotest.test_case "steiner_dirty 0 = full rebuild placement" `Quick
        test_steiner_dirty_zero_matches_full ]

let test_non_finite_gradient_stops () =
  (* a NaN timing weight poisons the summed gradient from the first
     active iteration on: the driver must stop there without stepping,
     keep the last finite placement and report the iteration *)
  let design, graph = setup ~cells:300 ~seed:16 () in
  let cfg =
    { quick_config with
      Core.mode =
        Core.Differentiable_timing
          { Core.default_timing with
            Core.t1 = Float.nan; activation_overflow = 10.0 } }
  in
  let r = Core.run cfg graph in
  (match r.Core.res_stop with
   | `Diverged i ->
     Alcotest.(check int) "stopped at the diverged iteration" i
       r.Core.res_iterations
   | `Converged | `Capped -> Alcotest.fail "non-finite gradient not reported");
  Alcotest.(check bool) "finite hpwl" true (Float.is_finite r.Core.res_hpwl);
  Alcotest.(check bool) "finite overflow" true
    (Float.is_finite r.Core.res_overflow);
  Array.iter
    (fun (c : Netlist.cell) ->
      if not (Float.is_finite c.Netlist.x && Float.is_finite c.Netlist.y) then
        Alcotest.failf "cell %d has a non-finite position" c.Netlist.cell_id)
    design.Netlist.cells

let suite =
  suite
  @ [ Alcotest.test_case "non-finite gradient stops the run" `Quick
        test_non_finite_gradient_stops ]

let test_trace_samples_pinned () =
  (* Between full STA runs, trace points re-time the exact timer on its
     frozen Steiner topologies; these runs pin every sampled (WNS, TNS)
     bit for bit, in net-weighting mode (updates every 3 iterations, so
     7, 14, 28 and 35 are samples in between) and wirelength-only mode
     (one full run at iteration 0). *)
  let sampled mode =
    let _, graph = setup ~cells:300 ~seed:19 () in
    let r =
      Core.run
        { quick_config with
          Core.mode; trace_timing_period = 7; max_iterations = 40;
          min_iterations = 0; stop_overflow = 0.0 }
        graph
    in
    List.filter_map
      (fun (p : Core.trace_point) ->
        match (p.Core.tp_wns, p.Core.tp_tns) with
        | Some wns, Some tns when p.Core.tp_iteration mod 7 = 0 ->
          Some
            (Printf.sprintf "%d %h %h" p.Core.tp_iteration wns tns)
        | _ -> None)
      r.Core.res_trace
  in
  Alcotest.(check (list string)) "net weighting"
    [ "0 -0x1.d4fe6fb771414p+7 -0x1.2073d4d2e7ce1p+12";
      "7 -0x1.9e7f4493bfff8p+7 -0x1.98595f411d1dap+11";
      "14 -0x1.7ab9659d33ee8p+7 -0x1.4ed289a46cc26p+11";
      "21 -0x1.7246696f08f58p+7 -0x1.45287e3bcae9cp+11";
      "28 -0x1.67e98d0e0fb1cp+7 -0x1.36fa370b27c76p+11";
      "35 -0x1.5e13285ce789cp+7 -0x1.2762b02ba7846p+11" ]
    (sampled (Core.Net_weighting Netweight.default_config));
  Alcotest.(check (list string)) "wirelength only"
    [ "0 -0x1.d4fe6fb771414p+7 -0x1.2073d4d2e7ce1p+12";
      "7 -0x1.a8cd9b085f72cp+7 -0x1.ae759fc12ed32p+11";
      "14 -0x1.a2f84e96711dcp+7 -0x1.9ac128e4ee63cp+11";
      "21 -0x1.b5baa647152f4p+7 -0x1.b9ba049fb9d0ap+11";
      "28 -0x1.bcfdf245c9b6cp+7 -0x1.d020c5a66842p+11";
      "35 -0x1.b92952a3ee4a4p+7 -0x1.ce58c4f80ec2ap+11" ]
    (sampled Core.Wirelength_only)

let suite =
  suite
  @ [ Alcotest.test_case "trace samples pinned" `Quick
        test_trace_samples_pinned ]

let test_trace_hpwl_pinned () =
  (* Every trace point's HPWL, bit for bit: a flat timing-mode run and
     the finest level of a 2-level V-cycle.  The points before the last
     take their HPWL from the next iteration's WA pass, the last from a
     walk over the final positions; both must read the exact sums
     [Netlist.total_hpwl] makes.  The MD5 covers the "%d %h" line of
     every point; the first and last points are spelled out. *)
  let timing =
    { quick_config with
      Core.mode = Core.Differentiable_timing Core.default_timing }
  in
  let summary (r : Core.result) =
    let lines =
      List.map
        (fun (p : Core.trace_point) ->
          Printf.sprintf "%d %h" p.Core.tp_iteration p.Core.tp_hpwl)
        r.Core.res_trace
    in
    let last = List.nth lines (List.length lines - 1) in
    Alcotest.(check string) "last point = res_hpwl"
      (Printf.sprintf "%h" r.Core.res_hpwl)
      (List.nth (String.split_on_char ' ' last) 1);
    [ List.hd lines; last;
      Digest.to_hex (Digest.string (String.concat "\n" lines)) ]
  in
  let _, graph = setup ~cells:300 ~seed:20 () in
  Alcotest.(check (list string)) "flat"
    [ "0 0x1.42e3b8bf4936ap+12"; "139 0x1.06a49eaab92ccp+12";
      "3ea6d92c637a9bdbedbf44bee21fd7ff" ]
    (summary (Core.run timing graph));
  let _, graph = setup ~cells:300 ~seed:17 () in
  Alcotest.(check (list string)) "v-cycle"
    [ "0 0x1.358f00dd083ddp+12"; "20 0x1.296b5dc2571fep+12";
      "80eb6b3818cdf18c7969f43eb8c05cf9" ]
    (summary
       (Core.run_multilevel
          ~ml:{ Core.default_multilevel with Core.ml_levels = 2;
                                             ml_min_cells = 16 }
          timing graph))

let suite =
  suite
  @ [ Alcotest.test_case "trace hpwl pinned" `Quick test_trace_hpwl_pinned ]
