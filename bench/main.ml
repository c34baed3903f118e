(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Table 2, Table 3, Figure 8) on the superblue-mini
   workloads, plus the ablations called out in DESIGN.md.

   Usage:  dune exec bench/main.exe [-- <target> ...]
   Targets: table1 table2 table3 figure8 kernels ablation-gamma
            ablation-reuse ablation-extensions gradcheck placer-iter
            paths parallel incremental routability multilevel all
            (default: all)
   Options: --scale <f>       benchmark scale factor (default 0.01)
            --smoke           tiny placer-iter/paths/parallel/incremental
                              run for CI
            --placer-out <f>  placer-iter JSON path
                              (default BENCH_placeriter.json)
            --paths-out <f>   paths JSON path (default BENCH_paths.json)
            --parallel-out <f> executor JSON path (default BENCH_parallel.json)
            --incremental-out <f> incremental-STA JSON path
                              (default BENCH_incremental.json)
            --routability-out <f> routability JSON path
                              (default BENCH_routability.json)
            --multilevel-out <f> multilevel JSON path
                              (default BENCH_multilevel.json)
            --domains <n>     worker domains for every placement run
                              (default 1; results are bit-identical
                              across domain counts) *)

let scale = ref 0.01

(* worker pool shared by every placement run (None = sequential); set
   from --domains in the driver.  Pooled runs are bit-identical to
   sequential ones, so the tables are reproducible at any domain
   count. *)
let pool : Parallel.pool option ref = ref None

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let lib = Liberty.Synthetic.default ()

(* machine/revision metadata recorded uniformly in every BENCH_*.json
   so results stay attributable when files from different machines or
   revisions are compared side by side *)
let git_rev =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
       let line = try String.trim (input_line ic) with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

let json_meta () =
  Printf.sprintf
    "  \"cores\": %d,\n  \"hostname\": %S,\n  \"git_rev\": %S,\n\
    \  \"peak_rss_mb\": %.1f,\n"
    (Domain.recommended_domain_count ())
    (try Unix.gethostname () with _ -> "unknown")
    (Lazy.force git_rev)
    (Obs.peak_rss_bytes () /. 1048576.0)

let build_bench spec =
  let design, cons = Workload.generate lib spec in
  let graph = Sta.Graph.build design lib cons in
  (design, graph)

(* ---- a placement run of one mode, scored after legalisation ---- *)

type outcome = {
  o_wns : float;
  o_tns : float;
  o_hpwl : float;
  o_runtime : float;
  o_iterations : int;
  o_trace : Core.trace_point list;
}

let run_mode ?(config = Core.default_config) mode spec =
  let design, graph = build_bench spec in
  let cfg = { config with Core.mode } in
  let result = Core.run ?pool:!pool cfg graph in
  ignore (Legalize.legalize design);
  let report, hpwl = Core.score graph in
  { o_wns = report.Sta.Timer.setup_wns;
    o_tns = report.Sta.Timer.setup_tns;
    o_hpwl = hpwl;
    o_runtime = result.Core.res_runtime;
    o_iterations = result.Core.res_iterations;
    o_trace = result.Core.res_trace }

let modes =
  [ ("DREAMPlace[16]", Core.Wirelength_only);
    ("NetWeight[24]", Core.Net_weighting Netweight.default_config);
    ("PathWeight[paths]", Core.Path_weighting Paths.Weight.default_config);
    ("Ours", Core.Differentiable_timing Core.default_timing) ]

(* ---- Table 1: the ML/placement analogy (expository) ---- *)

let table1 () =
  section "Table 1: the analogy between ML training and placement [16]";
  let t = Report.Table.create [ "Machine Learning"; "Placement" ] in
  Report.Table.add_row t [ "Train a neural network"; "Solve global placement" ];
  Report.Table.add_row t [ "Dataset"; "Net instances" ];
  Report.Table.add_row t [ "Loss function"; "Wirelength objective" ];
  Report.Table.add_row t [ "Regularization"; "Density constraint" ];
  print_string (Report.Table.render t)

(* ---- Table 2: benchmark statistics ---- *)

let table2 () =
  section
    (Printf.sprintf
       "Table 2: benchmark statistics (superblue-mini at scale %g; paper \
        values in parentheses)" !scale);
  let t =
    Report.Table.create
      [ "Benchmark"; "#Cells"; "#Nets"; "#Pins"; "MaxFanout"; "Levels";
        "(paper #Cells)"; "(paper #Nets)"; "(paper #Pins)" ]
  in
  List.iter2
    (fun spec (p : Report.Paper.table2_row) ->
      let design, cons = Workload.generate lib spec in
      let s = Netlist.Stats.compute design in
      let graph = Sta.Graph.build design lib cons in
      Report.Table.add_row t
        [ spec.Workload.sp_name;
          string_of_int s.Netlist.Stats.cells;
          string_of_int s.Netlist.Stats.nets;
          string_of_int s.Netlist.Stats.pins;
          string_of_int s.Netlist.Stats.max_fanout;
          string_of_int (Sta.Graph.max_level graph + 1);
          string_of_int p.Report.Paper.t2_cells;
          string_of_int p.Report.Paper.t2_nets;
          string_of_int p.Report.Paper.t2_pins ])
    (Workload.superblue_mini ~scale:!scale ())
    Report.Paper.table2;
  print_string (Report.Table.render t)

(* ---- Table 3: the headline comparison ---- *)

let neg v = Float.min 0.0 v

let table3 () =
  section
    (Printf.sprintf
       "Table 3: WNS / TNS / HPWL / runtime, four placers at scale %g"
       !scale);
  Printf.printf
    "(identical density-overflow stop criterion for all placers; scoring by \
     exact STA after legalisation)\n\n";
  let specs = Workload.superblue_mini ~scale:!scale () in
  let t =
    Report.Table.create
      [ "Benchmark"; "Placer"; "WNS(ps)"; "TNS(ps)"; "HPWL(um)"; "Time(s)" ]
  in
  (* outcome lists per mode, in spec order *)
  let all =
    List.map
      (fun spec ->
        let rows =
          List.map
            (fun (name, mode) ->
              let o = run_mode mode spec in
              Report.Table.add_row t
                [ spec.Workload.sp_name; name;
                  Printf.sprintf "%.1f" o.o_wns;
                  Printf.sprintf "%.1f" o.o_tns;
                  Printf.sprintf "%.3e" o.o_hpwl;
                  Printf.sprintf "%.2f" o.o_runtime ];
              (name, o))
            modes
        in
        Printf.printf "  [done] %s\n%!" spec.Workload.sp_name;
        rows)
      specs
  in
  print_newline ();
  print_string (Report.Table.render t);
  (* average ratios vs ours, as in the paper's last row *)
  let ratio pick_a pick_b safe =
    List.filter_map
      (fun rows ->
        let find n = List.assoc n rows in
        let a = pick_a (find "Ours") and b = pick_b rows in
        if Float.abs a > safe && Float.abs b > safe then Some (b /. a) else None)
      all
  in
  let summary =
    Report.Table.create
      [ "Avg ratio vs Ours"; "WNS"; "TNS"; "Runtime"; "(paper WNS)";
        "(paper TNS)"; "(paper runtime)" ]
  in
  let add_summary label key paper_key =
    let wns_r =
      ratio (fun o -> neg o.o_wns) (fun rows -> neg (List.assoc key rows).o_wns) 1.0
    in
    let tns_r =
      ratio (fun o -> neg o.o_tns) (fun rows -> neg (List.assoc key rows).o_tns) 1.0
    in
    let rt_r =
      ratio (fun o -> o.o_runtime) (fun rows -> (List.assoc key rows).o_runtime) 1e-6
    in
    Report.Table.add_row summary
      [ label;
        Report.ratio_string (Report.geometric_mean wns_r);
        Report.ratio_string (Report.geometric_mean tns_r);
        Report.ratio_string (Report.geometric_mean rt_r);
        Report.ratio_string (Report.Paper.avg_ratio_wns paper_key);
        Report.ratio_string (Report.Paper.avg_ratio_tns paper_key);
        Report.ratio_string (Report.Paper.avg_ratio_runtime paper_key) ]
  in
  add_summary "DREAMPlace[16]" "DREAMPlace[16]" `Dreamplace;
  add_summary "NetWeight[24]" "NetWeight[24]" `Net_weighting;
  print_newline ();
  print_string (Report.Table.render summary);
  (* who-wins checks, the shape the paper claims *)
  let wins metric =
    List.for_all
      (fun rows ->
        metric (List.assoc "Ours" rows) <= metric (List.assoc "NetWeight[24]" rows)
        +. 1e-9)
      all
  in
  Printf.printf
    "\nShape checks: ours >= net weighting on WNS in %d/%d designs; on TNS in \
     %d/%d designs\n"
    (List.length (List.filter (fun r -> (List.assoc "Ours" r).o_wns
                                        >= (List.assoc "NetWeight[24]" r).o_wns) all))
    (List.length all)
    (List.length (List.filter (fun r -> (List.assoc "Ours" r).o_tns
                                        >= (List.assoc "NetWeight[24]" r).o_tns) all))
    (List.length all);
  ignore (wins (fun o -> o.o_runtime))

(* ---- Figure 8: optimisation trajectories on superblue4 ---- *)

let figure8 () =
  section "Figure 8: optimisation iterations for benchmark superblue4-mini";
  Printf.printf
    "(columns: baseline DREAMPlace vs ours; WNS/TNS sampled every 10 \
     iterations; '-' = not evaluated)\n\n";
  let spec =
    match Workload.find_spec "superblue4-mini" with
    | Some s -> { s with Workload.sp_cells =
                    max 200 (int_of_float (795645.0 *. !scale)) }
    | None -> failwith "missing superblue4-mini spec"
  in
  let base_cfg = { Core.default_config with Core.trace_timing_period = 10 } in
  let dp = run_mode ~config:base_cfg Core.Wirelength_only spec in
  let ours =
    run_mode ~config:base_cfg
      (Core.Differentiable_timing Core.default_timing) spec
  in
  let t =
    Report.Table.create
      [ "iter"; "HPWL[16]"; "ovf[16]"; "WNS[16]"; "TNS[16]";
        "HPWL[ours]"; "ovf[ours]"; "WNS[ours]"; "TNS[ours]" ]
  in
  let cell = function
    | None -> "-"
    | Some v -> Printf.sprintf "%.1f" v
  in
  let rec zip a b =
    match a, b with
    | [], [] -> ()
    | pa :: ra, pb :: rb ->
      let (p : Core.trace_point) = pa in
      if p.Core.tp_iteration mod 10 = 0 then
        Report.Table.add_row t
          [ string_of_int p.Core.tp_iteration;
            Printf.sprintf "%.3e" p.Core.tp_hpwl;
            Printf.sprintf "%.3f" p.Core.tp_overflow;
            cell p.Core.tp_wns;
            cell p.Core.tp_tns;
            Printf.sprintf "%.3e" pb.Core.tp_hpwl;
            Printf.sprintf "%.3f" pb.Core.tp_overflow;
            cell pb.Core.tp_wns;
            cell pb.Core.tp_tns ];
      zip ra rb
    | pa :: ra, [] ->
      if pa.Core.tp_iteration mod 10 = 0 then
        Report.Table.add_row t
          [ string_of_int pa.Core.tp_iteration;
            Printf.sprintf "%.3e" pa.Core.tp_hpwl;
            Printf.sprintf "%.3f" pa.Core.tp_overflow;
            cell pa.Core.tp_wns; cell pa.Core.tp_tns; "-"; "-"; "-"; "-" ];
      zip ra []
    | [], pb :: rb ->
      if pb.Core.tp_iteration mod 10 = 0 then
        Report.Table.add_row t
          [ string_of_int pb.Core.tp_iteration; "-"; "-"; "-"; "-";
            Printf.sprintf "%.3e" pb.Core.tp_hpwl;
            Printf.sprintf "%.3f" pb.Core.tp_overflow;
            cell pb.Core.tp_wns; cell pb.Core.tp_tns ];
      zip [] rb
  in
  zip dp.o_trace ours.o_trace;
  print_string (Report.Table.render t);
  Printf.printf
    "\nFinal (post-legalisation): baseline WNS %.1f TNS %.1f HPWL %.3e | ours \
     WNS %.1f TNS %.1f HPWL %.3e\n"
    dp.o_wns dp.o_tns dp.o_hpwl ours.o_wns ours.o_tns ours.o_hpwl

(* ---- kernel micro-benchmarks (Bechamel) ---- *)

let kernels () =
  section "Kernel micro-benchmarks (Bechamel; superblue4-mini)";
  let spec =
    match Workload.find_spec "superblue4-mini" with
    | Some s -> { s with Workload.sp_cells =
                    max 200 (int_of_float (795645.0 *. !scale)) }
    | None -> failwith "missing superblue4-mini spec"
  in
  let design, graph = build_bench spec in
  let dt = Difftimer.create ~gamma:20.0 graph in
  let nets = Difftimer.nets dt in
  Sta.Nets.rebuild nets;
  ignore (Difftimer.forward dt);
  let timer = Sta.Timer.create graph in
  let wl = Wirelength.create design in
  let dens = Density.create design in
  let ncells = Netlist.num_cells design in
  let gx = Array.make ncells 0.0 and gy = Array.make ncells 0.0 in
  let open Bechamel in
  let tests =
    [ Test.make ~name:"steiner_rebuild(all nets)"
        (Staged.stage (fun () -> Sta.Nets.rebuild nets));
      Test.make ~name:"nets_refresh(provenance+rc)"
        (Staged.stage (fun () -> Sta.Nets.refresh nets));
      Test.make ~name:"diff_forward(smoothed STA)"
        (Staged.stage (fun () -> ignore (Difftimer.forward dt)));
      Test.make ~name:"diff_backward(full gradient)"
        (Staged.stage (fun () ->
          Array.fill gx 0 ncells 0.0;
          Array.fill gy 0 ncells 0.0;
          Difftimer.backward dt ~w_tns:1.0 ~w_wns:1.0 ~grad_x:gx ~grad_y:gy));
      Test.make ~name:"exact_sta(report, reuse trees)"
        (Staged.stage (fun () -> ignore (Sta.Timer.run ~rebuild_trees:false timer)));
      (let inc = Sta.Incremental.create graph in
       let movable = Array.of_list (Netlist.movable_cells design) in
       let rng = Workload.Rng.create 7 in
       Test.make ~name:"incremental_sta(1 cell moved)"
         (Staged.stage (fun () ->
           let c = design.Netlist.cells.(movable.(Workload.Rng.int rng
                                                   (Array.length movable))) in
           Sta.Incremental.move_cell inc c.Netlist.cell_id
             ~x:(c.Netlist.x +. 1.0) ~y:c.Netlist.y;
           ignore (Sta.Incremental.update inc))));
      Test.make ~name:"wirelength_grad(WA)"
        (Staged.stage (fun () ->
          Array.fill gx 0 ncells 0.0;
          Array.fill gy 0 ncells 0.0;
          ignore (Wirelength.evaluate wl ~grad_x:gx ~grad_y:gy ())));
      Test.make ~name:"density_update(FFT Poisson)"
        (Staged.stage (fun () -> Density.update dens)) ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:30 ~quota:(Time.second 1.0) () in
    let results =
      Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"k" [ test ])
    in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false
           ~predictors:[| Measure.run |])
        instance results
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
          Printf.printf "  %-32s %12.3f us/call\n" name (est /. 1000.0)
        | Some _ | None -> Printf.printf "  %-32s (no estimate)\n" name)
      ols
  in
  List.iter benchmark tests;
  (* level-parallel forward scaling over worker domains (the "GPU
     kernel" substitution: same level-synchronous structure, CPU lanes) *)
  let cores = Domain.recommended_domain_count () in
  if cores <= 1 then
    Printf.printf
      "\n  diff_forward domain scaling skipped: this machine exposes %d \
       core(s).\n  (Correctness of the parallel kernels is covered by the \
       test suite.)\n"
      cores
  else begin
    Printf.printf "\n  diff_forward scaling over domains (%d cores):\n" cores;
    let time_forward pool =
      let iters = 20 in
      let t0 = Obs.Clock.now () in
      for _ = 1 to iters do
        ignore (Difftimer.forward ?pool dt)
      done;
      (Obs.Clock.now () -. t0) /. float_of_int iters *. 1e6
    in
    let sequential_us = time_forward None in
    Printf.printf "  %-32s %12.3f us/call\n" "domains=1" sequential_us;
    List.iter
      (fun domains ->
        let pool = Parallel.create ~domains () in
        let us =
          Fun.protect
            ~finally:(fun () -> Parallel.shutdown pool)
            (fun () -> time_forward (Some pool))
        in
        Printf.printf "  %-32s %12.3f us/call (%.2fx)\n"
          (Printf.sprintf "domains=%d" domains)
          us (sequential_us /. us))
      [ 2; min 4 (cores - 1) ]
  end

(* ---- ablations ---- *)

let ablation_gamma () =
  section "Ablation A: LSE smoothing width gamma (superblue4-mini)";
  Printf.printf
    "(larger gamma smooths more at the cost of accuracy, paper SS3.2)\n\n";
  let spec =
    match Workload.find_spec "superblue4-mini" with
    | Some s -> { s with Workload.sp_cells =
                    max 200 (int_of_float (795645.0 *. !scale)) }
    | None -> failwith "missing superblue4-mini spec"
  in
  let t = Report.Table.create [ "gamma(ps)"; "WNS(ps)"; "TNS(ps)"; "HPWL(um)" ] in
  List.iter
    (fun gamma ->
      let o =
        run_mode
          (Core.Differentiable_timing { Core.default_timing with Core.gamma })
          spec
      in
      Report.Table.add_row t
        [ Printf.sprintf "%.0f" gamma;
          Printf.sprintf "%.1f" o.o_wns;
          Printf.sprintf "%.1f" o.o_tns;
          Printf.sprintf "%.3e" o.o_hpwl ])
    [ 5.0; 20.0; 80.0; 320.0 ];
  print_string (Report.Table.render t)

let ablation_reuse () =
  section "Ablation B: Steiner tree reuse period (superblue4-mini)";
  Printf.printf
    "(the paper rebuilds trees every 10 iterations and reuses provenance \
     updates in between, SS3.6)\n\n";
  let spec =
    match Workload.find_spec "superblue4-mini" with
    | Some s -> { s with Workload.sp_cells =
                    max 200 (int_of_float (795645.0 *. !scale)) }
    | None -> failwith "missing superblue4-mini spec"
  in
  let t =
    Report.Table.create
      [ "period"; "WNS(ps)"; "TNS(ps)"; "HPWL(um)"; "Time(s)" ]
  in
  List.iter
    (fun period ->
      let o =
        run_mode
          (Core.Differentiable_timing
             { Core.default_timing with Core.steiner_period = period })
          spec
      in
      Report.Table.add_row t
        [ string_of_int period;
          Printf.sprintf "%.1f" o.o_wns;
          Printf.sprintf "%.1f" o.o_tns;
          Printf.sprintf "%.3e" o.o_hpwl;
          Printf.sprintf "%.2f" o.o_runtime ])
    [ 1; 5; 10; 20 ];
  print_string (Report.Table.render t)

let ablation_extensions () =
  section
    "Ablation D: future-work extensions (gradient preconditioning, dynamic \
     weights)";
  Printf.printf
    "(the paper's conclusion lists dynamic timing-weight updating and \
     gradient preconditioning as future work; both are implemented as \
     options)\n\n";
  let spec =
    match Workload.find_spec "superblue4-mini" with
    | Some s -> { s with Workload.sp_cells =
                    max 200 (int_of_float (795645.0 *. !scale)) }
    | None -> failwith "missing superblue4-mini spec"
  in
  let t =
    Report.Table.create
      [ "variant"; "WNS(ps)"; "TNS(ps)"; "HPWL(um)"; "Time(s)" ]
  in
  let run label tc =
    let o = run_mode (Core.Differentiable_timing tc) spec in
    Report.Table.add_row t
      [ label;
        Printf.sprintf "%.1f" o.o_wns;
        Printf.sprintf "%.1f" o.o_tns;
        Printf.sprintf "%.3e" o.o_hpwl;
        Printf.sprintf "%.2f" o.o_runtime ]
  in
  run "paper schedule (fixed, no clip)" Core.default_timing;
  run "clip 5x mean" { Core.default_timing with Core.grad_clip = Some 5.0 };
  run "clip 2x mean" { Core.default_timing with Core.grad_clip = Some 2.0 };
  run "adaptive weight growth"
    { Core.default_timing with Core.growth_policy = `Adaptive };
  run "adaptive + clip 5x"
    { Core.default_timing with
      Core.growth_policy = `Adaptive; grad_clip = Some 5.0 };
  print_string (Report.Table.render t)

(* ---- gradient checks ---- *)

let gradcheck () =
  section "Ablation C: analytic gradients vs central finite differences";
  let rng = Workload.Rng.create 2024 in
  (* (a) LUT interpolation *)
  let inv =
    match Liberty.find_cell lib "INV_X1" with
    | Some c -> c
    | None -> failwith "INV_X1 missing"
  in
  let arc = inv.Liberty.lc_arcs.(0) in
  let lut = arc.Liberty.cell_rise in
  let worst = ref 0.0 in
  for _ = 1 to 200 do
    let x = Workload.Rng.float rng 180.0 and y = Workload.Rng.float rng 36.0 in
    let _, dx, dy = Liberty.Lut.lookup_with_gradient lut x y in
    let h = 1e-5 in
    let fdx =
      (Liberty.Lut.lookup lut (x +. h) y -. Liberty.Lut.lookup lut (x -. h) y)
      /. (2.0 *. h)
    and fdy =
      (Liberty.Lut.lookup lut x (y +. h) -. Liberty.Lut.lookup lut x (y -. h))
      /. (2.0 *. h)
    in
    worst := Float.max !worst (Float.abs (dx -. fdx));
    worst := Float.max !worst (Float.abs (dy -. fdy))
  done;
  Printf.printf "  LUT query gradient:        max |analytic - FD| = %.3e\n" !worst;
  (* (b) full differentiable-timer pipeline *)
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 150; sp_inputs = 8; sp_outputs = 8; sp_depth = 6;
      sp_clock_period = 520.0 }
  in
  let design, graph = build_bench spec in
  let dt = Difftimer.create ~gamma:25.0 graph in
  let nets = Difftimer.nets dt in
  let objective () =
    Sta.Nets.refresh nets;
    let m = Difftimer.forward dt in
    (0.7 *. -.m.Difftimer.tns_smooth) +. (0.4 *. -.m.Difftimer.wns_smooth)
  in
  ignore (objective ());
  let ncells = Netlist.num_cells design in
  let gx = Array.make ncells 0.0 and gy = Array.make ncells 0.0 in
  Difftimer.backward dt ~w_tns:0.7 ~w_wns:0.4 ~grad_x:gx ~grad_y:gy;
  let worst = ref 0.0 and h = 1e-4 in
  for _ = 1 to 30 do
    let c = design.Netlist.cells.(Workload.Rng.int rng ncells) in
    if not c.Netlist.fixed then begin
      let x0 = c.Netlist.x in
      c.Netlist.x <- x0 +. h;
      let fp = objective () in
      c.Netlist.x <- x0 -. h;
      let fm = objective () in
      c.Netlist.x <- x0;
      let fd = (fp -. fm) /. (2.0 *. h) in
      if Float.abs fd > 1e-6 then
        worst :=
          Float.max !worst
            (Float.abs (fd -. gx.(c.Netlist.cell_id)) /. Float.abs fd)
    end
  done;
  Printf.printf
    "  end-to-end TNS/WNS gradient: max relative error vs FD = %.3e\n" !worst;
  Printf.printf "  (see test/ for the per-pass Elmore and Steiner checks)\n"

(* ---- full placement iteration benchmark ---- *)

let placer_smoke = ref false
let placer_out = ref "BENCH_placeriter.json"

(* Seed (pre-pool) per-kernel timings, microseconds per call, measured on
   this machine at the base revision with the same 5000-cell workload
   spec (seed 17, 16 in/out, depth 10, clock 520 ps): mean of two runs.
   The seed iteration amortises the Steiner rebuild over the paper's
   10-iteration reuse period. *)
let placer_seed_reference =
  [ ("wirelength", 2697.0); ("density_update", 2958.0);
    ("density_gradient", 876.0); ("steiner_rebuild", 37130.0);
    ("nets_refresh", 2216.0); ("diff_forward", 10007.0);
    ("diff_backward", 6407.0) ]

let placer_iter () =
  section "Full placement iteration: per-kernel split over worker domains";
  let cells = if !placer_smoke then 400 else 5000 in
  let iters = if !placer_smoke then 4 else 20 in
  let steiner_period = Core.default_timing.Core.steiner_period in
  let gamma = 20.0 in
  let steiner_dirty_gamma =
    match Core.default_timing.Core.steiner_dirty with
    | Some g -> g
    | None -> -1.0
  in
  let dirty_threshold =
    if steiner_dirty_gamma >= 0.0 then Some (steiner_dirty_gamma *. gamma)
    else None
  in
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = cells; sp_seed = 17; sp_inputs = 16;
      sp_outputs = 16; sp_depth = 10; sp_clock_period = 520.0 }
  in
  let design, graph = build_bench spec in
  let wl = Wirelength.create design in
  let dens = Density.create design in
  let dt = Difftimer.create ~gamma graph in
  let nets = Difftimer.nets dt in
  Sta.Nets.rebuild nets;
  ignore (Difftimer.forward dt);
  let ncells = Netlist.num_cells design in
  let gx = Array.make ncells 0.0 and gy = Array.make ncells 0.0 in
  let home = Netlist.copy_positions design in
  let movable =
    Array.of_list
      (List.map
         (fun c -> design.Netlist.cells.(c))
         (Netlist.movable_cells design))
  in
  (* Deterministic synthetic motion standing in for the placement
     trajectory between two Steiner rebuild ticks: most cells jitter a
     little, a minority makes large moves.  Applied outside the timed
     region, so "steiner_rebuild" is the cost of the dirty rebuild call
     itself under this motion, and the dirty threshold actually
     classifies (with no motion every net would be clean and the number
     meaningless). *)
  let motion_rng = ref (Workload.Rng.create 0x5eed) in
  let motion_tick () =
    let rng = !motion_rng in
    Array.iter
      (fun (c : Netlist.cell) ->
        let mag = if Workload.Rng.bool rng 0.15 then 12.0 else 2.0 in
        c.Netlist.x <- c.Netlist.x +. Workload.Rng.float rng (2.0 *. mag) -. mag;
        c.Netlist.y <- c.Netlist.y +. Workload.Rng.float rng (2.0 *. mag) -. mag)
      movable
  in
  let reset_state pool =
    Netlist.restore_positions design home;
    motion_rng := Workload.Rng.create 0x5eed;
    (* resync every topology, anchor and RC to the restored placement so
       each domain row measures the same work *)
    Sta.Nets.rebuild ?pool nets
  in
  let time_us ?prep f =
    let prep = match prep with Some p -> p | None -> fun () -> () in
    prep ();
    ignore (f ());
    let acc = ref 0.0 in
    for _ = 1 to iters do
      prep ();
      let t0 = Obs.Clock.now () in
      ignore (f ());
      acc := !acc +. (Obs.Clock.now () -. t0)
    done;
    !acc /. float_of_int iters *. 1e6
  in
  let measure pool =
    reset_state pool;
    [ ("wirelength",
       time_us (fun () ->
         Array.fill gx 0 ncells 0.0;
         Array.fill gy 0 ncells 0.0;
         ignore (Wirelength.evaluate wl ?pool ~grad_x:gx ~grad_y:gy ())));
      ("density_update", time_us (fun () -> Density.update ?pool dens));
      ("density_gradient",
       time_us (fun () ->
         Array.fill gx 0 ncells 0.0;
         Array.fill gy 0 ncells 0.0;
         Density.gradient ?pool dens ~scale:1.0 ~grad_x:gx ~grad_y:gy));
      (* the per-tick cost paid every steiner_period iterations: dirty
         classification + LUT/heuristic rebuild of the moved nets *)
      ("steiner_rebuild",
       time_us ~prep:motion_tick (fun () ->
         Sta.Nets.rebuild ?dirty_threshold ?pool nets));
      (* reference: unconditional re-topologisation of every net (what
         the seed's steiner_rebuild measured); not part of an iteration *)
      ("steiner_full", time_us (fun () -> Sta.Nets.rebuild ?pool nets));
      ("nets_refresh", time_us (fun () -> Sta.Nets.refresh ?pool nets));
      ("diff_forward", time_us (fun () -> ignore (Difftimer.forward ?pool dt)));
      ("diff_backward",
       time_us (fun () ->
         Array.fill gx 0 ncells 0.0;
         Array.fill gy 0 ncells 0.0;
         Difftimer.backward ?pool dt ~w_tns:1.0 ~w_wns:1.0 ~grad_x:gx
           ~grad_y:gy)) ]
  in
  (* an extra observed pass (untimed) splitting the dirty rebuild into
     its steiner.dirty / steiner.lut / steiner.full sub-kernels and
     counting nets per class *)
  let subkernels pool =
    let obs = Obs.create () in
    let obs_iters = max 2 (iters / 4) in
    (* settle GC debt left by the timed kernels so major slices don't
       land inside the observed spans *)
    Gc.full_major ();
    for _ = 1 to obs_iters do
      motion_tick ();
      Sta.Nets.rebuild ?dirty_threshold ?pool ~obs nets
    done;
    let per = 1.0 /. float_of_int obs_iters in
    let spans =
      List.filter_map
        (fun (s : Obs.stat) ->
          match s.Obs.st_kernel with
          | Obs.Steiner_dirty | Obs.Steiner_lut | Obs.Steiner_full ->
            Some (Obs.kernel_name s.Obs.st_kernel, s.Obs.st_cum *. per *. 1e6)
          | _ -> None)
        (Obs.stats obs)
    in
    let per_tick =
      List.filter_map
        (fun (name, v) ->
          match name with
          | "steiner.nets_clean" | "steiner.nets_lut" | "steiner.nets_full" ->
            Some (name, v *. per)
          | _ -> None)
        (Obs.counters obs)
    in
    (spans, per_tick)
  in
  (* one GP iteration = every per-iteration kernel, with the Steiner
     rebuild amortised over its reuse period (paper §3.6); the
     steiner_full reference kernel is not part of an iteration *)
  let iteration_us kernels =
    List.fold_left
      (fun acc (name, us) ->
        if name = "steiner_rebuild" then
          acc +. (us /. float_of_int steiner_period)
        else if name = "steiner_full" then acc
        else acc +. us)
      0.0 kernels
  in
  let seed_iter_us = iteration_us placer_seed_reference in
  let domain_counts = if !placer_smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let results =
    List.map
      (fun domains ->
        let run_row pool =
          let kernels = measure pool in
          let spans, per_tick = subkernels pool in
          (kernels, spans, per_tick)
        in
        let kernels, spans, per_tick =
          if domains <= 1 then run_row None
          else begin
            let pool = Parallel.create ~domains () in
            Fun.protect
              ~finally:(fun () -> Parallel.shutdown pool)
              (fun () -> run_row (Some pool))
          end
        in
        Printf.printf "  [done] domains=%d\n%!" domains;
        (domains, kernels, iteration_us kernels, spans, per_tick))
      domain_counts
  in
  let _, _, base_iter_us, _, _ = List.hd results in
  let t =
    Report.Table.create
      [ "domains"; "wl(us)"; "dens(us)"; "dgrad(us)"; "steiner(us)";
        "full(us)"; "refresh(us)"; "fwd(us)"; "bwd(us)"; "iter(us)";
        "vs 1 dom"; "vs seed" ]
  in
  List.iter
    (fun (domains, kernels, iter_us, _, _) ->
      let k name = List.assoc name kernels in
      Report.Table.add_row t
        [ string_of_int domains;
          Printf.sprintf "%.0f" (k "wirelength");
          Printf.sprintf "%.0f" (k "density_update");
          Printf.sprintf "%.0f" (k "density_gradient");
          Printf.sprintf "%.0f" (k "steiner_rebuild");
          Printf.sprintf "%.0f" (k "steiner_full");
          Printf.sprintf "%.0f" (k "nets_refresh");
          Printf.sprintf "%.0f" (k "diff_forward");
          Printf.sprintf "%.0f" (k "diff_backward");
          Printf.sprintf "%.0f" iter_us;
          Printf.sprintf "%.2fx" (base_iter_us /. iter_us);
          (if !placer_smoke then "-"
           else Printf.sprintf "%.2fx" (seed_iter_us /. iter_us)) ])
    results;
  print_newline ();
  print_string (Report.Table.render t);
  let cores = Domain.recommended_domain_count () in
  if cores <= 1 then
    Printf.printf
      "\n  note: this machine exposes %d core(s); the domain rows measure \
       dispatch\n  overhead, not parallel speedup.  Pooled results are \
       bit-identical to\n  sequential ones by construction (see the \
       determinism tests).\n"
      cores;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"bench\": \"placer-iter\",\n  \"mode\": \"%s\",\n\
                    \  \"iters\": %d,\n"
       (if !placer_smoke then "smoke" else "full")
       iters);
  Buffer.add_string buf (json_meta ());
  Buffer.add_string buf
    (Printf.sprintf
       "  \"steiner_period\": %d,\n  \"steiner_dirty_gamma\": %.2f,\n  \
        \"lut_max_degree\": %d,\n  \
        \"workload\": { \"cells\": %d, \"seed\": 17, \"inputs\": 16, \
        \"outputs\": 16, \"depth\": 10, \"clock_period_ps\": 520.0, \
        \"gamma_ps\": 20.0 },\n"
       steiner_period steiner_dirty_gamma Steiner.Lut.max_degree cells);
  if not !placer_smoke then
    Buffer.add_string buf
      (Printf.sprintf "  \"seed_iteration_us\": %.1f,\n" seed_iter_us);
  Buffer.add_string buf "  \"domains\": [\n";
  let json_assoc kvs =
    String.concat ", "
      (List.map (fun (name, v) -> Printf.sprintf "\"%s\": %.1f" name v) kvs)
  in
  List.iteri
    (fun i (domains, kernels, iter_us, spans, per_tick) ->
      Buffer.add_string buf
        (Printf.sprintf "    { \"domains\": %d, \"iteration_us\": %.1f, \
                         \"speedup_vs_1_domain\": %.3f"
           domains iter_us (base_iter_us /. iter_us));
      if not !placer_smoke then
        Buffer.add_string buf
          (Printf.sprintf ", \"speedup_vs_seed\": %.3f"
             (seed_iter_us /. iter_us));
      Buffer.add_string buf ",\n      \"kernels_us\": { ";
      Buffer.add_string buf (json_assoc kernels);
      Buffer.add_string buf " },\n      \"steiner_subkernels_us\": { ";
      Buffer.add_string buf (json_assoc spans);
      Buffer.add_string buf " },\n      \"steiner_nets_per_tick\": { ";
      Buffer.add_string buf (json_assoc per_tick);
      Buffer.add_string buf
        (Printf.sprintf " } }%s\n"
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out !placer_out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nWrote %s\n" !placer_out

(* ---- top-K path enumeration benchmark ---- *)

let paths_out = ref "BENCH_paths.json"

(* Per-K measurement row: timing plus the lazy engine's candidate
   counters and the endpoint-fan-out chunk count. *)
type paths_pk = {
  pk_k : int;
  pk_enum_us : float;
  pk_paths : int;
  pk_rate : float;
  pk_pushed : float;
  pk_popped : float;
  pk_pruned : float;
  pk_skipped : float;
  pk_chunks : int;
}

let bench_paths () =
  section "Top-K path enumeration (lib/paths): throughput vs K over domains";
  let cells = if !placer_smoke then 400 else 5000 in
  let iters = if !placer_smoke then 4 else 16 in
  let ks = if !placer_smoke then [ 1; 4; 16 ] else [ 1; 8; 32; 128 ] in
  let domain_counts = if !placer_smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = cells; sp_seed = 17; sp_inputs = 16;
      sp_outputs = 16; sp_depth = 10; sp_clock_period = 520.0 }
  in
  let _, graph = build_bench spec in
  let timer = Sta.Timer.create graph in
  ignore (Sta.Timer.run timer);
  let nend = Array.length graph.Sta.Graph.endpoints in
  let time_us f =
    ignore (f ());
    let t0 = Obs.Clock.now () in
    for _ = 1 to iters do
      ignore (f ())
    done;
    (Obs.Clock.now () -. t0) /. float_of_int iters *. 1e6
  in
  let t =
    Report.Table.create
      [ "domains"; "analyze(us)"; "K"; "enumerate(us)"; "paths"; "paths/s";
        "popped"; "pruned"; "chunks" ]
  in
  let measure pool =
    let analyze_us = time_us (fun () -> Paths.analyze ?pool timer) in
    let view = Paths.analyze ?pool timer in
    let per_k =
      List.map
        (fun k ->
          let enum_us = time_us (fun () -> Paths.enumerate ?pool ~k view) in
          let npaths = List.length (Paths.enumerate ?pool ~k view) in
          let rate =
            if enum_us > 0.0 then float_of_int npaths /. (enum_us *. 1e-6)
            else 0.0
          in
          let obs = Obs.create () in
          ignore (Paths.enumerate ?pool ~obs ~k view);
          let counter name =
            match List.assoc_opt name (Obs.counters obs) with
            | Some v -> v
            | None -> 0.0
          in
          let grain = Paths.enumerate_grain ~k nend in
          { pk_k = k; pk_enum_us = enum_us; pk_paths = npaths;
            pk_rate = rate; pk_pushed = counter "paths.pushed";
            pk_popped = counter "paths.popped";
            pk_pruned = counter "paths.pruned";
            pk_skipped = counter "paths.endpoints_skipped";
            pk_chunks = (nend + grain - 1) / grain })
        ks
    in
    (analyze_us, per_k)
  in
  let results =
    List.map
      (fun domains ->
        let analyze_us, per_k =
          if domains <= 1 then measure None
          else begin
            let pool = Parallel.create ~domains () in
            Fun.protect
              ~finally:(fun () -> Parallel.shutdown pool)
              (fun () -> measure (Some pool))
          end
        in
        Printf.printf "  [done] domains=%d\n%!" domains;
        List.iteri
          (fun i pk ->
            Report.Table.add_row t
              [ (if i = 0 then string_of_int domains else "");
                (if i = 0 then Printf.sprintf "%.0f" analyze_us else "");
                string_of_int pk.pk_k;
                Printf.sprintf "%.0f" pk.pk_enum_us;
                string_of_int pk.pk_paths;
                Printf.sprintf "%.0f" pk.pk_rate;
                Printf.sprintf "%.0f" pk.pk_popped;
                Printf.sprintf "%.0f" pk.pk_pruned;
                string_of_int pk.pk_chunks ])
          per_k;
        (domains, analyze_us, per_k))
      domain_counts
  in
  print_newline ();
  print_string (Report.Table.render t);
  let view = Paths.analyze timer in
  (* Eager-reference baseline at the largest K, sequential: the measured
     speedup of the lazy engine over the pre-lazy implementation, gated
     by scripts/check_bench.py in full mode. *)
  let ref_k = List.fold_left Int.max 1 ks in
  let ref_iters = 2 in
  let ref_us =
    ignore (Paths.Reference.enumerate ~k:ref_k view);
    let t0 = Obs.Clock.now () in
    for _ = 1 to ref_iters do
      ignore (Paths.Reference.enumerate ~k:ref_k view)
    done;
    (Obs.Clock.now () -. t0) /. float_of_int ref_iters *. 1e6
  in
  let lazy_us =
    let _, _, per_k = List.hd results in
    (List.find (fun pk -> pk.pk_k = ref_k) per_k).pk_enum_us
  in
  let ref_speedup = if lazy_us > 0.0 then ref_us /. lazy_us else 0.0 in
  Printf.printf
    "\n  eager reference @ K=%d, 1 domain: %.0fus (lazy %.0fus, %.2fx)\n"
    ref_k ref_us lazy_us ref_speedup;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"bench\": \"paths\",\n  \"mode\": \"%s\",\n\
                    \  \"iters\": %d,\n"
       (if !placer_smoke then "smoke" else "full")
       iters);
  Buffer.add_string buf (json_meta ());
  Buffer.add_string buf
    (Printf.sprintf
       "  \"workload\": { \"cells\": %d, \"seed\": 17, \"inputs\": 16, \
        \"outputs\": 16, \"depth\": 10, \"clock_period_ps\": 520.0 },\n\
       \  \"endpoints\": %d,\n  \"domains\": [\n"
       cells nend);
  List.iteri
    (fun i (domains, analyze_us, per_k) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"domains\": %d, \"analyze_us\": %.1f,\n      \"ks\": [\n"
           domains analyze_us);
      List.iteri
        (fun j pk ->
          Buffer.add_string buf
            (Printf.sprintf
               "        { \"k\": %d, \"enumerate_us\": %.1f, \"paths\": %d, \
                \"paths_per_s\": %.0f,\n          \"pushed\": %.0f, \
                \"popped\": %.0f, \"pruned\": %.0f, \
                \"endpoints_skipped\": %.0f, \"chunks\": %d }%s\n"
               pk.pk_k pk.pk_enum_us pk.pk_paths pk.pk_rate pk.pk_pushed
               pk.pk_popped pk.pk_pruned pk.pk_skipped pk.pk_chunks
               (if j = List.length per_k - 1 then "" else ",")))
        per_k;
      Buffer.add_string buf
        (Printf.sprintf "      ] }%s\n"
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"reference\": { \"k\": %d, \"iters\": %d, \"enumerate_us\": %.1f, \
        \"lazy_enumerate_us\": %.1f, \"speedup\": %.3f }\n"
       ref_k ref_iters ref_us lazy_us ref_speedup);
  Buffer.add_string buf "}\n";
  let oc = open_out !paths_out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nWrote %s\n" !paths_out

(* ---- fork-join executor benchmark ---- *)

let parallel_out = ref "BENCH_parallel.json"

let bench_parallel () =
  section "Fork-join executor: dispatch latency and end-to-end scaling";
  let cores = Domain.recommended_domain_count () in
  let domain_counts = if !placer_smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let with_pool ?oversubscribe ~domains f =
    let pool = Parallel.create ~domains ?oversubscribe () in
    Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)
  in
  (* -- dispatch latency: empty bodies isolate the executor's own cost.
     The pools oversubscribe so the publish/claim/park machinery runs
     even when the benchmark machine has fewer cores than domains. *)
  Printf.printf "\n  dispatch latency (empty bodies, %d cores):\n" cores;
  let sizes = [ 64; 4_096; 262_144 ] in
  let reps n =
    let r = min 2_000 (max 50 (1_000_000 / n)) in
    if !placer_smoke then max 20 (r / 10) else r
  in
  let time_us r f =
    f ();
    let t0 = Obs.Clock.now () in
    for _ = 1 to r do
      f ()
    done;
    (Obs.Clock.now () -. t0) /. float_of_int r *. 1e6
  in
  let tdisp =
    Report.Table.create [ "domains"; "n"; "auto grain(us)"; "forced 16 chunks(us)" ]
  in
  let dispatch =
    List.map
      (fun domains ->
        let points =
          with_pool ~oversubscribe:true ~domains (fun pool ->
            List.map
              (fun n ->
                let r = reps n in
                (* auto grain: tiny n takes the unified inline fast path *)
                let auto =
                  time_us r (fun () ->
                    Parallel.parallel_for pool ~cost:1.0 n (fun _ -> ()))
                in
                (* forced grain: always publishes a 16-chunk job *)
                let forced =
                  time_us r (fun () ->
                    Parallel.parallel_for pool ~grain:(max 1 (n / 16)) n
                      (fun _ -> ()))
                in
                Report.Table.add_row tdisp
                  [ string_of_int domains; string_of_int n;
                    Printf.sprintf "%.2f" auto; Printf.sprintf "%.2f" forced ];
                (n, auto, forced))
              sizes)
        in
        Printf.printf "  [done] dispatch domains=%d\n%!" domains;
        (domains, points))
      domain_counts
  in
  print_string (Report.Table.render tdisp);
  (* -- end-to-end scaling on the real kernels.  These pools do NOT
     oversubscribe: a pool wider than the machine degrades to inline
     execution, which is exactly the behaviour users see. *)
  let cells = if !placer_smoke then 400 else 5000 in
  let iters = if !placer_smoke then 4 else 20 in
  let steiner_period = Core.default_timing.Core.steiner_period in
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = cells; sp_seed = 17; sp_inputs = 16;
      sp_outputs = 16; sp_depth = 10; sp_clock_period = 520.0 }
  in
  let design, graph = build_bench spec in
  let wl = Wirelength.create design in
  let dens = Density.create design in
  let dt = Difftimer.create ~gamma:20.0 graph in
  let nets = Difftimer.nets dt in
  Sta.Nets.rebuild nets;
  ignore (Difftimer.forward dt);
  let ncells = Netlist.num_cells design in
  let gx = Array.make ncells 0.0 and gy = Array.make ncells 0.0 in
  let measure pool =
    let fwd = time_us iters (fun () -> ignore (Difftimer.forward ?pool dt)) in
    let bwd =
      time_us iters (fun () ->
        Array.fill gx 0 ncells 0.0;
        Array.fill gy 0 ncells 0.0;
        Difftimer.backward ?pool dt ~w_tns:1.0 ~w_wns:1.0 ~grad_x:gx
          ~grad_y:gy)
    in
    (* one GP iteration: every per-iteration kernel, with the Steiner
       rebuild amortised over its reuse period (paper SS3.6) *)
    let body =
      time_us iters (fun () ->
        Array.fill gx 0 ncells 0.0;
        Array.fill gy 0 ncells 0.0;
        ignore (Wirelength.evaluate wl ?pool ~grad_x:gx ~grad_y:gy ());
        Density.update ?pool dens;
        Density.gradient ?pool dens ~scale:1.0 ~grad_x:gx ~grad_y:gy;
        Sta.Nets.refresh ?pool nets;
        ignore (Difftimer.forward ?pool dt);
        Difftimer.backward ?pool dt ~w_tns:1.0 ~w_wns:1.0 ~grad_x:gx
          ~grad_y:gy)
    in
    let rebuild = time_us iters (fun () -> Sta.Nets.rebuild ?pool nets) in
    (fwd, bwd, body +. (rebuild /. float_of_int steiner_period))
  in
  let scaling =
    List.map
      (fun domains ->
        let fwd, bwd, iter_us =
          if domains <= 1 then measure None
          else with_pool ~domains (fun pool -> measure (Some pool))
        in
        Printf.printf "  [done] scaling domains=%d\n%!" domains;
        (domains, fwd, bwd, iter_us))
      domain_counts
  in
  let _, fwd1, bwd1, iter1 = List.hd scaling in
  let tsc =
    Report.Table.create
      [ "domains"; "fwd(us)"; "bwd(us)"; "GP iter(us)"; "iter vs 1 dom" ]
  in
  List.iter
    (fun (domains, fwd, bwd, iter_us) ->
      Report.Table.add_row tsc
        [ string_of_int domains;
          Printf.sprintf "%.0f" fwd;
          Printf.sprintf "%.0f" bwd;
          Printf.sprintf "%.0f" iter_us;
          Printf.sprintf "%.2fx" (iter1 /. iter_us) ])
    scaling;
  print_newline ();
  print_string (Report.Table.render tsc);
  if cores <= 1 then
    Printf.printf
      "\n  note: this machine exposes %d core(s); pools wider than the \
       machine\n  degrade to inline execution (no oversubscription), so the \
       scaling rows\n  bound dispatch overhead rather than demonstrate \
       speedup.\n"
      cores;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"bench\": \"parallel\",\n  \"mode\": \"%s\",\n"
       (if !placer_smoke then "smoke" else "full"));
  Buffer.add_string buf (json_meta ());
  Buffer.add_string buf
    (Printf.sprintf
       "  \"workload\": { \"cells\": %d, \"seed\": 17, \"inputs\": 16, \
        \"outputs\": 16, \"depth\": 10, \"clock_period_ps\": 520.0, \
        \"gamma_ps\": 20.0 },\n  \"dispatch\": [\n"
       cells);
  List.iteri
    (fun i (domains, points) ->
      Buffer.add_string buf
        (Printf.sprintf "    { \"domains\": %d, \"points\": [ " domains);
      Buffer.add_string buf
        (String.concat ", "
           (List.map
              (fun (n, auto, forced) ->
                Printf.sprintf
                  "{ \"n\": %d, \"auto_us\": %.3f, \"forced_us\": %.3f }" n
                  auto forced)
              points));
      Buffer.add_string buf
        (Printf.sprintf " ] }%s\n"
           (if i = List.length dispatch - 1 then "" else ",")))
    dispatch;
  Buffer.add_string buf "  ],\n  \"scaling\": [\n";
  List.iteri
    (fun i (domains, fwd, bwd, iter_us) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"domains\": %d, \"forward_us\": %.1f, \"backward_us\": \
            %.1f, \"iteration_us\": %.1f, \"iteration_speedup_vs_1\": %.3f \
            }%s\n"
           domains fwd bwd iter_us (iter1 /. iter_us)
           (if i = List.length scaling - 1 then "" else ",")))
    scaling;
  Buffer.add_string buf "  ]\n}\n";
  ignore (fwd1, bwd1);
  let oc = open_out !parallel_out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nWrote %s\n" !parallel_out

(* ---- incremental STA benchmark ---- *)

let incremental_out = ref "BENCH_incremental.json"

(* Move small batches of cells (local what-if perturbations, the
   serving-daemon workload), measure pins re-evaluated and latency per
   batch against a full Timer.run of the same placement, and verify the
   reports stay bit-identical.  The batch is 0.25% of the cells: the
   bitwise change-detection cutoff means a move dirties its whole
   transitive fanout cone, and cone unions grow sublinearly but large —
   on this topology a 1%-of-cells batch already touches ~43% of pins,
   while 0.25% stays near 16%.  The acceptance thresholds (<25% of pins
   re-evaluated, bitwise-equal WNS/TNS/endpoint slacks) are enforced
   here: any violation exits nonzero. *)
let bench_incremental () =
  section "Incremental STA: re-propagation cost per move batch vs full run";
  let cells = if !placer_smoke then 400 else 5000 in
  let batches = if !placer_smoke then 5 else 20 in
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = cells; sp_seed = 17; sp_inputs = 16;
      sp_outputs = 16; sp_depth = 10; sp_clock_period = 520.0 }
  in
  let design, graph = build_bench spec in
  let inc = Sta.Incremental.create graph in
  (* the reference timer gets one default (rebuilding) run so its
     Steiner topologies match the incremental engine's; every later run
     freezes topologies on both sides *)
  let reference = Sta.Timer.create graph in
  ignore (Sta.Timer.run ?pool:!pool reference);
  let npins = Netlist.num_pins design in
  let ncells = Netlist.num_cells design in
  let batch_size = max 1 (ncells / 400) in
  let rng = Workload.Rng.create 2024 in
  let region = design.Netlist.region in
  let row = design.Netlist.row_height in
  let bits = Int64.bits_of_float in
  let identical (a : Sta.Timer.report) (b : Sta.Timer.report) =
    bits a.Sta.Timer.setup_wns = bits b.Sta.Timer.setup_wns
    && bits a.Sta.Timer.setup_tns = bits b.Sta.Timer.setup_tns
    && bits a.Sta.Timer.hold_wns = bits b.Sta.Timer.hold_wns
    && bits a.Sta.Timer.hold_tns = bits b.Sta.Timer.hold_tns
    && List.length a.Sta.Timer.endpoint_slacks
       = List.length b.Sta.Timer.endpoint_slacks
    && List.for_all2
         (fun (x : Sta.Timer.endpoint_slack) (y : Sta.Timer.endpoint_slack) ->
           x.Sta.Timer.ep_pin = y.Sta.Timer.ep_pin
           && bits x.Sta.Timer.ep_setup_slack = bits y.Sta.Timer.ep_setup_slack
           && bits x.Sta.Timer.ep_hold_slack = bits y.Sta.Timer.ep_hold_slack)
         a.Sta.Timer.endpoint_slacks b.Sta.Timer.endpoint_slacks
  in
  let t =
    Report.Table.create
      [ "batch"; "moves"; "pins"; "pins%"; "inc(us)"; "full(us)"; "speedup";
        "bitwise" ]
  in
  let rows = ref [] in
  let failures = ref 0 in
  for batch = 1 to batches do
    let moved = ref 0 in
    while !moved < batch_size do
      let c = design.Netlist.cells.(Workload.Rng.int rng ncells) in
      if not c.Netlist.fixed then begin
        incr moved;
        (* local perturbation: up to ~4 row heights in each axis *)
        let hw = c.Netlist.width /. 2.0 and hh = c.Netlist.height /. 2.0 in
        let jitter () = (Workload.Rng.float rng 8.0 -. 4.0) *. row in
        let x =
          Geometry.clamp ~lo:(region.Geometry.Rect.lx +. hw)
            ~hi:(region.Geometry.Rect.hx -. hw) (c.Netlist.x +. jitter ())
        and y =
          Geometry.clamp ~lo:(region.Geometry.Rect.ly +. hh)
            ~hi:(region.Geometry.Rect.hy -. hh) (c.Netlist.y +. jitter ())
        in
        Sta.Incremental.move_cell inc c.Netlist.cell_id ~x ~y
      end
    done;
    let t0 = Obs.Clock.now () in
    let ir = Sta.Incremental.update inc in
    let inc_us = (Obs.Clock.now () -. t0) *. 1e6 in
    let t0 = Obs.Clock.now () in
    let fr = Sta.Timer.run ~rebuild_trees:false ?pool:!pool reference in
    let full_us = (Obs.Clock.now () -. t0) *. 1e6 in
    let stats = Sta.Incremental.last_stats inc in
    let pins = stats.Sta.Incremental.us_pins in
    let frac = float_of_int pins /. float_of_int npins in
    let same = identical ir fr in
    if not same then incr failures;
    Report.Table.add_row t
      [ string_of_int batch; string_of_int batch_size; string_of_int pins;
        Printf.sprintf "%.1f" (100.0 *. frac);
        Printf.sprintf "%.0f" inc_us; Printf.sprintf "%.0f" full_us;
        Printf.sprintf "%.1fx" (full_us /. Float.max 1e-9 inc_us);
        (if same then "yes" else "NO") ];
    rows := (batch, pins, frac, inc_us, full_us, same, stats) :: !rows
  done;
  let rows = List.rev !rows in
  print_string (Report.Table.render t);
  let mean f =
    List.fold_left (fun acc r -> acc +. f r) 0.0 rows
    /. float_of_int (List.length rows)
  in
  let mean_frac = mean (fun (_, _, f, _, _, _, _) -> f) in
  let mean_inc = mean (fun (_, _, _, i, _, _, _) -> i) in
  let mean_full = mean (fun (_, _, _, _, f, _, _) -> f) in
  Printf.printf
    "\n  mean: %.1f%% of %d pins re-evaluated per %d-move batch; \
     %.0f us incremental vs %.0f us full (%.1fx)\n"
    (100.0 *. mean_frac) npins batch_size mean_inc mean_full
    (mean_full /. Float.max 1e-9 mean_inc);
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"bench\": \"incremental\",\n  \"mode\": \"%s\",\n"
       (if !placer_smoke then "smoke" else "full"));
  Buffer.add_string buf (json_meta ());
  Buffer.add_string buf
    (Printf.sprintf
       "  \"workload\": { \"cells\": %d, \"seed\": 17, \"inputs\": 16, \
        \"outputs\": 16, \"depth\": 10, \"clock_period_ps\": 520.0 },\n\
       \  \"pins\": %d,\n  \"batch_size\": %d,\n  \"batches\": [\n"
       cells npins batch_size);
  List.iteri
    (fun i (batch, pins, frac, inc_us, full_us, same, stats) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"batch\": %d, \"pins_reevaluated\": %d, \"pin_fraction\": \
            %.4f, \"changed\": %d, \"nets\": %d, \"levels\": %d, \
            \"incremental_us\": %.1f, \"full_us\": %.1f, \"bit_identical\": \
            %b }%s\n"
           batch pins frac stats.Sta.Incremental.us_changed
           stats.Sta.Incremental.us_nets stats.Sta.Incremental.us_levels
           inc_us full_us same
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf
    (Printf.sprintf
       "  ],\n  \"mean_pin_fraction\": %.4f,\n  \"mean_incremental_us\": \
        %.1f,\n  \"mean_full_us\": %.1f,\n  \"speedup\": %.2f\n}\n"
       mean_frac mean_inc mean_full (mean_full /. Float.max 1e-9 mean_inc));
  let oc = open_out !incremental_out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nWrote %s\n" !incremental_out;
  if !failures > 0 then begin
    Printf.eprintf
      "FAIL: %d/%d batches not bit-identical to the full run\n" !failures
      batches;
    exit 1
  end;
  (* the <25% acceptance bound is defined on the 5k-cell design; a
     smoke-sized design dirties a much larger fraction per batch *)
  if (not !placer_smoke) && mean_frac >= 0.25 then begin
    Printf.eprintf
      "FAIL: mean pin fraction %.3f >= 0.25 acceptance threshold\n" mean_frac;
    exit 1
  end

(* ---- routability benchmark ---- *)

let routability_out = ref "BENCH_routability.json"

(* Place a deliberately congested (hotspot) workload twice at the same
   iteration budget -- routability off, then on -- and compare the RUDY
   congestion of the two final placements plus the HPWL cost of paying
   for it; also time the RUDY kernel itself at the bench point.  The
   acceptance thresholds (peak bin overflow -- utilization in excess of
   capacity -- down >= 30%, HPWL up <= 10%) are gated by
   scripts/check_bench.py on the JSON this writes.  Cell inflation can
   only move demand contributed by cells sitting in the hot bins, not
   demand from net bboxes that merely cross them, so the overflow
   excess is the quantity the loop can actually drive down. *)
let bench_routability () =
  section "Routability: RUDY + cell inflation on a congestion hotspot";
  let cells = if !placer_smoke then 400 else 5000 in
  let iters = if !placer_smoke then 400 else 600 in
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = cells; sp_seed = 17; sp_inputs = 16;
      sp_outputs = 16; sp_depth = 10; sp_clock_period = 520.0;
      sp_hotspot = 0.15; sp_hotspot_clusters = 1 }
  in
  (* capacity calibrated so only the hotspot bins sit above the
     inflation target -- with the default 1.0 the whole map reads as
     congested and inflation degenerates to uniform spreading *)
  let route_cfg =
    { Route.default_config with
      Route.rt_capacity = 2.4; rt_check_overflow = 0.30;
      rt_check_period = 10; rt_inflation_coef = 1.5; rt_max_ratio = 6.0;
      rt_max_rounds = 16 }
  in
  (* equal iteration budget: min = max forces both runs through exactly
     [iters] placement iterations, early stop disabled *)
  let run routability =
    let design, graph = build_bench spec in
    let config =
      { Core.default_config with
        Core.mode = Core.Wirelength_only;
        max_iterations = iters; min_iterations = iters;
        routability = (if routability then Some route_cfg else None) }
    in
    let result = Core.run ?pool:!pool config graph in
    ignore (Legalize.legalize design);
    (* same yardstick for both rows: a fresh RUDY map of the legalised
       placement at the default knobs (cell sizes are back to their
       originals; Core restores before its final metrics) *)
    let rudy = Route.Rudy.create design in
    Route.Rudy.update ?pool:!pool rudy;
    let cong = Route.overflow rudy in
    (design, result, cong, Netlist.total_hpwl design)
  in
  let _, r_off, c_off, hpwl_off = run false in
  Printf.printf "  [done] routability off (%d iters)\n%!"
    r_off.Core.res_iterations;
  let design_on, r_on, c_on, hpwl_on = run true in
  Printf.printf "  [done] routability on (%d iters, %d inflation rounds)\n%!"
    r_on.Core.res_iterations r_on.Core.res_inflation_rounds;
  (* RUDY kernel throughput at the bench point *)
  let rudy = Route.Rudy.create design_on in
  let reps = if !placer_smoke then 20 else 50 in
  Route.Rudy.update ?pool:!pool rudy;
  let t0 = Obs.Clock.now () in
  for _ = 1 to reps do
    Route.Rudy.update ?pool:!pool rudy
  done;
  let rudy_us = (Obs.Clock.now () -. t0) /. float_of_int reps *. 1e6 in
  let peak_reduction =
    100.0 *. (c_off.Route.ov_peak -. c_on.Route.ov_peak)
    /. Float.max 1e-9 c_off.Route.ov_peak
  in
  (* the gated metric: peak bin overflow = peak utilization in excess
     of the (normalised 1.0) capacity *)
  let excess (c : Route.summary) = Float.max 0.0 (c.Route.ov_peak -. 1.0) in
  let peak_overflow_reduction =
    100.0 *. (excess c_off -. excess c_on) /. Float.max 1e-9 (excess c_off)
  in
  let hpwl_degradation =
    100.0 *. (hpwl_on -. hpwl_off) /. Float.max 1e-9 hpwl_off
  in
  let t =
    Report.Table.create
      [ "routability"; "peak"; "rc"; "bins>1"; "overflow"; "HPWL";
        "rounds"; "runtime(s)" ]
  in
  let row name (c : Route.summary) hpwl (r : Core.result) =
    Report.Table.add_row t
      [ name;
        Printf.sprintf "%.3f" c.Route.ov_peak;
        Printf.sprintf "%.3f" c.Route.ov_rc;
        string_of_int c.Route.ov_congested;
        Printf.sprintf "%.2f" c.Route.ov_total;
        Printf.sprintf "%.3e" hpwl;
        string_of_int r.Core.res_inflation_rounds;
        Printf.sprintf "%.2f" r.Core.res_runtime ]
  in
  row "off" c_off hpwl_off r_off;
  row "on" c_on hpwl_on r_on;
  print_newline ();
  print_string (Report.Table.render t);
  Printf.printf
    "\n  peak overflow %+.1f%% (utilization %+.1f%%), HPWL %+.1f%%; \
     RUDY update %.0f us (%d bins, %d cells)\n"
    (-.peak_overflow_reduction) (-.peak_reduction) hpwl_degradation rudy_us
    (let n = Route.Rudy.bins rudy in
     n * n)
    cells;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"bench\": \"routability\",\n  \"mode\": \"%s\",\n"
       (if !placer_smoke then "smoke" else "full"));
  Buffer.add_string buf (json_meta ());
  Buffer.add_string buf
    (Printf.sprintf
       "  \"workload\": { \"cells\": %d, \"seed\": 17, \"inputs\": 16, \
        \"outputs\": 16, \"depth\": 10, \"clock_period_ps\": 520.0, \
        \"hotspot\": 0.15, \"hotspot_clusters\": 1 },\n\
       \  \"iterations\": %d,\n  \"rudy_bins\": %d,\n"
       cells iters (Route.Rudy.bins rudy));
  let emit_run name (c : Route.summary) hpwl (r : Core.result) =
    Buffer.add_string buf
      (Printf.sprintf
         "  \"%s\": { \"peak_utilization\": %.4f, \"rc_utilization\": %.4f, \
          \"congested_bins\": %d, \"total_overflow\": %.4f, \"hpwl\": %.6e, \
          \"inflation_rounds\": %d, \"runtime_s\": %.2f },\n"
         name c.Route.ov_peak c.Route.ov_rc c.Route.ov_congested
         c.Route.ov_total hpwl r.Core.res_inflation_rounds r.Core.res_runtime)
  in
  emit_run "off" c_off hpwl_off r_off;
  emit_run "on" c_on hpwl_on r_on;
  Buffer.add_string buf
    (Printf.sprintf
       "  \"peak_reduction_pct\": %.2f,\n\
       \  \"peak_overflow_reduction_pct\": %.2f,\n\
       \  \"hpwl_degradation_pct\": %.2f,\n\
       \  \"rudy_update_us\": %.1f\n}\n"
       peak_reduction peak_overflow_reduction hpwl_degradation rudy_us);
  let oc = open_out !routability_out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nWrote %s\n" !routability_out

(* ---- multilevel: flat engine vs coarsen/uncoarsen V-cycle ---- *)

let multilevel_out = ref "BENCH_multilevel.json"

let bench_multilevel () =
  section "Multilevel: flat engine vs coarsen/uncoarsen V-cycle";
  let cells = if !placer_smoke then 4000 else 50_000 in
  let levels = if !placer_smoke then 2 else 3 in
  let iters = 600 in
  let spec = { Workload.default_spec with Workload.sp_cells = cells } in
  (* the flat engine's own configuration; the V-cycle takes exactly the
     same config, so the comparison is at a matched quality target
     (same stop_overflow, same iteration ceiling) *)
  let cfg =
    { Core.default_config with
      Core.mode = Core.Wirelength_only; max_iterations = iters }
  in
  let place name f spec levels =
    let design, graph = build_bench spec in
    let ml = { Core.default_multilevel with Core.ml_levels = levels } in
    let r =
      match f with
      | `Flat -> Core.run ?pool:!pool cfg graph
      | `Vcycle -> Core.run_multilevel ?pool:!pool ~ml cfg graph
    in
    let hpwl = Netlist.total_hpwl design in
    Printf.printf
      "  [done] %s: %d iters, %.2f s, HPWL %.4e (overflow %.3f)\n%!" name
      r.Core.res_iterations r.Core.res_runtime hpwl r.Core.res_overflow;
    (r, hpwl)
  in
  let flat_r, flat_hpwl = place "flat" `Flat spec levels in
  let v_r, v_hpwl =
    place (Printf.sprintf "V-cycle (%d levels)" levels) `Vcycle spec levels
  in
  let speedup =
    flat_r.Core.res_runtime /. Float.max 1e-9 v_r.Core.res_runtime
  in
  let hpwl_ratio = v_hpwl /. Float.max 1e-9 flat_hpwl in
  (* scalability point: a 200k-cell V-cycle end-to-end (the flat engine
     need not complete here, so only the V-cycle runs) *)
  let big =
    if !placer_smoke then None
    else begin
      let cells200 = 200_000 and levels200 = 4 in
      let spec200 =
        { Workload.default_spec with Workload.sp_cells = cells200 }
      in
      let r, hpwl =
        place
          (Printf.sprintf "V-cycle %dk (%d levels)" (cells200 / 1000)
             levels200)
          `Vcycle spec200 levels200
      in
      Some (cells200, levels200, r, hpwl)
    end
  in
  let t =
    Report.Table.create
      [ "engine"; "cells"; "iters"; "runtime(s)"; "HPWL"; "overflow" ]
  in
  let row name cells (r : Core.result) hpwl =
    Report.Table.add_row t
      [ name; string_of_int cells; string_of_int r.Core.res_iterations;
        Printf.sprintf "%.2f" r.Core.res_runtime;
        Printf.sprintf "%.4e" hpwl;
        Printf.sprintf "%.3f" r.Core.res_overflow ]
  in
  row "flat" cells flat_r flat_hpwl;
  row (Printf.sprintf "V-cycle/%d" levels) cells v_r v_hpwl;
  (match big with
   | Some (c, l, r, hpwl) -> row (Printf.sprintf "V-cycle/%d" l) c r hpwl
   | None -> ());
  print_newline ();
  print_string (Report.Table.render t);
  Printf.printf "\n  speedup %.2fx, HPWL ratio %.4f (peak RSS %.0f MB)\n"
    speedup hpwl_ratio
    (Obs.peak_rss_bytes () /. 1048576.0);
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"bench\": \"multilevel\",\n  \"mode\": \"%s\",\n"
       (if !placer_smoke then "smoke" else "full"));
  Buffer.add_string buf (json_meta ());
  Buffer.add_string buf
    (Printf.sprintf
       "  \"workload\": { \"cells\": %d, \"seed\": %d },\n\
       \  \"iterations_budget\": %d,\n  \"levels\": %d,\n"
       cells Workload.default_spec.Workload.sp_seed iters levels);
  let emit_run name (r : Core.result) hpwl =
    Buffer.add_string buf
      (Printf.sprintf
         "  \"%s\": { \"iterations\": %d, \"runtime_s\": %.3f, \
          \"hpwl\": %.6e, \"overflow\": %.4f },\n"
         name r.Core.res_iterations r.Core.res_runtime hpwl
         r.Core.res_overflow)
  in
  emit_run "flat" flat_r flat_hpwl;
  emit_run "vcycle" v_r v_hpwl;
  (match big with
   | Some (c, l, r, hpwl) ->
     Buffer.add_string buf
       (Printf.sprintf
          "  \"vcycle_200k\": { \"cells\": %d, \"levels\": %d, \
           \"iterations\": %d, \"runtime_s\": %.3f, \"hpwl\": %.6e, \
           \"overflow\": %.4f },\n"
          c l r.Core.res_iterations r.Core.res_runtime hpwl
          r.Core.res_overflow)
   | None -> ());
  Buffer.add_string buf
    (Printf.sprintf
       "  \"speedup\": %.4f,\n  \"hpwl_ratio\": %.6f\n}\n" speedup
       hpwl_ratio);
  let oc = open_out !multilevel_out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nWrote %s\n" !multilevel_out

(* ---- driver ---- *)

let all_targets =
  [ ("table1", table1); ("table2", table2); ("table3", table3);
    ("figure8", figure8); ("kernels", kernels);
    ("ablation-gamma", ablation_gamma); ("ablation-reuse", ablation_reuse);
    ("ablation-extensions", ablation_extensions); ("gradcheck", gradcheck);
    ("placer-iter", placer_iter);
    ("paths", bench_paths); ("parallel", bench_parallel);
    ("incremental", bench_incremental); ("routability", bench_routability);
    ("multilevel", bench_multilevel) ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse acc rest
    | "--smoke" :: rest ->
      placer_smoke := true;
      parse acc rest
    | "--domains" :: v :: rest ->
      let domains = int_of_string v in
      if domains > 1 then pool := Some (Parallel.create ~domains ());
      parse acc rest
    | "--placer-out" :: v :: rest ->
      placer_out := v;
      parse acc rest
    | "--paths-out" :: v :: rest ->
      paths_out := v;
      parse acc rest
    | "--parallel-out" :: v :: rest ->
      parallel_out := v;
      parse acc rest
    | "--incremental-out" :: v :: rest ->
      incremental_out := v;
      parse acc rest
    | "--routability-out" :: v :: rest ->
      routability_out := v;
      parse acc rest
    | "--multilevel-out" :: v :: rest ->
      multilevel_out := v;
      parse acc rest
    | x :: rest -> parse (x :: acc) rest
  in
  let targets = parse [] args in
  let targets = if targets = [] || targets = [ "all" ] then
      List.map fst all_targets
    else targets
  in
  Printf.printf
    "Differentiable-timing-driven global placement: benchmark harness\n";
  Printf.printf "(scale %g; see DESIGN.md for the experiment index)\n" !scale;
  List.iter
    (fun name ->
      match List.assoc_opt name all_targets with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown target %S; known: %s all\n" name
          (String.concat " " (List.map fst all_targets));
        exit 1)
    targets;
  match !pool with Some p -> Parallel.shutdown p | None -> ()
