(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Table 2, Table 3, Figure 8) on the superblue-mini
   workloads, plus the ablations called out in DESIGN.md and two
   measurements no placement flow makes: executor dispatch latency and
   lazy top-K path enumeration versus K.  Every target prints tables;
   end-to-end runtime and quality are measured by perfbench/run.py.

   Usage:  dune exec bench/main.exe [-- <target> ...]
   Targets: table1 table2 table3 figure8 ablation-gamma ablation-reuse
            paths parallel all (default: all)
   Options: --scale <f>       benchmark scale factor (default 0.01)
            --smoke           tiny paths/parallel run for CI
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
    ("PathWeight[paths]", Core.Net_weighting Netweight.path_config);
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

let smoke = ref false

(* ---- top-K path enumeration: lazy engine throughput vs K ---- *)

let bench_paths () =
  section "Top-K path enumeration (lib/paths): throughput vs K over domains";
  let cells = if !smoke then 400 else 5000 in
  let iters = if !smoke then 4 else 16 in
  let ks = if !smoke then [ 1; 4; 16 ] else [ 1; 8; 32; 128 ] in
  let domain_counts = if !smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
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
  let measure domains pool =
    let analyze_us = time_us (fun () -> Paths.analyze ?pool timer) in
    let view = Paths.analyze ?pool timer in
    List.iteri
      (fun i k ->
        let enum_us = time_us (fun () -> Paths.enumerate ?pool ~k view) in
        let obs = Obs.create () in
        let npaths = List.length (Paths.enumerate ?pool ~obs ~k view) in
        let counter name =
          Option.value ~default:0.0 (List.assoc_opt name (Obs.counters obs))
        in
        let grain = Paths.enumerate_grain ~k nend in
        Report.Table.add_row t
          [ (if i = 0 then string_of_int domains else "");
            (if i = 0 then Printf.sprintf "%.0f" analyze_us else "");
            string_of_int k;
            Printf.sprintf "%.0f" enum_us;
            string_of_int npaths;
            Printf.sprintf "%.0f"
              (if enum_us > 0.0 then float_of_int npaths /. (enum_us *. 1e-6)
               else 0.0);
            Printf.sprintf "%.0f" (counter "paths.popped");
            Printf.sprintf "%.0f" (counter "paths.pruned");
            string_of_int ((nend + grain - 1) / grain) ])
      ks
  in
  List.iter
    (fun domains ->
      if domains <= 1 then measure domains None
      else begin
        let pool = Parallel.create ~domains () in
        Fun.protect
          ~finally:(fun () -> Parallel.shutdown pool)
          (fun () -> measure domains (Some pool))
      end;
      Printf.printf "  [done] domains=%d\n%!" domains)
    domain_counts;
  print_newline ();
  print_string (Report.Table.render t)

(* ---- fork-join executor: dispatch latency ---- *)

(* Empty bodies isolate the executor's own cost.  The pools
   oversubscribe so the publish/claim/park machinery runs even when the
   machine has fewer cores than domains. *)
let bench_parallel () =
  section
    (Printf.sprintf "Fork-join executor: dispatch latency (empty bodies, %d \
                     cores)" (Domain.recommended_domain_count ()));
  let domain_counts = if !smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let sizes = [ 64; 4_096; 262_144 ] in
  let reps n =
    let r = min 2_000 (max 50 (1_000_000 / n)) in
    if !smoke then max 20 (r / 10) else r
  in
  let time_us r f =
    f ();
    let t0 = Obs.Clock.now () in
    for _ = 1 to r do
      f ()
    done;
    (Obs.Clock.now () -. t0) /. float_of_int r *. 1e6
  in
  let t =
    Report.Table.create [ "domains"; "n"; "auto grain(us)"; "forced 16 chunks(us)" ]
  in
  List.iter
    (fun domains ->
      let pool = Parallel.create ~domains ~oversubscribe:true () in
      Fun.protect
        ~finally:(fun () -> Parallel.shutdown pool)
        (fun () ->
          List.iter
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
              Report.Table.add_row t
                [ string_of_int domains; string_of_int n;
                  Printf.sprintf "%.2f" auto; Printf.sprintf "%.2f" forced ])
            sizes);
      Printf.printf "  [done] domains=%d\n%!" domains)
    domain_counts;
  print_newline ();
  print_string (Report.Table.render t)

(* ---- driver ---- *)

let all_targets =
  [ ("table1", table1); ("table2", table2); ("table3", table3);
    ("figure8", figure8); ("ablation-gamma", ablation_gamma);
    ("ablation-reuse", ablation_reuse);
    ("paths", bench_paths); ("parallel", bench_parallel) ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse acc rest
    | "--smoke" :: rest ->
      smoke := true;
      parse acc rest
    | "--domains" :: v :: rest ->
      let domains = int_of_string v in
      if domains > 1 then pool := Some (Parallel.create ~domains ());
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
