(* A realistic mini-flow on a superblue-mini benchmark:

   generate -> save to disk -> reload -> global placement (timing-driven)
   -> legalisation -> signoff STA with a critical-endpoint report.

   This is the workload the paper's introduction motivates: a design that
   misses timing after wirelength-driven placement, recovered by the
   differentiable timing objective without a wirelength penalty.

     dune exec examples/timing_driven_flow.exe \
       [-- --domains N] [--profile] [--trace-out FILE]
       [--steiner-period N] [--steiner-dirty G] [--routability]

   With --domains N > 1 every per-iteration kernel runs through a worker
   pool; the resulting placement is bit-identical to the sequential
   one.  --profile prints the per-kernel timing table to stderr;
   --trace-out dumps the span-level JSONL trace.  --steiner-period and
   --steiner-dirty control the timing stage's Steiner rebuild cadence
   and dirty-net threshold (gamma units; negative = rebuild all).
   --routability enables the RUDY + cell-inflation loop in every
   placement stage and reports the final congestion summary.
   --multilevel runs every placement stage through the coarsen/uncoarsen
   V-cycle instead of the flat engine (--levels and --cluster-ratio
   control the cluster hierarchy); on this 3k-cell design it is mostly a
   demonstration — the V-cycle pays off from ~50k cells up. *)

let parse_args () =
  let domains = ref 1 and profile = ref false and trace_out = ref None in
  let steiner_period = ref Core.default_timing.Core.steiner_period in
  let steiner_dirty = ref Core.default_timing.Core.steiner_dirty in
  let routability = ref false in
  let multilevel = ref false in
  let levels = ref Core.default_multilevel.Core.ml_levels in
  let cluster_ratio = ref Core.default_multilevel.Core.ml_cluster_ratio in
  let rec scan = function
    | "--domains" :: v :: rest ->
      domains := int_of_string v;
      scan rest
    | "--profile" :: rest ->
      profile := true;
      scan rest
    | "--trace-out" :: v :: rest ->
      trace_out := Some v;
      scan rest
    | "--steiner-period" :: v :: rest ->
      steiner_period := int_of_string v;
      scan rest
    | "--steiner-dirty" :: v :: rest ->
      let g = float_of_string v in
      steiner_dirty := (if g < 0.0 then None else Some g);
      scan rest
    | "--routability" :: rest ->
      routability := true;
      scan rest
    | "--multilevel" :: rest ->
      multilevel := true;
      scan rest
    | "--levels" :: v :: rest ->
      levels := int_of_string v;
      scan rest
    | "--cluster-ratio" :: v :: rest ->
      cluster_ratio := float_of_string v;
      scan rest
    | _ :: rest -> scan rest
    | [] -> ()
  in
  scan (List.tl (Array.to_list Sys.argv));
  (!domains, !profile, !trace_out, !steiner_period, !steiner_dirty,
   !routability, !multilevel, !levels, !cluster_ratio)

let () =
  let lib = Liberty.Synthetic.default () in
  let ( domains, profile, trace_out, steiner_period, steiner_dirty,
        routability, multilevel, levels, cluster_ratio ) =
    parse_args ()
  in
  let ml =
    { Core.default_multilevel with
      Core.ml_levels = levels; ml_cluster_ratio = cluster_ratio }
  in
  let route_cfg = if routability then Some Route.default_config else None in
  let report_congestion (r : Core.result) =
    match r.Core.res_route with
    | Some s ->
      Format.printf "  congestion: %a (%d inflation rounds)@."
        Route.pp_summary s r.Core.res_inflation_rounds
    | None -> ()
  in
  let pool =
    if domains > 1 then Some (Parallel.create ~domains ()) else None
  in
  let obs =
    if profile || trace_out <> None then Obs.create ~gc:true ()
    else Obs.disabled
  in
  let place cfg graph =
    if multilevel then Core.run_multilevel ?pool ~obs ~ml cfg graph
    else Core.run ?pool ~obs cfg graph
  in
  (* pick a scaled superblue benchmark and round-trip it through the
     on-disk format, as an external user would *)
  let spec =
    match Workload.find_spec "superblue18-mini" with
    | Some s -> { s with Workload.sp_cells = 3000 }
    | None -> failwith "missing benchmark spec"
  in
  let design0, constraints0 = Workload.generate lib spec in
  let dir = Filename.temp_file "dgp" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let design_path = Filename.concat dir "superblue18-mini.design" in
  Bookshelf.save design_path design0 constraints0;
  Printf.printf "wrote %s (%d cells)\n%!" design_path
    (Netlist.num_cells design0);
  let design, constraints = Bookshelf.load lib design_path in
  let graph = Sta.Graph.build design lib constraints in
  Printf.printf "timing graph: %d levels, %d endpoints\n%!"
    (Sta.Graph.max_level graph + 1)
    (Array.length graph.Sta.Graph.endpoints);

  (* stage 1: wirelength-driven placement to convergence (the flow every
     placer shares) *)
  let wl_cfg =
    { Core.default_config with
      Core.mode = Core.Wirelength_only; routability = route_cfg }
  in
  let r1 = place wl_cfg graph in
  let timer = Sta.Timer.create graph in
  let before = Sta.Timer.run ~obs timer in
  Printf.printf
    "\nwirelength-driven GP: %d iters, HPWL %.3e, WNS %.1f ps, TNS %.1f ps\n%!"
    r1.Core.res_iterations r1.Core.res_hpwl before.Sta.Timer.setup_wns
    before.Sta.Timer.setup_tns;
  report_congestion r1;

  (* stage 2: the path-weighting baseline from scratch on the same
     netlist — exact STA + top-K worst-path net weighting *)
  let pw_cfg =
    { Core.default_config with
      Core.mode = Core.Net_weighting Netweight.path_config;
      routability = route_cfg }
  in
  let rpw = place pw_cfg graph in
  let pw_report = Sta.Timer.run ~obs timer in
  Printf.printf
    "path-weighted GP: %d iters, HPWL %.3e, WNS %.1f ps, TNS %.1f ps\n%!"
    rpw.Core.res_iterations rpw.Core.res_hpwl pw_report.Sta.Timer.setup_wns
    pw_report.Sta.Timer.setup_tns;
  report_congestion rpw;

  (* stage 3: timing-driven placement from scratch on the same netlist *)
  let t_cfg =
    { Core.default_config with
      Core.mode =
        Core.Differentiable_timing
          { Core.default_timing with Core.steiner_period; steiner_dirty };
      routability = route_cfg }
  in
  let r2 = place t_cfg graph in
  report_congestion r2;
  ignore (Legalize.legalize ~obs design);
  let dp = Detailed.refine ~obs design in
  Format.printf "\ndetailed placement:@.%a@." Detailed.pp_stats dp;
  let after = Sta.Timer.run ~obs timer in
  Printf.printf
    "timing-driven GP + LG + DP: %d iters, HPWL %.3e, WNS %.1f ps, TNS %.1f ps\n%!"
    r2.Core.res_iterations (Netlist.total_hpwl design)
    after.Sta.Timer.setup_wns after.Sta.Timer.setup_tns;
  let pct a b = 100.0 *. (b -. a) /. Float.abs a in
  Printf.printf "improvement: WNS %.1f%%, TNS %.1f%%\n"
    (pct before.Sta.Timer.setup_wns after.Sta.Timer.setup_wns)
    (pct before.Sta.Timer.setup_tns after.Sta.Timer.setup_tns);

  (* signoff-style endpoint report *)
  Printf.printf "\n5 most critical endpoints after optimisation:\n";
  List.iteri
    (fun i (ep : Sta.Timer.endpoint_slack) ->
      if i < 5 then
        Printf.printf "  %-12s slack %8.1f ps\n"
          design.Netlist.pins.(ep.Sta.Timer.ep_pin).Netlist.pin_name
          ep.Sta.Timer.ep_setup_slack)
    after.Sta.Timer.endpoint_slacks;

  (* and the three worst paths, via the top-K enumeration engine *)
  let view = Paths.analyze ~obs timer in
  let worst = Paths.enumerate ?pool ~obs ~k:3 view in
  Printf.printf "\n%d worst paths:\n" (List.length worst);
  List.iteri
    (fun i (p : Paths.path) ->
      Printf.printf "  #%d  %-12s slack %8.1f ps  (%d stages)\n" (i + 1)
        design.Netlist.pins.(p.Paths.pt_endpoint).Netlist.pin_name
        p.Paths.pt_slack
        (List.length p.Paths.pt_steps))
    worst;
  Sys.remove design_path;
  Sys.rmdir dir;
  (match trace_out with
   | Some path ->
     Obs.write_trace obs path;
     Printf.printf "\nprofiling trace written to %s\n" path
   | None -> ());
  if profile then Format.eprintf "%a@." Obs.pp_report obs;
  match pool with Some p -> Parallel.shutdown p | None -> ()
