(* dgp_place: run global placement (wirelength / net-weighting /
   differentiable-timing) on a design, optionally legalise, score with
   exact STA and save the result. *)

open Cmdliner

let mode_conv =
  let parse s =
    match Dgp_common.mode_of_string s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg (Printf.sprintf "unknown mode %S %s" s Dgp_common.mode_choices))
  in
  let print ppf = function
    | Core.Wirelength_only -> Format.pp_print_string ppf "wl"
    | Core.Net_weighting { Netweight.criticality = Netweight.Net_slack; _ } ->
      Format.pp_print_string ppf "netweight"
    | Core.Net_weighting { Netweight.criticality = Netweight.Top_paths _; _ } ->
      Format.pp_print_string ppf "pathweight"
    | Core.Differentiable_timing _ -> Format.pp_print_string ppf "timing"
  in
  Arg.conv (parse, print)

let mode =
  let doc = "Placement mode: wl (DREAMPlace baseline), netweight \
             (net-weighting baseline [24]), pathweight (top-K \
             critical-path weighting) or timing (this paper)." in
  Arg.(value & opt mode_conv (Core.Differentiable_timing Core.default_timing)
       & info [ "mode"; "m" ] ~docv:"MODE" ~doc)

let iterations =
  let doc = "Maximum placement iterations." in
  Arg.(value & opt int 600 & info [ "iterations"; "i" ] ~docv:"N" ~doc)

(* A float flag that must be finite, and positive when [positive]. *)
let finite_float ~positive =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok v when Float.is_finite v && (v > 0.0 || not positive) -> Ok v
    | Ok _ ->
      Error
        (`Msg
           (Printf.sprintf "%S is not a finite%s number" s
              (if positive then " positive" else "")))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let t1 =
  let doc = "TNS objective weight (timing mode); finite." in
  Arg.(value & opt (finite_float ~positive:false) Core.default_timing.Core.t1
       & info [ "t1" ] ~doc)

let t2 =
  let doc = "WNS objective weight (timing mode); finite." in
  Arg.(value & opt (finite_float ~positive:false) Core.default_timing.Core.t2
       & info [ "t2" ] ~doc)

let gamma =
  let doc = "LSE smoothing width in ps (timing mode); finite and \
             positive (a negative width turns the LSE max into a \
             soft-min)." in
  Arg.(value & opt (finite_float ~positive:true) Core.default_timing.Core.gamma
       & info [ "gamma" ] ~doc)

let steiner_period =
  let doc = "Steiner topology rebuild cadence in iterations (timing \
             mode; the paper's reuse-FLUTE-results period)." in
  Arg.(value & opt int Core.default_timing.Core.steiner_period
       & info [ "steiner-period" ] ~docv:"N" ~doc)

let steiner_dirty =
  let doc = "Dirty-net rebuild threshold in gamma units (timing mode): \
             on a rebuild tick only nets with a pin displaced more than \
             $(docv) * gamma since their last topologisation are \
             re-topologised.  Negative = rebuild every net each tick." in
  Arg.(value
       & opt float
           (match Core.default_timing.Core.steiner_dirty with
            | Some g -> g
            | None -> -1.0)
       & info [ "steiner-dirty" ] ~docv:"G" ~doc)

let no_legalize =
  let doc = "Skip the Tetris legalisation step." in
  Arg.(value & flag & info [ "no-legalize" ] ~doc)

let out_file =
  let doc = "Save the placed design to $(docv) (bookshelf-lite)." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let svg_file =
  let doc = "Render the final placement to $(docv) (SVG), with the
             critical path overlaid." in
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc)

let svg_paths =
  let doc = "Number of worst paths to overlay on the SVG plot." in
  Arg.(value & opt int 1 & info [ "svg-paths" ] ~docv:"K" ~doc)

let svg_congestion =
  let doc = "Overlay the RUDY congestion heatmap on the SVG plot \
             (congested bins shade red)." in
  Arg.(value & flag & info [ "svg-congestion" ] ~doc)

let routability =
  let doc = "Enable routability mode: measure RUDY congestion between \
             placement rounds and temporarily inflate cells in \
             congested bins so the density penalty spreads them." in
  Arg.(value & flag & info [ "routability" ] ~doc)

let routability_capacity =
  let doc = "Routing capacity per unit bin area (utilization = demand \
             density / capacity)." in
  Arg.(value & opt float Route.default_config.Route.rt_capacity
       & info [ "routability-capacity" ] ~docv:"C" ~doc)

let routability_target =
  let doc = "Bin utilization above which cells inflate." in
  Arg.(value & opt float Route.default_config.Route.rt_target
       & info [ "routability-target" ] ~docv:"U" ~doc)

let routability_max_ratio =
  let doc = "Cumulative per-cell area inflation cap." in
  Arg.(value & opt float Route.default_config.Route.rt_max_ratio
       & info [ "routability-max-ratio" ] ~docv:"R" ~doc)

let routability_max_rounds =
  let doc = "Maximum inflation rounds per run." in
  Arg.(value & opt int Route.default_config.Route.rt_max_rounds
       & info [ "routability-max-rounds" ] ~docv:"N" ~doc)

let trace_file =
  let doc = "Write the per-iteration trace to $(docv) as CSV." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let verbose =
  let doc = "Print progress every 50 iterations." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let profile =
  let doc = "Record per-kernel timings (monotonic clock) and print the \
             profile table to stderr at exit." in
  Arg.(value & flag & info [ "profile" ] ~doc)

let trace_out =
  let doc = "Write the span-level profiling trace to $(docv) as JSONL \
             (implies recording; combine with $(b,--profile) for the \
             summary table)." in
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE" ~doc)

let domains =
  let doc = "Worker domains for the per-iteration kernels (wirelength, \
             density, Steiner/RC, STA and the differentiable timer; 1 = \
             sequential).  Results are bit-identical across domain \
             counts." in
  Arg.(value & opt int 1 & info [ "domains"; "j" ] ~docv:"N" ~doc)

let stop_overflow =
  let doc = "Density overflow at which the placement stops (the shared \
             quality target of every mode and of the multilevel \
             V-cycle)." in
  Arg.(value & opt float Core.default_config.Core.stop_overflow
       & info [ "stop-overflow" ] ~docv:"F" ~doc)

let multilevel =
  let doc = "Place through the multilevel V-cycle: coarsen the netlist \
             bottom-up, place the coarsest level, then interpolate and \
             refine level by level.  The configured mode and \
             routability apply at the finest level; intermediate \
             levels run wirelength-only.  Strongly recommended above \
             ~50k cells." in
  Arg.(value & flag & info [ "multilevel" ] ~doc)

let levels =
  let doc = "Total placement levels for $(b,--multilevel) (1 = flat, \
             bit-identical to running without $(b,--multilevel); each \
             extra level adds one coarsening step)." in
  Arg.(value & opt int Core.default_multilevel.Core.ml_levels
       & info [ "levels" ] ~docv:"N" ~doc)

let cluster_ratio =
  let doc = "Target fine-to-coarse movable-cell ratio per coarsening \
             step (also sets the cluster area cap)." in
  Arg.(value & opt float Core.default_multilevel.Core.ml_cluster_ratio
       & info [ "cluster-ratio" ] ~docv:"R" ~doc)

let run lib_file design_file bench cells seed clock hotspot hotspot_clusters
    scale mode iterations t1 t2 gamma steiner_period steiner_dirty no_legalize
    out_file svg_file svg_paths svg_congestion trace_file verbose domains
    stop_overflow multilevel levels cluster_ratio
    profile trace_out routability routability_capacity routability_target
    routability_max_ratio routability_max_rounds =
  let lib = Dgp_common.load_library lib_file in
  let design, constraints =
    Dgp_common.load_design lib ~design_file ~bench ~cells ~seed
      ~clock_period:clock ~hotspot ~hotspot_clusters ~scale ()
  in
  let stats = Netlist.Stats.compute design in
  Format.printf "design %s:@.%a@.@." design.Netlist.design_name
    Netlist.Stats.pp stats;
  let graph = Sta.Graph.build design lib constraints in
  let mode =
    match mode with
    | Core.Differentiable_timing tc ->
      Core.Differentiable_timing
        { tc with
          Core.t1; t2; gamma; steiner_period;
          steiner_dirty =
            (if steiner_dirty < 0.0 then None else Some steiner_dirty) }
    | (Core.Wirelength_only | Core.Net_weighting _) as m -> m
  in
  let route_cfg =
    { Route.default_config with
      Route.rt_capacity = routability_capacity;
      rt_target = routability_target;
      rt_max_ratio = routability_max_ratio;
      rt_max_rounds = routability_max_rounds }
  in
  let config =
    { Core.default_config with
      Core.mode; max_iterations = iterations; stop_overflow; verbose;
      routability = (if routability then Some route_cfg else None) }
  in
  let pool =
    if domains > 1 then Some (Parallel.create ~domains ()) else None
  in
  let obs =
    if profile || trace_out <> None then Obs.create ~gc:true ()
    else Obs.disabled
  in
  let result =
    if multilevel then
      Core.run_multilevel ?pool ~obs
        ~ml:
          { Core.default_multilevel with
            Core.ml_levels = levels; ml_cluster_ratio = cluster_ratio }
        config graph
    else Core.run ?pool ~obs config graph
  in
  (match pool with Some p -> Parallel.shutdown p | None -> ());
  Printf.printf "placement: %d iterations in %.2f s (overflow %.3f)\n"
    result.Core.res_iterations result.Core.res_runtime result.Core.res_overflow;
  (match result.Core.res_stop with
   | `Converged -> ()
   | `Capped ->
     Printf.printf "placement: stopped at the iteration cap with overflow \
                    %.3f against a %.3f target\n"
       result.Core.res_overflow stop_overflow
   | `Diverged i ->
     Printf.printf "placement: non-finite gradient at iteration %d, stopped \
                    on the last finite positions\n" i);
  (match result.Core.res_route with
   | Some s ->
     Format.printf "congestion: %a (%d inflation rounds)@." Route.pp_summary s
       result.Core.res_inflation_rounds
   | None -> ());
  if not no_legalize then begin
    let lg = Legalize.legalize ~obs design in
    Format.printf "legalisation:@.%a@." Legalize.pp_stats lg
  end;
  let report, hpwl = Core.score ~obs graph in
  Format.printf "@.final timing (exact STA):@.%a@.HPWL: %.4e um@."
    Sta.Timer.pp_report report hpwl;
  (match svg_file with
   | Some path ->
     let timer = Sta.Timer.create graph in
     let _ = Sta.Timer.run timer in
     let view = Paths.analyze ~obs timer in
     let top = Paths.enumerate ~obs ~k:(max 1 svg_paths) view in
     let congestion =
       if svg_congestion then begin
         let rudy =
           Route.Rudy.create ~capacity:routability_capacity design
         in
         Route.Rudy.update rudy;
         Some (Route.Rudy.bins rudy, Route.Rudy.utilization rudy)
       end
       else None
     in
     let options =
       { Viz.Svg.default_options with
         Viz.Svg.highlight_paths =
           List.map (fun p -> p.Paths.pt_steps) top;
         congestion }
     in
     Viz.Svg.save ~options path design;
     Printf.printf "placement plot written to %s (%d paths%s overlaid)\n" path
       (List.length top)
       (if svg_congestion then " + congestion" else "")
   | None -> ());
  (match trace_file with
   | Some path ->
     let t =
       Report.Table.create
         [ "iteration"; "hpwl"; "overflow"; "wns"; "tns"; "lambda" ]
     in
     List.iter
       (fun (p : Core.trace_point) ->
         Report.Table.add_row t
           [ string_of_int p.Core.tp_iteration;
             Printf.sprintf "%.6e" p.Core.tp_hpwl;
             Printf.sprintf "%.6f" p.Core.tp_overflow;
             (match p.Core.tp_wns with
              | Some v -> Printf.sprintf "%.3f" v
              | None -> "-");
             (match p.Core.tp_tns with
              | Some v -> Printf.sprintf "%.3f" v
              | None -> "-");
             Printf.sprintf "%.6e" p.Core.tp_lambda ])
       result.Core.res_trace;
     Out_channel.with_open_text path (fun oc ->
       Out_channel.output_string oc (Report.Table.render_csv t));
     Printf.printf "trace written to %s\n" path
   | None -> ());
  (match out_file with
   | Some path ->
     Bookshelf.save path design constraints;
     Printf.printf "placed design written to %s\n" path
   | None -> ());
  Obs.gauge obs "peak_rss_mb" (Obs.peak_rss_bytes () /. 1048576.0);
  (match trace_out with
   | Some path ->
     Obs.write_trace obs path;
     Printf.printf "profiling trace written to %s\n" path
   | None -> ());
  if profile then Format.eprintf "%a@." Obs.pp_report obs

let cmd =
  let doc = "timing-driven global placement (DAC'22 reproduction)" in
  Cmd.v
    (Cmd.info "dgp_place" ~doc)
    Term.(
      const run $ Dgp_common.lib_file $ Dgp_common.design_file
      $ Dgp_common.bench_name $ Dgp_common.cells $ Dgp_common.seed
      $ Dgp_common.clock_period $ Dgp_common.hotspot
      $ Dgp_common.hotspot_clusters $ Dgp_common.bench_scale $ mode
      $ iterations $ t1 $ t2 $ gamma
      $ steiner_period $ steiner_dirty $ no_legalize $ out_file $ svg_file
      $ svg_paths $ svg_congestion $ trace_file $ verbose $ domains
      $ stop_overflow $ multilevel $ levels $ cluster_ratio $ profile
      $ trace_out $ routability $ routability_capacity $ routability_target
      $ routability_max_ratio $ routability_max_rounds)

let () = exit (Cmd.eval cmd)
