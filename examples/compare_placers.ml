(* Run the placers of the evaluation harness on one design and print a
   side-by-side comparison (the paper's Table 3 plus the path-weighting
   baseline and a routability-driven variant).  The design carries a
   mild congestion hotspot so the congestion columns have something to
   show; every placement is scored for RUDY congestion (peak and
   RC-style top-percentile utilization) next to its timing.

     dune exec examples/compare_placers.exe [-- --domains N] [-- --csv FILE]

   Every run is bit-identical regardless of the domain count. *)

let parse_args () =
  let domains = ref 1 in
  let csv = ref None in
  let rec scan = function
    | "--domains" :: v :: rest ->
      domains := int_of_string v;
      scan rest
    | "--csv" :: v :: rest ->
      csv := Some v;
      scan rest
    | _ :: rest -> scan rest
    | [] -> ()
  in
  scan (List.tl (Array.to_list Sys.argv));
  (!domains, !csv)

let () =
  let lib = Liberty.Synthetic.default () in
  let domains, csv = parse_args () in
  let pool =
    if domains > 1 then Some (Parallel.create ~domains ()) else None
  in
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 2000; sp_clock_period = 950.0; sp_hotspot = 0.25 }
  in
  let table =
    Report.Table.create
      [ "Placer"; "WNS (ps)"; "TNS (ps)"; "HPWL (um)"; "Peak cong";
        "RC cong"; "Runtime (s)" ]
  in
  let evaluate ?routability name mode =
    (* fresh design per run: each placer starts from the same netlist *)
    let design, constraints = Workload.generate lib spec in
    let graph = Sta.Graph.build design lib constraints in
    let config = { Core.default_config with Core.mode; routability } in
    let result = Core.run ?pool config graph in
    ignore (Legalize.legalize design);
    let report, hpwl = Core.score graph in
    (* congestion of the final (legalised) placement, same knobs for
       every row so the columns compare *)
    let rudy = Route.Rudy.create design in
    Route.Rudy.update ?pool rudy;
    let cong = Route.overflow rudy in
    Report.Table.add_row table
      [ name;
        Printf.sprintf "%.1f" report.Sta.Timer.setup_wns;
        Printf.sprintf "%.1f" report.Sta.Timer.setup_tns;
        Printf.sprintf "%.3e" hpwl;
        Printf.sprintf "%.2f" cong.Route.ov_peak;
        Printf.sprintf "%.2f" cong.Route.ov_rc;
        Printf.sprintf "%.2f" result.Core.res_runtime ];
    ((report.Sta.Timer.setup_wns, report.Sta.Timer.setup_tns), cong)
  in
  Printf.printf "placing %d cells five ways...\n%!" spec.Workload.sp_cells;
  let dp, _ = evaluate "DREAMPlace [16]" Core.Wirelength_only in
  let nw, _ =
    evaluate "Net weighting [24]"
      (Core.Net_weighting Netweight.default_config)
  in
  let pw, _ =
    evaluate "Path weighting [paths]"
      (Core.Net_weighting Netweight.path_config)
  in
  let ours, ours_cong =
    evaluate "Ours (differentiable)"
      (Core.Differentiable_timing Core.default_timing)
  in
  let ours_rt, ours_rt_cong =
    evaluate ~routability:Route.default_config "Ours + routability"
      (Core.Differentiable_timing Core.default_timing)
  in
  print_newline ();
  print_string (Report.Table.render table);
  let improvement (w_ref, t_ref) (w, t) =
    (100.0 *. (w -. w_ref) /. Float.abs w_ref,
     100.0 *. (t -. t_ref) /. Float.abs t_ref)
  in
  let wi, ti = improvement dp ours in
  Printf.printf "\nours vs wirelength-only: WNS %+.1f%%, TNS %+.1f%%\n" wi ti;
  let wi, ti = improvement nw ours in
  Printf.printf "ours vs net weighting:   WNS %+.1f%%, TNS %+.1f%%\n" wi ti;
  let wi, ti = improvement pw ours in
  Printf.printf "ours vs path weighting:  WNS %+.1f%%, TNS %+.1f%%\n" wi ti;
  let wi, ti = improvement dp pw in
  Printf.printf "path weighting vs wirelength-only: WNS %+.1f%%, TNS %+.1f%%\n"
    wi ti;
  (* the timing x routability trade-off: congestion bought, timing paid *)
  let wi, ti = improvement ours ours_rt in
  Printf.printf
    "routability vs ours: peak congestion %+.1f%%, rc %+.1f%%, \
     WNS %+.1f%%, TNS %+.1f%%\n"
    (100.0 *. (ours_rt_cong.Route.ov_peak -. ours_cong.Route.ov_peak)
     /. Float.max 1e-9 ours_cong.Route.ov_peak)
    (100.0 *. (ours_rt_cong.Route.ov_rc -. ours_cong.Route.ov_rc)
     /. Float.max 1e-9 ours_cong.Route.ov_rc)
    wi ti;
  (match csv with
   | Some path ->
     Out_channel.with_open_text path (fun oc ->
       Out_channel.output_string oc (Report.Table.render_csv table));
     Printf.printf "\ncomparison written to %s\n" path
   | None -> ());
  match pool with Some p -> Parallel.shutdown p | None -> ()
