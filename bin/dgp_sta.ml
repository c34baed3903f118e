(* dgp_sta: exact static timing analysis of a design; prints the WNS/TNS
   summary and the most critical endpoints. *)

open Cmdliner

let top =
  let doc = "Number of critical endpoints to list." in
  Arg.(value & opt int 10 & info [ "top"; "n" ] ~docv:"N" ~doc)

let paths =
  let doc = "Number of worst paths to list (top-K path enumeration)." in
  Arg.(value & opt int 1 & info [ "paths" ] ~docv:"K" ~doc)

let profile =
  let doc = "Record per-kernel timings (monotonic clock) and print the \
             profile table to stderr at exit." in
  Arg.(value & flag & info [ "profile" ] ~doc)

let trace_out =
  let doc = "Write the span-level profiling trace to $(docv) as JSONL." in
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE" ~doc)

let run lib_file design_file bench cells seed clock top paths profile
    trace_out =
  let lib = Dgp_common.load_library lib_file in
  let design, constraints =
    Dgp_common.load_design lib ~design_file ~bench ~cells ~seed
      ~clock_period:clock ()
  in
  let graph = Sta.Graph.build design lib constraints in
  let obs =
    if profile || trace_out <> None then Obs.create ~gc:true ()
    else Obs.disabled
  in
  let timer = Sta.Timer.create graph in
  let report = Sta.Timer.run ~obs timer in
  Format.printf "%a@.@." Sta.Timer.pp_report report;
  Printf.printf "%d most critical endpoints (setup):\n" top;
  let table =
    Report.Table.create [ "endpoint"; "setup slack"; "hold slack"; "AT(rise)"; "AT(fall)" ]
  in
  List.iteri
    (fun i (ep : Sta.Timer.endpoint_slack) ->
      if i < top then
        Report.Table.add_row table
          [ design.Netlist.pins.(ep.Sta.Timer.ep_pin).Netlist.pin_name;
            Printf.sprintf "%.1f" ep.Sta.Timer.ep_setup_slack;
            Printf.sprintf "%.1f" ep.Sta.Timer.ep_hold_slack;
            Printf.sprintf "%.1f" (Sta.Timer.at_late timer ep.Sta.Timer.ep_pin Sta.Rise);
            Printf.sprintf "%.1f" (Sta.Timer.at_late timer ep.Sta.Timer.ep_pin Sta.Fall) ])
    report.Sta.Timer.endpoint_slacks;
  print_string (Report.Table.render table);
  let view = Paths.analyze ~obs timer in
  if paths <= 1 then begin
    (* single-path listing: the engine's top-1 path is the design's
       critical path *)
    let steps =
      match Paths.enumerate ~obs ~k:1 view with
      | [] -> []
      | p :: _ -> p.Paths.pt_steps
    in
    Printf.printf "\nworst path:\n";
    Format.printf "%a@." (Sta.Timer.pp_path graph) steps
  end
  else begin
    let worst = Paths.enumerate ~obs ~k:paths view in
    Printf.printf "\n%d worst paths:\n" (List.length worst);
    let table =
      Report.Table.create
        [ "#"; "endpoint"; "slack"; "arrival"; "stages"; "startpoint" ]
    in
    List.iteri
      (fun i (p : Paths.path) ->
        let name pin = design.Netlist.pins.(pin).Netlist.pin_name in
        let arrival =
          match List.rev p.Paths.pt_steps with
          | last :: _ -> Printf.sprintf "%.1f" last.Sta.Timer.ps_at
          | [] -> "-"
        in
        let startpoint =
          match p.Paths.pt_steps with
          | first :: _ -> name first.Sta.Timer.ps_pin
          | [] -> "-"
        in
        Report.Table.add_row table
          [ string_of_int (i + 1);
            name p.Paths.pt_endpoint;
            Printf.sprintf "%.1f" p.Paths.pt_slack;
            arrival;
            string_of_int (List.length p.Paths.pt_steps);
            startpoint ])
      worst;
    print_string (Report.Table.render table);
    List.iteri
      (fun i (p : Paths.path) ->
        Printf.printf "\npath #%d (slack %.1f ps):\n" (i + 1) p.Paths.pt_slack;
        Format.printf "%a@." (Sta.Timer.pp_path graph) p.Paths.pt_steps)
      worst
  end;
  (match trace_out with
   | Some path ->
     Obs.write_trace obs path;
     Printf.printf "\nprofiling trace written to %s\n" path
   | None -> ());
  if profile then Format.eprintf "%a@." Obs.pp_report obs

let cmd =
  let doc = "exact static timing analysis" in
  Cmd.v
    (Cmd.info "dgp_sta" ~doc)
    Term.(
      const run $ Dgp_common.lib_file $ Dgp_common.design_file
      $ Dgp_common.bench_name $ Dgp_common.cells $ Dgp_common.seed
      $ Dgp_common.clock_period $ top $ paths $ profile $ trace_out)

let () = exit (Cmd.eval cmd)
