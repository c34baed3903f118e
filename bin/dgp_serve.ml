(* dgp_serve: placement-as-a-service daemon.

   Loads a design + liberty once, keeps one resident exact timer
   (re-timed incrementally) plus the lib/paths back-pointer view, and
   serves a line-oriented what-if protocol over stdin or a Unix socket:

     move <cell> <x> <y>   queue a cell move (validated, not propagated)
     commit                propagate pending moves, report WNS/TNS
     slack <pin>           late slack of one pin
     paths <K>             top-K critical paths via lib/paths (K capped
                           at max_paths)
     place <iters> <mode>  batched Core.run job from current positions
     stats                 design + incremental-work counters
     help                  command list
     quit                  end the session (close the connection)
     shutdown              end the session and stop a socket daemon

   Responses are single lines: "ok ..." or "err <reason>"; [paths]
   additionally emits one "path ..." line per path before its final
   "ok"; a known command with the wrong arguments answers
   "err usage: <its line in the table above>".  Every request is
   wrapped in per-request Obs spans (serve.parse + serve.update /
   serve.query, tagged with the request ordinal) feeding the standard
   JSONL trace writer, and mutating requests can be journaled for crash
   replay. *)

open Cmdliner

type state = {
  design : Netlist.t;
  graph : Sta.Graph.t;
  timer : Sta.Timer.t;
  pool : Parallel.pool option;
  obs : Obs.t;
  mutable last_report : Sta.Timer.report;
  mutable dirty : bool;          (* queued moves not yet committed *)
  mutable view : Paths.t option; (* path view, invalidated by mutations *)
  mutable requests : int;
  journal : out_channel option;
}

let journal_line st line =
  match st.journal with
  | Some oc ->
    output_string oc line;
    output_char oc '\n';
    flush oc
  | None -> ()

let find_cell st token =
  match int_of_string_opt token with
  | Some id when id >= 0 && id < Netlist.num_cells st.design -> Some id
  | Some _ -> None
  | None ->
    (match Netlist.cell_by_name st.design token with
     | Some c -> Some c.Netlist.cell_id
     | None -> None)

let find_pin st token =
  match int_of_string_opt token with
  | Some id when id >= 0 && id < Netlist.num_pins st.design -> Some id
  | Some _ -> None
  | None ->
    (match Netlist.pin_by_name st.design token with
     | Some p -> Some p.Netlist.pin_id
     | None -> None)

(* Propagate queued moves so read-only queries never observe a
   placement the timer has not seen. *)
let ensure_committed st =
  if st.dirty then begin
    st.last_report <- Sta.Incremental.update ~obs:st.obs st.timer;
    st.dirty <- false;
    st.view <- None
  end

let path_view st =
  ensure_committed st;
  match st.view with
  | Some v -> v
  | None ->
    let v = Paths.analyze ?pool:st.pool ~obs:st.obs st.timer in
    st.view <- Some v;
    v

(* The most paths one [paths] request answers: path counts grow
   exponentially with logic depth, so an unbounded K would let one
   request line enumerate (and print) millions of paths. *)
let max_paths = 10_000

let report_summary (r : Sta.Timer.report) =
  Printf.sprintf "wns %.3f tns %.3f endpoints %d" r.Sta.Timer.setup_wns
    r.Sta.Timer.setup_tns
    (List.length r.Sta.Timer.endpoint_slacks)

(* Every command and its arguments, in [help]'s order: [help] prints
   the lines, and a known command given the wrong arguments answers
   with its line. *)
let usage =
  [ ("move", "move <cell> <x> <y>"); ("commit", "commit");
    ("slack", "slack <pin>"); ("paths", "paths <K>");
    ("place", "place <iters> <mode>"); ("stats", "stats"); ("help", "help");
    ("quit", "quit"); ("shutdown", "shutdown") ]

let k_parse = Obs.kernel "serve.parse"
let k_update = Obs.kernel "serve.update"
let k_query = Obs.kernel "serve.query"

(* One request.  [out] writes a response line.  Returns the session
   verdict: [`Continue], [`Quit] (end this session) or [`Shutdown]
   (also stop a socket accept loop). *)
let handle st ~out line =
  st.requests <- st.requests + 1;
  Obs.set_iteration st.obs st.requests;
  let tokens =
    Obs.span st.obs k_parse (fun () ->
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun s -> s <> ""))
  in
  let update f = Obs.span st.obs k_update f in
  let query f = Obs.span st.obs k_query f in
  match tokens with
  | [] -> `Continue
  | cmd :: _ when cmd.[0] = '#' -> `Continue
  | [ "move"; cell; xs; ys ] ->
    update (fun () ->
      match find_cell st cell, float_of_string_opt xs, float_of_string_opt ys
      with
      | None, _, _ -> out (Printf.sprintf "err unknown cell %s" cell)
      | _, None, _ | _, _, None -> out "err move expects numeric coordinates"
      | Some id, Some x, Some y ->
        (match Sta.Incremental.move_cell st.timer id ~x ~y with
         | () ->
           st.dirty <- true;
           st.view <- None;
           journal_line st line;
           out
             (Printf.sprintf "ok queued %s"
                st.design.Netlist.cells.(id).Netlist.cell_name)
         | exception Invalid_argument msg ->
           out (Printf.sprintf "err %s" msg)));
    `Continue
  | [ "commit" ] ->
    update (fun () ->
      let r = Sta.Incremental.update ~obs:st.obs st.timer in
      st.last_report <- r;
      st.dirty <- false;
      st.view <- None;
      journal_line st line;
      let u = Sta.Incremental.last_stats st.timer in
      out
        (Printf.sprintf "ok %s pins %d changed %d nets %d" (report_summary r)
           u.Sta.Incremental.us_pins u.Sta.Incremental.us_changed
           u.Sta.Incremental.us_nets));
    `Continue
  | [ "slack"; pin ] ->
    query (fun () ->
      match find_pin st pin with
      | None -> out (Printf.sprintf "err unknown pin %s" pin)
      | Some p ->
        ensure_committed st;
        out
          (Printf.sprintf "ok slack %.3f at_rise %.3f at_fall %.3f"
             (Sta.Timer.pin_slack_late st.timer p)
             (Sta.Timer.at_late st.timer p Sta.Rise)
             (Sta.Timer.at_late st.timer p Sta.Fall)));
    `Continue
  | [ "paths"; k ] ->
    query (fun () ->
      match int_of_string_opt k with
      | Some k when k > 0 ->
        let view = path_view st in
        let k = Int.min k max_paths in
        let paths = Paths.enumerate ?pool:st.pool ~obs:st.obs ~k view in
        List.iteri
          (fun i (p : Paths.path) ->
            let name pin = st.design.Netlist.pins.(pin).Netlist.pin_name in
            let startpoint =
              match p.Paths.pt_steps with
              | first :: _ -> name first.Sta.Timer.ps_pin
              | [] -> "-"
            in
            out
              (Printf.sprintf "path %d slack %.3f endpoint %s from %s stages %d"
                 (i + 1) p.Paths.pt_slack
                 (name p.Paths.pt_endpoint)
                 startpoint
                 (List.length p.Paths.pt_steps)))
          paths;
        out (Printf.sprintf "ok paths %d" (List.length paths))
      | _ -> out "err paths expects a positive K");
    `Continue
  | [ "place"; iters; mode ] ->
    update (fun () ->
      match int_of_string_opt iters, Dgp_common.mode_of_string mode with
      | None, _ -> out "err place expects an iteration count"
      | _, None ->
        out
          (Printf.sprintf "err unknown mode %s %s" mode
             Dgp_common.mode_choices)
      | Some iters, Some mode when iters > 0 ->
        ensure_committed st;
        let config =
          { Core.default_config with
            Core.mode;
            max_iterations = iters;
            min_iterations = min Core.default_config.min_iterations iters;
            init = `Keep }
        in
        let result = Core.run ?pool:st.pool ~obs:st.obs config st.graph in
        (* full analysis: fresh topologies for the large motion *)
        let r = Sta.Timer.run ?pool:st.pool ~obs:st.obs st.timer in
        st.last_report <- r;
        st.dirty <- false;
        st.view <- None;
        journal_line st line;
        out
          (Printf.sprintf "ok iterations %d hpwl %.6e overflow %.3f %s"
             result.Core.res_iterations result.Core.res_hpwl
             result.Core.res_overflow (report_summary r))
      | _ -> out "err place expects a positive iteration count");
    `Continue
  | [ "stats" ] ->
    query (fun () ->
      ensure_committed st;
      let u = Sta.Incremental.last_stats st.timer in
      out
        (Printf.sprintf
           "ok cells %d nets %d pins %d %s last_pins %d last_changed %d \
            last_nets %d last_levels %d requests %d"
           (Netlist.num_cells st.design)
           (Netlist.num_nets st.design)
           (Netlist.num_pins st.design)
           (report_summary st.last_report)
           u.Sta.Incremental.us_pins u.Sta.Incremental.us_changed
           u.Sta.Incremental.us_nets u.Sta.Incremental.us_levels
           st.requests));
    `Continue
  | [ "help" ] ->
    out ("ok commands: " ^ String.concat " | " (List.map snd usage));
    `Continue
  | [ "quit" ] ->
    out "ok bye";
    `Quit
  | [ "shutdown" ] ->
    out "ok shutdown";
    `Shutdown
  | cmd :: _ ->
    (match List.assoc_opt cmd usage with
     | Some line -> out ("err usage: " ^ line)
     | None -> out (Printf.sprintf "err unknown command %s (try help)" cmd));
    `Continue

(* Serve one line stream (stdin or an accepted connection). *)
let serve_channel st ic oc =
  let out line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match In_channel.input_line ic with
    | None -> `Quit
    | Some line ->
      (match handle st ~out line with
       | `Continue -> loop ()
       | (`Quit | `Shutdown) as v -> v)
  in
  loop ()

let replay st path =
  match In_channel.with_open_text path In_channel.input_lines with
  | lines ->
    let replayed = ref 0 in
    List.iter
      (fun line ->
        if String.trim line <> "" then begin
          incr replayed;
          match
            handle st ~out:(fun resp ->
              if String.length resp >= 3 && String.sub resp 0 3 = "err" then
                Printf.eprintf "[dgp_serve] replay: %s -> %s\n%!" line resp)
              line
          with
          | `Continue | `Quit | `Shutdown -> ()
        end)
      lines;
    Printf.eprintf "[dgp_serve] replayed %d journaled requests from %s\n%!"
      !replayed path
  | exception Sys_error msg ->
    Printf.eprintf "[dgp_serve] cannot replay %s: %s\n%!" path msg

let serve_socket st path =
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Printf.eprintf "[dgp_serve] listening on %s\n%!" path;
  let stop = ref false in
  while not !stop do
    let conn, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr conn in
    let oc = Unix.out_channel_of_descr conn in
    (match serve_channel st ic oc with
     | `Shutdown -> stop := true
     | `Quit -> ());
    (try Unix.close conn with Unix.Unix_error _ -> ())
  done;
  Unix.close sock;
  Sys.remove path

let socket_arg =
  let doc = "Serve over a Unix domain socket at $(docv) instead of \
             stdin/stdout.  Connections are served sequentially; the \
             $(b,shutdown) command stops the daemon." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let journal_arg =
  let doc = "Append every accepted mutating request (move/commit/place) \
             to $(docv), so a crashed client can replay the session." in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let replay_arg =
  let doc = "Replay a session journal from $(docv) before serving." in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)

let domains =
  let doc = "Worker domains for the batched placement and full-STA \
             kernels (1 = sequential)." in
  Arg.(value & opt int 1 & info [ "domains"; "j" ] ~docv:"N" ~doc)

let profile =
  let doc = "Record per-kernel timings and print the profile table to \
             stderr at exit." in
  Arg.(value & flag & info [ "profile" ] ~doc)

let trace_out =
  let doc = "Write the span-level profiling trace (per-request \
             serve.parse/serve.update/serve.query spans included) to \
             $(docv) as JSONL at exit." in
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE" ~doc)

let run lib_file design_file bench cells seed clock socket journal replay_from
    domains profile trace_out =
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
  let pool =
    if domains > 1 then Some (Parallel.create ~domains ()) else None
  in
  let timer = Sta.Timer.create graph in
  let st =
    { design; graph; timer; pool; obs;
      last_report = Sta.Timer.run timer;
      dirty = false; view = None; requests = 0;
      journal =
        (match journal with
         | Some path -> Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
         | None -> None) }
  in
  Printf.eprintf "[dgp_serve] %s: %d cells, %d nets, %d pins; %s\n%!"
    design.Netlist.design_name (Netlist.num_cells design)
    (Netlist.num_nets design) (Netlist.num_pins design)
    (report_summary st.last_report);
  (match replay_from with Some path -> replay st path | None -> ());
  (match socket with
   | Some path -> serve_socket st path
   | None -> ignore (serve_channel st stdin stdout));
  (match st.journal with Some oc -> close_out oc | None -> ());
  (match pool with Some p -> Parallel.shutdown p | None -> ());
  (match trace_out with
   | Some path ->
     Obs.write_trace obs path;
     Printf.eprintf "[dgp_serve] profiling trace written to %s\n%!" path
   | None -> ());
  if profile then Format.eprintf "%a@." Obs.pp_report obs

let cmd =
  let doc = "what-if placement/STA serving daemon (incremental timer)" in
  Cmd.v
    (Cmd.info "dgp_serve" ~doc)
    Term.(
      const run $ Dgp_common.lib_file $ Dgp_common.design_file
      $ Dgp_common.bench_name $ Dgp_common.cells $ Dgp_common.seed
      $ Dgp_common.clock_period $ socket_arg $ journal_arg $ replay_arg
      $ domains $ profile $ trace_out)

let () = exit (Cmd.eval cmd)
