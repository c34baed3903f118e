(* One workload of the flow + what-if benchmark, in its own process.

     flowbench.exe --workload flow-timing|flow-vcycle|serve-whatif
       --seed N --trace 0|1 --out DIR --serve PATH/dgp_serve.exe
       [--smoke] [--untraced-wall-s S]

   The flows time generate + graph build (set-up), then GP -> LG -> DP
   -> score through the library's public entry points, check the
   placement, and finish with a closed-loop what-if probe on the placed
   design.  serve-whatif places a design, writes it to a file, starts
   dgp_serve on it and drives the line protocol in a closed loop,
   verifying sampled commits against a full analysis.  The last line of
   standard output is the JSON result; DIR receives the JSONL ledger. *)

let lib = Liberty.Synthetic.default ()
let now = Obs.Clock.now

type args = {
  workload : string;
  seed : int;
  trace : bool;
  out_dir : string;
  serve_exe : string;
  smoke : bool;
  untraced_wall : float option;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and trace = ref false in
  let out_dir = ref "." and serve_exe = ref "" and smoke = ref false in
  let untraced_wall = ref None in
  let rec scan = function
    | "--workload" :: v :: rest -> workload := v; scan rest
    | "--seed" :: v :: rest -> seed := int_of_string v; scan rest
    | "--trace" :: v :: rest -> trace := v = "1"; scan rest
    | "--out" :: v :: rest -> out_dir := v; scan rest
    | "--serve" :: v :: rest -> serve_exe := v; scan rest
    | "--smoke" :: rest -> smoke := true; scan rest
    | "--untraced-wall-s" :: v :: rest ->
      untraced_wall := Some (float_of_string v); scan rest
    | arg :: _ -> failwith ("unknown argument " ^ arg)
    | [] -> ()
  in
  scan (List.tl (Array.to_list Sys.argv));
  { workload = !workload; seed = !seed; trace = !trace; out_dir = !out_dir;
    serve_exe = !serve_exe; smoke = !smoke; untraced_wall = !untraced_wall }

(* ---- workload definitions ---- *)

let design = "superblue18-mini"

let spec_at scale =
  match Workload.find_spec ~scale design with
  | Some s -> s
  | None -> failwith ("missing spec " ^ design)

(* Closed-loop what-if rounds of the serve-whatif client, and probe
   rounds of the flows: 1000, so that the p99 has ten samples beyond
   it. *)
let whatif_rounds smoke = if smoke then 30 else 1000

(* Every [probe_check_every]th probe round (and the last) has its report
   compared with a full analysis. *)
let probe_check_every = 500

(* Every [check_every]th serve round also asks for [paths_k] paths and
   has its commit and slack replies verified against a full analysis. *)
let check_every = 10
let paths_k = 64

(* ---- helpers ---- *)

let tally = Checks.tally
let record = Checks.record

let lut_classes () =
  let n = ref 0 in
  for d = 0 to Steiner.Lut.max_degree do n := !n + Steiner.Lut.class_count d done;
  !n

(* A fixed loop timed at the start and end of a run: a diagnostic of
   host speed, never used to normalise metrics. *)
let calib_ms () =
  let t0 = now () in
  let acc = ref 0.0 in
  for i = 1 to 3_000_000 do acc := !acc +. Float.sqrt (float_of_int i) done;
  ignore (Sys.opaque_identity !acc);
  (now () -. t0) *. 1e3

let movable (d : Netlist.t) =
  Array.of_list (Netlist.movable_cells d)

(* A random target up to four rows away in each axis, inside the
   region. *)
let jitter rng (d : Netlist.t) id =
  let c = d.Netlist.cells.(id) in
  let r = d.Netlist.region and row = d.Netlist.row_height in
  let hw = c.Netlist.width /. 2.0 and hh = c.Netlist.height /. 2.0 in
  let step () = (Workload.Rng.float rng 8.0 -. 4.0) *. row in
  let x =
    Geometry.clamp ~lo:(r.Geometry.Rect.lx +. hw) ~hi:(r.Geometry.Rect.hx -. hw)
      (c.Netlist.x +. step ())
  in
  let y =
    Geometry.clamp ~lo:(r.Geometry.Rect.ly +. hh) ~hi:(r.Geometry.Rect.hy -. hh)
      (c.Netlist.y +. step ())
  in
  (x, y)

(* Host-wide (steal, total) CPU ticks from /proc/stat: time the
   hypervisor ran other guests on this machine's virtual CPUs. *)
let steal_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line ->
    (match List.filter (( <> ) "") (String.split_on_char ' ' line) with
     | "cpu" :: fields ->
       let v = List.map float_of_string fields in
       (List.nth v 7, List.fold_left ( +. ) 0.0 v)
     | _ -> (0.0, 0.0))
  | None | (exception Sys_error _) -> (0.0, 0.0)

let peak_rss_mb () = Obs.peak_rss_bytes () /. 1048576.0

(* Peak RSS of a live child process, from /proc. *)
let child_peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | lines ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] ->
          (match String.split_on_char ' ' (String.trim v) with
           | kb :: _ -> float_of_string kb /. 1024.0
           | [] -> acc)
        | _ -> acc)
      0.0 lines
  | exception Sys_error _ -> 0.0

(* Stage spans recorded by the benchmark around each call it times. *)
let spans : Ledger.span list ref = ref []

let stage name f =
  let t0 = now () in
  let r = f () in
  spans := { Ledger.sp_name = name; sp_t0 = t0; sp_t1 = now (); sp_round = 0 } :: !spans;
  r

let stage_s name =
  List.fold_left
    (fun acc (s : Ledger.span) ->
      if s.Ledger.sp_name = name then acc +. (s.Ledger.sp_t1 -. s.Ledger.sp_t0) else acc)
    0.0 !spans

(* Median generate + build over [reps] repetitions, each on a freshly
   compacted heap as in a new process; the last repetition's design is
   the one placed. *)
let setup ~reps spec =
  let gens = ref [] and builds = ref [] and totals = ref [] and last = ref None in
  for _ = 1 to reps do
    last := None;
    Gc.compact ();
    let t0 = now () in
    let d, c = Workload.generate lib spec in
    let t1 = now () in
    let g = Sta.Graph.build d lib c in
    let t2 = now () in
    gens := (t1 -. t0) :: !gens;
    builds := (t2 -. t1) :: !builds;
    totals := (t2 -. t0) :: !totals;
    last := Some (d, c, g)
  done;
  let d, c, g = Option.get !last in
  (d, c, g, Ledger.median !totals, Ledger.median !gens, Ledger.median !builds)

(* ---- the flows ---- *)

type flow = {
  f_spec : Workload.spec;
  f_mode : Core.mode;
  f_ml : Core.multilevel option;
  f_domains : int;
  f_setup_reps : int;  (** repetitions of set-up: together, seconds of work *)
}

let flow_timing smoke =
  { f_spec = spec_at (if smoke then 0.0008 else 0.01);
    f_mode = Core.Differentiable_timing Core.default_timing;
    f_ml = None; f_domains = 1; f_setup_reps = (if smoke then 2 else 40) }

let flow_vcycle smoke =
  { f_spec = spec_at (if smoke then 0.002 else 0.04);
    f_mode = Core.Wirelength_only;
    f_ml = Some { Core.default_multilevel with Core.ml_levels = 3 };
    f_domains = 2; f_setup_reps = (if smoke then 2 else 9) }

(* Closed-loop what-if probe on a placed design: each round moves one
   cell and re-times it incrementally.  This is not serve-whatif's
   round (0.25% of the cells, commit, 4 slack reads, paths every 10th
   round): that round costs ~45 ms on the 8.5k-cell flow and ~230 ms on
   the 31k-cell one, too much to repeat after every flow.  The moved
   cells are a fixed, evenly spaced sample of the movable ones, each
   moved once, in an order (and to targets) the seed draws: a round's
   cost follows the size of the moved cell's timing cone, which is
   heavy-tailed, so on 31k cells a seed-drawn sample moved the p99 by
   up to 2.7x from seed to seed.  Every [probe_check_every]th report
   and the last must equal a full analysis of the same placement bit
   for bit. *)
let probe ~tally ~rng ~rounds (d : Netlist.t) g =
  let inc = Sta.Incremental.create g in
  let reference = Sta.Timer.create g in
  ignore (Sta.Timer.run reference);
  let cells = movable d in
  let sample = Array.init rounds (fun k -> cells.(k * Array.length cells / rounds)) in
  for k = rounds - 1 downto 1 do
    let j = Workload.Rng.int rng (k + 1) in
    let t = sample.(k) in
    sample.(k) <- sample.(j);
    sample.(j) <- t
  done;
  let lat = ref [] in
  for round = 1 to rounds do
    let id = sample.(round - 1) in
    let x, y = jitter rng d id in
    let t0 = now () in
    Sta.Incremental.move_cell inc id ~x ~y;
    let r = Sta.Incremental.update inc in
    lat := (now () -. t0) *. 1e3 :: !lat;
    if round mod probe_check_every = 0 || round = rounds then begin
      let full = Sta.Timer.run ~rebuild_trees:false reference in
      record tally
        (if Checks.same_report r full then []
         else [ Printf.sprintf "probe round %d: report differs from a full analysis" round ])
    end
  done;
  !lat

let run_flow args f =
  let tally = tally () in
  let calib0 = calib_ms () in
  let gc0 = Gc.quick_stat () in
  let obs = if args.trace then Obs.create () else Obs.disabled in
  let d, _, g, setup_s, gen_s, build_s =
    stage "setup.generate" (fun () -> setup ~reps:f.f_setup_reps f.f_spec)
  in
  let pool =
    if f.f_domains > 1 then Some (Parallel.create ~domains:f.f_domains ()) else None
  in
  let cfg = { Core.default_config with Core.mode = f.f_mode } in
  let c0 = lut_classes () in
  let t_start = now () in
  let res =
    stage "gp" (fun () ->
      match f.f_ml with
      | None -> Core.run ?pool ~obs cfg g
      | Some ml -> Core.run_multilevel ?pool ~obs ~ml cfg g)
  in
  let c_gp = lut_classes () - c0 in
  let lg = stage "lg" (fun () -> Legalize.legalize ~obs d) in
  let after_lg = Netlist.copy_positions d in
  let dp = stage "dp" (fun () -> Detailed.refine d) in
  let report, hpwl = stage "score" (fun () -> Core.score ~obs g) in
  let wall_s = now () -. t_start in
  let c_score = lut_classes () - c0 - c_gp in
  (match pool with Some p -> Parallel.shutdown p | None -> ());
  (* output checks, outside the timed flow *)
  let after_dp = Netlist.copy_positions d in
  Netlist.restore_positions d after_lg;
  record tally (Checks.legality d);
  Netlist.restore_positions d after_dp;
  record tally (Checks.legality d);
  record tally (Checks.hpwl_matches d ~scored:hpwl);
  let lat =
    probe ~tally ~rng:(Workload.Rng.create args.seed) ~rounds:(whatif_rounds args.smoke) d g
  in
  let gc1 = Gc.quick_stat () in
  let place_s = stage_s "gp" +. stage_s "lg" +. stage_s "dp" in
  let e2e =
    [ ("setup_s", setup_s); ("wall_s", wall_s); ("place_s", place_s);
      ("hpwl_um", hpwl); ("wns_ps", report.Sta.Timer.setup_wns);
      ("tns_ps", report.Sta.Timer.setup_tns); ("overflow", res.Core.res_overflow);
      ("peak_rss_mb", peak_rss_mb ()); ("whatif_p50_ms", Ledger.percentile 50.0 lat);
      ("whatif_p99_ms", Ledger.percentile 99.0 lat) ]
  in
  let p = Ledger.of_obs obs in
  let layer =
    [ ("workload.generate_s", gen_s); ("sta.graph_build_s", build_s);
      ("core.gp_s", stage_s "gp"); ("core.iterations", float_of_int res.Core.res_iterations);
      ("steiner.lut_classes.gp", float_of_int c_gp);
      ("steiner.lut_classes.score", float_of_int c_score);
      ("legalize.lg_s", stage_s "lg");
      ("legalize.overfull_cells", float_of_int lg.Legalize.overfull_cells);
      ("detailed.dp_s", stage_s "dp");
      ("detailed.moves", float_of_int (dp.Detailed.reorder_moves + dp.Detailed.swap_moves));
      ("detailed.hpwl_gain_pct",
       100.0 *. (dp.Detailed.hpwl_before -. dp.Detailed.hpwl_after) /. dp.Detailed.hpwl_before);
      ("core.score_s", stage_s "score");
      ("gc.minor_words", gc1.Gc.minor_words -. gc0.Gc.minor_words);
      ("gc.promoted_words", gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
      ("gc.major_collections",
       float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) ]
  in
  (tally, e2e, layer, p, wall_s, calib0)

(* ---- serve-whatif ---- *)

(* A dgp_serve child speaking the line protocol over pipes. *)
type daemon = { pid : int; to_d : out_channel; from_d : in_channel }

let start_daemon args ~design_file ~trace_file =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let argv =
    Array.of_list
      ([ args.serve_exe; "--design"; design_file; "--domains"; "1" ]
       @ match trace_file with Some f -> [ "--trace-out"; f ] | None -> [])
  in
  let pid = Unix.create_process args.serve_exe argv in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_d = Unix.out_channel_of_descr in_w; from_d = Unix.in_channel_of_descr out_r }

let send dm line =
  output_string dm.to_d line;
  output_char dm.to_d '\n';
  flush dm.to_d

let recv dm =
  match In_channel.input_line dm.from_d with
  | Some l -> l
  | None -> failwith "dgp_serve closed its output"

(* One request's final reply line ([paths] lists its paths first). *)
let request dm line =
  send dm line;
  let rec read () =
    let l = recv dm in
    if String.starts_with ~prefix:"path " l then read () else l
  in
  read ()

let is_ok reply = String.starts_with ~prefix:"ok" reply

type round = {
  moves : (int * float * float) list;
  commit : string;
  slacks : (int * string) list;
}

let run_serve args =
  let tally = tally () in
  let calib0 = calib_ms () in
  let obs = if args.trace then Obs.create () else Obs.disabled in
  let spec = spec_at (if args.smoke then 0.0008 else 0.005) in
  (* the served design, placed [place_reps] times over from a fresh
     copy: each of its timings is the median of the repetitions, and
     the last copy (the only one traced) is served *)
  let place_reps = if args.smoke then 1 else 3 in
  let placements =
    List.init place_reps (fun i ->
      let obs = if i = place_reps - 1 then obs else Obs.disabled in
      let d, c, g, _, gen_s, build_s =
        stage "setup.generate" (fun () -> setup ~reps:1 spec)
      in
      let t_gp = now () in
      let res =
        stage "setup.gp" (fun () ->
          Core.run ~obs { Core.default_config with Core.mode = Core.Wirelength_only } g)
      in
      let t_lg = now () in
      let lg = stage "setup.lg" (fun () -> Legalize.legalize ~obs d) in
      let t_end = now () in
      (d, c, res, lg, [ gen_s; build_s; t_lg -. t_gp; t_end -. t_lg ]))
  in
  let med k = Ledger.median (List.map (fun (_, _, _, _, ts) -> List.nth ts k) placements) in
  let gen_s = med 0 and build_s = med 1 and gp_s = med 2 and lg_s = med 3 in
  let d, c, res, lg, _ = List.nth placements (place_reps - 1) in
  record tally (Checks.legality d);
  let t_setup = now () in
  let design_file = Filename.concat args.out_dir "serve-whatif.design" in
  stage "setup.write" (fun () -> Bookshelf.save design_file d c);
  let trace_file =
    if args.trace then Some (Filename.concat args.out_dir "serve-whatif.daemon.jsonl")
    else None
  in
  let t_daemon = now () in
  let dm = start_daemon args ~design_file ~trace_file in
  let reaped = ref false in
  at_exit (fun () ->
    if not !reaped then
      try Unix.kill dm.pid Sys.sigkill; ignore (Unix.waitpid [] dm.pid)
      with Unix.Unix_error _ -> ());
  (* the first reply ends set-up *)
  let first_reply = request dm "stats" in
  let t_up = now () in
  let setup_s = gen_s +. build_s +. gp_s +. lg_s +. (t_up -. t_setup) in
  spans := { Ledger.sp_name = "setup.daemon"; sp_t0 = t_daemon; sp_t1 = t_up; sp_round = 0 } :: !spans;
  (* the reference timer, outside set-up: the same full analysis with
     Steiner tree build (and LUT fill) the daemon runs at start-up, on
     the same design file *)
  let classes0 = lut_classes () in
  let rd, rc = Bookshelf.load lib design_file in
  let rg = Sta.Graph.build rd lib rc in
  let t_ref = now () in
  let reference = Sta.Timer.create rg in
  let served = Sta.Timer.run ~obs reference in
  let ref_s = now () -. t_ref in
  let classes_ref = lut_classes () - classes0 in
  (* the served placement's timing, as the daemon reports it *)
  record tally
    (let want =
       Printf.sprintf "wns %.3f tns %.3f endpoints %d " served.Sta.Timer.setup_wns
         served.Sta.Timer.setup_tns (List.length served.Sta.Timer.endpoint_slacks)
     in
     if is_ok first_reply && Checks.contains first_reply want then []
     else [ Printf.sprintf "stats reply %S, full analysis gives %S" first_reply want ]);
  let served_hpwl = Checks.hpwl rd in
  record tally (Checks.hpwl_matches rd ~scored:(Netlist.total_hpwl rd));
  (* the closed loop *)
  let rng = Workload.Rng.create args.seed in
  let cells = movable d in
  let npins = Netlist.num_pins d in
  let batch = max 1 (int_of_float (Float.round (0.0025 *. float_of_int (Array.length cells)))) in
  let rounds = whatif_rounds args.smoke in
  let lat = ref [] and log = ref [] in
  let req_lat = Hashtbl.create 8 in
  let timed ~round kind line =
    let t0 = now () in
    let reply = request dm line in
    let t1 = now () in
    spans := { Ledger.sp_name = kind; sp_t0 = t0; sp_t1 = t1; sp_round = round } :: !spans;
    Hashtbl.replace req_lat kind
      (((t1 -. t0) *. 1e3) :: Option.value (Hashtbl.find_opt req_lat kind) ~default:[]);
    record tally (if is_ok reply then [] else [ line ^ " -> " ^ reply ]);
    reply
  in
  let pins_sum = ref 0 in
  let served_pos = Netlist.copy_positions rd in
  let t_loop = now () in
  for round = 1 to rounds do
    let t0 = now () in
    let moves = ref [] in
    for _ = 1 to batch do
      let id = cells.(Workload.Rng.int rng (Array.length cells)) in
      let x, y = jitter rng rd id in
      let reply = timed ~round "move" (Printf.sprintf "move %d %.17g %.17g" id x y) in
      if is_ok reply then begin
        (* mirror the accepted move so later targets start from it *)
        rd.Netlist.cells.(id).Netlist.x <- x;
        rd.Netlist.cells.(id).Netlist.y <- y;
        moves := (id, x, y) :: !moves
      end
    done;
    let commit = timed ~round "commit" "commit" in
    (match String.split_on_char ' ' commit with
     | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: p :: _ ->
       pins_sum := !pins_sum + Option.value (int_of_string_opt p) ~default:0
     | _ -> ());
    let slacks =
      List.init 4 (fun _ ->
        let pin = Workload.Rng.int rng npins in
        let reply = timed ~round "slack" (Printf.sprintf "slack %d" pin) in
        (pin, reply))
    in
    if round mod check_every = 0 then
      ignore (timed ~round "paths" (Printf.sprintf "paths %d" paths_k));
    lat := (now () -. t0) *. 1e3 :: !lat;
    log := { moves = List.rev !moves; commit; slacks } :: !log
  done;
  let wall_s = now () -. t_loop in
  let daemon_rss = child_peak_rss_mb dm.pid in
  ignore (request dm "quit");
  close_out dm.to_d;
  ignore (Unix.waitpid [] dm.pid);
  reaped := true;
  close_in dm.from_d;
  (* verification: replay the accepted moves from the served placement,
     comparing every [check_every]th round with a full analysis *)
  Netlist.restore_positions rd served_pos;
  List.iteri
    (fun i r ->
      List.iter
        (fun (id, x, y) ->
          rd.Netlist.cells.(id).Netlist.x <- x;
          rd.Netlist.cells.(id).Netlist.y <- y)
        r.moves;
      let round = i + 1 in
      if round mod check_every = 0 || round = rounds then begin
        let full = Sta.Timer.run ~rebuild_trees:false reference in
        record tally (Checks.check_commit ~reference:full r.commit);
        List.iter
          (fun (pin, reply) -> record tally (Checks.check_slack ~reference ~pin reply))
          r.slacks
      end)
    (List.rev !log);
  let place_s = gp_s +. lg_s in
  let e2e =
    [ ("setup_s", setup_s); ("wall_s", wall_s); ("place_s", place_s);
      ("hpwl_um", served_hpwl); ("wns_ps", served.Sta.Timer.setup_wns);
      ("tns_ps", served.Sta.Timer.setup_tns); ("overflow", res.Core.res_overflow);
      ("peak_rss_mb", daemon_rss); ("whatif_p50_ms", Ledger.percentile 50.0 !lat);
      ("whatif_p99_ms", Ledger.percentile 99.0 !lat) ]
  in
  let req kind p = Ledger.percentile p (Option.value (Hashtbl.find_opt req_lat kind) ~default:[]) in
  let daemon_profile =
    match trace_file with
    | Some f when Sys.file_exists f -> Ledger.of_trace f
    | _ -> Ledger.empty_profile
  in
  let p = Ledger.merge (Ledger.of_obs obs) daemon_profile in
  let layer =
    [ ("workload.generate_s", gen_s); ("sta.graph_build_s", build_s);
      ("core.gp_s", gp_s);
      ("core.iterations", float_of_int res.Core.res_iterations);
      ("steiner.lut_classes.gp", 0.0);
      ("steiner.lut_classes.score", float_of_int classes_ref);
      ("legalize.lg_s", lg_s);
      ("legalize.overfull_cells", float_of_int lg.Legalize.overfull_cells);
      ("core.score_s", ref_s);
      ("serve.pin_fraction", float_of_int !pins_sum /. float_of_int (rounds * npins));
      ("serve.commit_ms.p50", req "commit" 50.0); ("serve.commit_ms.p99", req "commit" 99.0);
      ("serve.slack_ms.p99", req "slack" 99.0); ("serve.paths_ms.p50", req "paths" 50.0);
      ("serve.move_ms.p50", req "move" 50.0);
      ("gc.minor_words", Ledger.counter p "gc.minor_words");
      ("gc.promoted_words", Ledger.counter p "gc.promoted_words");
      ("gc.major_collections", Ledger.counter p "gc.major_collections") ]
  in
  (tally, e2e, layer, p, wall_s, calib0)

(* ---- metrics ---- *)

let e2e_units =
  [ ("setup_s", "s"); ("wall_s", "s"); ("place_s", "s"); ("hpwl_um", "um");
    ("wns_ps", "ps"); ("tns_ps", "ps"); ("overflow", "ratio"); ("peak_rss_mb", "MB");
    ("whatif_p50_ms", "ms"); ("whatif_p99_ms", "ms") ]

(* Per-layer metrics: (name, unit, source).  [`Own] values come from the
   benchmark's timings, the rest from the program's Obs profile. *)
let layer_metrics =
  let k f name = `Prof (fun p -> f p name) in
  [ ("workload.generate_s", "s", `Own); ("sta.graph_build_s", "s", `Own);
    ("core.gp_s", "s", `Own); ("core.iterations", "count", `Own);
    ("core.run.self_ms", "ms", k Ledger.self_ms "core.run");
    ("core.trace.self_ms", "ms", k Ledger.self_ms "core.trace");
    ("core.coverage_pct", "%", `Prof Ledger.coverage_pct);
    ("steiner.lut_classes.gp", "count", `Own); ("steiner.lut_classes.score", "count", `Own);
    ("steiner.lut.self_ms", "ms", k Ledger.self_ms "steiner.lut");
    ("steiner.refresh.self_ms", "ms", k Ledger.self_ms "steiner.refresh");
    ("steiner.rebuild.cum_ms", "ms", k Ledger.cum_ms "steiner.rebuild");
    ("steiner.nets_lut", "count", k Ledger.counter "steiner.nets_lut");
    ("steiner.nets_clean", "count", k Ledger.counter "steiner.nets_clean");
    ("difftimer.fwd.self_ms", "ms", k Ledger.self_ms "difftimer.fwd");
    ("difftimer.bwd.self_ms", "ms", k Ledger.self_ms "difftimer.bwd");
    ("difftimer.fwd.calls", "count", k Ledger.calls "difftimer.fwd");
    ("wirelength.self_ms", "ms", k Ledger.self_ms "wirelength");
    ("density.splat.self_ms", "ms", k Ledger.self_ms "density.splat");
    ("density.dct.self_ms", "ms", k Ledger.self_ms "density.dct");
    ("density.grad.self_ms", "ms", k Ledger.self_ms "density.grad");
    ("optim.step.self_ms", "ms", k Ledger.self_ms "optim.step");
    ("cluster.coarsen.self_ms", "ms", k Ledger.self_ms "cluster.coarsen");
    ("cluster.interp.self_ms", "ms", k Ledger.self_ms "cluster.interp");
    ("cluster.refine.cum_ms", "ms", k Ledger.cum_ms "cluster.refine");
    ("multilevel.coarse_iters", "count", k Ledger.counter "multilevel.coarse_iters");
    ("cluster.coarse_cells", "count", k Ledger.counter "cluster.coarse_cells");
    ("parallel.dispatch.self_ms", "ms", k Ledger.self_ms "parallel.dispatch");
    ("parallel.wait.self_ms", "ms", k Ledger.self_ms "parallel.wait");
    ("parallel.dispatch.calls", "count", k Ledger.calls "parallel.dispatch");
    ("legalize.lg_s", "s", `Own); ("legalize.overfull_cells", "count", `Own);
    ("detailed.dp_s", "s", `Own); ("detailed.moves", "count", `Own);
    ("detailed.hpwl_gain_pct", "%", `Own);
    ("core.score_s", "s", `Own);
    ("sta.exact.self_ms", "ms", k Ledger.self_ms "sta.exact");
    ("sta.exact.calls", "count", k Ledger.calls "sta.exact");
    ("sta.incremental.self_ms", "ms", k Ledger.self_ms "sta.incremental");
    ("serve.pin_fraction", "ratio", `Own);
    ("serve.commit_ms.p50", "ms", `Own); ("serve.commit_ms.p99", "ms", `Own);
    ("serve.slack_ms.p99", "ms", `Own);
    ("paths.analyze.self_ms", "ms", k Ledger.self_ms "paths.analyze");
    ("paths.enumerate.self_ms", "ms", k Ledger.self_ms "paths.enumerate");
    ("paths.pruned", "count", k Ledger.counter "paths.pruned");
    ("serve.paths_ms.p50", "ms", `Own);
    ("serve.parse.self_ms", "ms", k Ledger.self_ms "serve.parse");
    ("serve.update.self_ms", "ms", k Ledger.self_ms "serve.update");
    ("serve.query.self_ms", "ms", k Ledger.self_ms "serve.query");
    ("serve.move_ms.p50", "ms", `Own);
    ("gc.minor_words", "words", `Own); ("gc.promoted_words", "words", `Own);
    ("gc.major_collections", "count", `Own);
    ("host.calib_ms", "ms", `Own); ("host.steal_pct", "%", `Own);
    ("trace.overhead_pct", "%", `Own) ]

let () =
  let args = parse_args () in
  let steal0, total0 = steal_ticks () in
  let tally, e2e, layer, profile, wall_s, calib0 =
    match args.workload with
    | "flow-timing" -> run_flow args (flow_timing args.smoke)
    | "flow-vcycle" -> run_flow args (flow_vcycle args.smoke)
    | "serve-whatif" -> run_serve args
    | w -> failwith ("unknown workload " ^ w)
  in
  let calib1 = calib_ms () in
  let steal1, total1 = steal_ticks () in
  let ok_pct =
    100.0 *. float_of_int (tally.attempted - tally.failed) /. float_of_int tally.attempted
  in
  let e2e_metrics =
    List.map (fun (n, u) -> Ledger.metric n u (List.assoc n e2e)) e2e_units
    @ [ Ledger.metric "ok_pct" "%" ok_pct ]
  in
  let own =
    layer
    @ [ ("host.calib_ms", (calib0 +. calib1) /. 2.0);
        ("host.steal_pct", 100.0 *. (steal1 -. steal0) /. Float.max 1.0 (total1 -. total0));
        ("trace.overhead_pct",
         match args.untraced_wall with
         | Some w when args.trace -> 100.0 *. (wall_s -. w) /. w
         | _ -> 0.0) ]
  in
  let layer_metrics =
    List.map
      (fun (n, u, src) ->
        Ledger.metric n u
          (match src with
           | `Own -> Option.value (List.assoc_opt n own) ~default:0.0
           | `Prof f -> f profile))
      layer_metrics
  in
  let metrics = if args.trace then layer_metrics else e2e_metrics in
  if args.trace then
    Ledger.write
      (Filename.concat args.out_dir (args.workload ^ ".jsonl"))
      ~workload:args.workload ~spans:(List.rev !spans) ~wall_s ~profile
      ~metrics:(e2e_metrics @ layer_metrics);
  List.iter
    (fun (m : Ledger.metric) ->
      Printf.printf "%-28s %16.6g %s\n" m.Ledger.name m.Ledger.value m.Ledger.unit_)
    metrics;
  Printf.printf "checks: %d attempted, %d failed\n" tally.attempted tally.failed;
  print_endline
    (Ledger.result_line ~correct:(tally.failed = 0) ~attempted:tally.attempted
       ~failed:tally.failed metrics)
