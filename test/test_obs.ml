(* Tests for the per-kernel observability layer: clock sanity, the
   disabled fast path, the span-name interner, span aggregation, the
   coverage line, non-perturbation of Core.run, and the JSONL trace
   format. *)

let lib = Liberty.Synthetic.default ()

let setup ?(cells = 200) ?(seed = 7) () =
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = cells; sp_seed = seed; sp_clock_period = 800.0 }
  in
  let design, cons = Workload.generate lib spec in
  (design, Sta.Graph.build design lib cons)

let bits = Int64.bits_of_float

let test_clock_monotonic () =
  let a = Obs.Clock.now_ns () in
  let b = Obs.Clock.now_ns () in
  Alcotest.(check bool) "ns never steps back" true (Int64.compare b a >= 0);
  let t0 = Obs.Clock.now () in
  (* burn a little time so the delta is strictly positive *)
  let acc = ref 0.0 in
  for i = 1 to 100_000 do acc := !acc +. sqrt (float_of_int i) done;
  ignore !acc;
  let t1 = Obs.Clock.now () in
  Alcotest.(check bool) "seconds advance" true (t1 > t0)

let test_disabled_is_noop () =
  Alcotest.(check bool) "disabled" false (Obs.enabled Obs.disabled);
  (* every operation must be a silent no-op on the disabled instance *)
  Obs.start Obs.disabled (Obs.kernel "wirelength");
  Obs.stop Obs.disabled;
  Obs.set_iteration Obs.disabled 3;
  Obs.add Obs.disabled "x" 1.0;
  Obs.gauge Obs.disabled "y" 2.0;
  Alcotest.(check int) "no stats" 0 (List.length (Obs.stats Obs.disabled));
  Alcotest.(check int) "no counters" 0
    (List.length (Obs.counters Obs.disabled))

let find_stat obs name =
  match
    List.find_opt
      (fun s -> Obs.kernel_name s.Obs.st_kernel = name)
      (Obs.stats obs)
  with
  | Some s -> s
  | None -> Alcotest.failf "missing kernel %s" name

(* A name is interned once: every call returns the handle the owning
   library declared at toplevel, and the handle names itself. *)
let test_interner_same_handle () =
  let a = Obs.kernel "test.interner.a" and b = Obs.kernel "test.interner.b" in
  Alcotest.(check bool) "same name, same handle" true
    (a = Obs.kernel "test.interner.a");
  Alcotest.(check bool) "distinct names, distinct handles" true (a <> b);
  Alcotest.(check string) "name round-trips" "test.interner.a"
    (Obs.kernel_name a);
  (* Density interned "density.dct" when it was linked: a span it opens
     lands on the handle this lookup returns *)
  let design, _ = setup () in
  let d = Density.create design in
  let obs = Obs.create () in
  Density.update ~obs d;
  Alcotest.(check bool) "library handle shared" true
    (List.exists
       (fun s -> s.Obs.st_kernel = Obs.kernel "density.dct")
       (Obs.stats obs))

let test_span_aggregation () =
  let obs = Obs.create () in
  Alcotest.(check bool) "enabled" true (Obs.enabled obs);
  (* two calls of a parent span with a nested child in each *)
  let k_parent = Obs.kernel "sta.exact" in
  let k_child = Obs.kernel "steiner.rebuild" in
  for _ = 1 to 2 do
    Obs.start obs k_parent;
    Obs.start obs k_child;
    let acc = ref 0.0 in
    for i = 1 to 10_000 do acc := !acc +. sqrt (float_of_int i) done;
    ignore !acc;
    Obs.stop obs;
    Obs.stop obs
  done;
  let parent = find_stat obs "sta.exact" in
  let child = find_stat obs "steiner.rebuild" in
  Alcotest.(check int) "parent calls" 2 parent.Obs.st_calls;
  Alcotest.(check int) "child calls" 2 child.Obs.st_calls;
  Alcotest.(check bool) "child nested in parent" true
    (child.Obs.st_cum <= parent.Obs.st_cum);
  (* self excludes the nested span *)
  Alcotest.(check (float 1e-9)) "self = cum - children"
    (parent.Obs.st_cum -. child.Obs.st_cum)
    parent.Obs.st_self;
  Alcotest.(check bool) "min <= max" true
    (parent.Obs.st_min <= parent.Obs.st_max);
  Alcotest.(check bool) "calls * min <= cum" true
    (float_of_int parent.Obs.st_calls *. parent.Obs.st_min
     <= parent.Obs.st_cum +. 1e-12)

let test_counters_and_gauges () =
  let obs = Obs.create () in
  Obs.add obs "a" 1.5;
  Obs.add obs "a" 2.5;
  Obs.add obs "b" 1.0;
  Obs.gauge obs "g" 10.0;
  Obs.gauge obs "g" 20.0;
  let cs = Obs.counters obs in
  Alcotest.(check (float 1e-12)) "counter accumulates" 4.0
    (List.assoc "a" cs);
  Alcotest.(check (float 1e-12)) "second counter" 1.0 (List.assoc "b" cs);
  Alcotest.(check (float 1e-12)) "gauge overwrites" 20.0 (List.assoc "g" cs)

(* Profiling must not perturb placement: a Core.run with a live recorder
   is bit-identical to the default (disabled) one, in every mode, both
   sequential and pooled. *)
let test_run_not_perturbed () =
  let modes =
    [ ("wl", Core.Wirelength_only);
      ("netweight", Core.Net_weighting Netweight.default_config);
      ("pathweight", Core.Net_weighting Netweight.path_config);
      ("timing", Core.Differentiable_timing Core.default_timing) ]
  in
  List.iter
    (fun (label, mode) ->
      let cfg =
        { Core.default_config with
          Core.mode; max_iterations = 40; min_iterations = 15;
          trace_timing_period = 10 }
      in
      let run ?pool ~obs () =
        let design, graph = setup () in
        let r = Core.run ?pool ~obs cfg graph in
        let pos =
          Array.map
            (fun (c : Netlist.cell) -> (c.Netlist.x, c.Netlist.y))
            design.Netlist.cells
        in
        (r, pos)
      in
      let check_same tag (r1, (pos1 : (float * float) array)) (r2, pos2) =
        Alcotest.(check int)
          (label ^ tag ^ ": iterations")
          r1.Core.res_iterations r2.Core.res_iterations;
        Alcotest.(check bool)
          (label ^ tag ^ ": hpwl bit-identical")
          true
          (bits r1.Core.res_hpwl = bits r2.Core.res_hpwl);
        Array.iteri
          (fun i (x1, y1) ->
            let x2, y2 = pos2.(i) in
            if bits x1 <> bits x2 || bits y1 <> bits y2 then
              Alcotest.failf "%s%s: cell %d position differs" label tag i)
          pos1
      in
      let base = run ~obs:Obs.disabled () in
      let profiled = run ~obs:(Obs.create ~gc:true ()) () in
      check_same " seq" base profiled;
      let pool = Parallel.create ~domains:4 ~oversubscribe:true () in
      let pooled =
        Fun.protect
          ~finally:(fun () -> Parallel.shutdown pool)
          (fun () -> run ~pool ~obs:(Obs.create ()) ())
      in
      check_same " pooled" base pooled)
    modes

(* ---- a tiny JSONL field scanner (the round-trip parser) ---- *)

let find_sub line pat =
  let n = String.length line and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = pat then Some (i + m)
    else go (i + 1)
  in
  go 0

(* extract the value of ["name": ...] as a raw string (unquoted) *)
let field line name =
  match find_sub line (Printf.sprintf "\"%s\":" name) with
  | None -> None
  | Some i ->
    if i < String.length line && line.[i] = '"' then begin
      let j = String.index_from line (i + 1) '"' in
      Some (String.sub line (i + 1) (j - i - 1))
    end
    else begin
      let j = ref i in
      while
        !j < String.length line && line.[!j] <> ',' && line.[!j] <> '}'
      do
        incr j
      done;
      Some (String.sub line i (!j - i))
    end

let test_jsonl_trace () =
  (* exercise every instrumented kernel against one recorder *)
  let obs = Obs.create ~gc:true () in
  let design, graph = setup () in
  let cfg =
    { Core.default_config with
      Core.mode = Core.Wirelength_only; max_iterations = 20;
      min_iterations = 10 }
  in
  let _ = Core.run ~obs cfg graph in
  let timer = Sta.Timer.create graph in
  let _ = Sta.Timer.run ~obs timer in
  let nets = Sta.Nets.create graph in
  Sta.Nets.refresh ~obs nets;
  let dt = Difftimer.create graph in
  Sta.Nets.rebuild ~obs (Difftimer.nets dt);
  let _ = Difftimer.forward ~obs dt in
  let n = Netlist.num_cells design in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  Difftimer.backward ~obs dt ~w_tns:1.0 ~w_wns:1.0 ~grad_x:gx ~grad_y:gy;
  let nw = Netweight.create graph in
  let _ = Netweight.update ~obs nw in
  let pw = Netweight.create ~config:Netweight.path_config graph in
  let _ = Netweight.update ~obs pw in
  let view = Paths.analyze ~obs timer in
  let _ = Paths.enumerate ~obs ~k:3 view in
  let _ = Legalize.legalize ~obs design in
  (* incremental STA on the same timer *)
  (let c = design.Netlist.cells.(List.hd (Netlist.movable_cells design)) in
   Sta.Incremental.move_cell timer c.Netlist.cell_id ~x:c.Netlist.x
     ~y:c.Netlist.y);
  let _ = Sta.Incremental.update ~obs timer in
  (* routability kernels: a real demand map, summary and inflation pass *)
  let rudy = Route.Rudy.create design in
  Route.Rudy.update ~obs rudy;
  let _ = Route.overflow ~obs rudy in
  let infl = Route.Inflate.create design in
  let _ =
    Route.Inflate.step ~obs
      { Route.default_config with Route.rt_target = 0.0 }
      infl rudy
  in
  Route.Inflate.restore infl;
  (* the multilevel V-cycle, so the cluster coarsen/interp/refine spans
     reach the trace (min_cells low enough that 200 cells coarsen) *)
  let ml_design, ml_graph = setup ~seed:11 () in
  ignore ml_design;
  let _ =
    Core.run_multilevel ~obs
      ~ml:
        { Core.default_multilevel with
          Core.ml_levels = 2; ml_min_cells = 16 }
      { cfg with Core.max_iterations = 10; min_iterations = 2 }
      ml_graph
  in
  (* a pooled dispatch so the executor's own kernels reach the trace *)
  let pool = Parallel.create ~domains:2 ~oversubscribe:true () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () -> Parallel.parallel_for pool ~obs ~grain:64 1_024 (fun _ -> ()));
  let path = Filename.temp_file "dgp_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.write_trace obs path;
      let lines =
        In_channel.with_open_text path In_channel.input_lines
        |> List.filter (fun l -> String.trim l <> "")
      in
      (match lines with
       | meta :: _ ->
         Alcotest.(check (option string)) "meta first" (Some "meta")
           (field meta "ev");
         Alcotest.(check bool) "meta names the clock" true
           (field meta "clock" = Some "monotonic")
       | [] -> Alcotest.fail "empty trace");
      (* every line parses: has an "ev" and is brace-delimited *)
      List.iter
        (fun l ->
          Alcotest.(check bool) "line is a JSON object" true
            (l.[0] = '{' && l.[String.length l - 1] = '}');
          if field l "ev" = None then Alcotest.failf "no ev in %s" l)
        lines;
      (* span events balance like a stack, per worker *)
      let depth = Hashtbl.create 4 in
      let last_t = Hashtbl.create 4 in
      let seen = Hashtbl.create 32 in
      List.iter
        (fun l ->
          match field l "ev" with
          | Some "b" | Some "e" ->
            let w = Option.get (field l "w") in
            let k = Option.get (field l "k") in
            let t = float_of_string (Option.get (field l "t")) in
            let prev =
              Option.value ~default:neg_infinity (Hashtbl.find_opt last_t w)
            in
            Alcotest.(check bool) "timestamps non-decreasing per worker"
              true (t >= prev);
            Hashtbl.replace last_t w t;
            let d =
              match Hashtbl.find_opt depth w with
              | Some r -> r
              | None ->
                let r = ref 0 in
                Hashtbl.add depth w r;
                r
            in
            if field l "ev" = Some "b" then begin
              incr d;
              Hashtbl.replace seen k ()
            end
            else begin
              decr d;
              if !d < 0 then Alcotest.failf "unbalanced span close: %s" l
            end
          | _ -> ())
        lines;
      Hashtbl.iter
        (fun w d ->
          if !d <> 0 then
            Alcotest.failf "worker %s left %d spans open" w !d)
        depth;
      (* the trace covers every span perfbench's ledger reads (the
         daemon's serve.* spans are checked by scripts/serve_smoke.py)
         and the library's other spans this run drives *)
      List.iter
        (fun name ->
          if not (Hashtbl.mem seen name) then
            Alcotest.failf "kernel %s missing from trace" name)
        [ "core.run"; "core.trace"; "optim.step"; "wirelength";
          "density.splat"; "density.dct"; "density.grad"; "steiner.rebuild";
          "steiner.lut"; "steiner.refresh"; "sta.exact"; "sta.incremental";
          "difftimer.fwd"; "difftimer.bwd"; "paths.analyze";
          "paths.enumerate"; "cluster.coarsen"; "cluster.interp";
          "cluster.refine"; "parallel.dispatch"; "parallel.wait";
          "netweight.update"; "legalize"; "route.rudy";
          "route.overflow"; "route.inflate" ];
      (* counters and gc gauges made it out *)
      let has_counter name =
        List.exists
          (fun l ->
            (field l "ev" = Some "c" || field l "ev" = Some "g")
            && field l "k" = Some name)
          lines
      in
      Alcotest.(check bool) "legalize counter present" true
        (has_counter "legalize.overfull_cells");
      Alcotest.(check bool) "gc gauge present" true
        (has_counter "gc.minor_words"))

(* Read a trace back as (ev, k) pairs of its span events. *)
let trace_spans obs =
  let path = Filename.temp_file "dgp_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.write_trace obs path;
      In_channel.with_open_text path In_channel.input_lines
      |> List.filter_map (fun l ->
           match field l "ev" with
           | Some ("b" | "e" as ev) -> Some (ev, Option.get (field l "k"))
           | _ -> None))

(* Twice the 32 names the old 5-bit tag could hold: each records, and
   each begin/end pair round-trips through the JSONL trace by name. *)
let test_many_kernels_round_trip () =
  let names = List.init 64 (Printf.sprintf "test.many.k%02d") in
  let ks = List.map Obs.kernel names in
  let obs = Obs.create () in
  Obs.set_iteration obs 5;
  List.iter (fun k -> Obs.span obs k (fun () -> ())) ks;
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " calls") 1
        (find_stat obs name).Obs.st_calls)
    names;
  Alcotest.(check (list (pair string string)))
    "trace events in order, by name"
    (List.concat_map (fun n -> [ ("b", n); ("e", n) ]) names)
    (trace_spans obs)

(* A name interned after the recorder exists (beyond its aggregate
   arrays) still records, nested under an earlier one. *)
let test_late_kernel_records () =
  let outer = Obs.kernel "test.late.outer" in
  let obs = Obs.create () in
  let late = List.init 40 (Printf.sprintf "test.late.k%02d") in
  Obs.start obs outer;
  List.iter (fun n -> Obs.span obs (Obs.kernel n) (fun () -> ())) late;
  Obs.stop obs;
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " calls") 1
        (find_stat obs name).Obs.st_calls)
    ("test.late.outer" :: late);
  let o = find_stat obs "test.late.outer" in
  Alcotest.(check bool) "children excluded from outer self" true
    (o.Obs.st_self <= o.Obs.st_cum);
  Alcotest.(check int) "trace events" (2 * (1 + List.length late))
    (List.length (trace_spans obs))

(* The --profile coverage line is core.run's (cum - self) / cum, the
   figure perfbench's ledger reports as core.coverage_pct. *)
let test_coverage_is_ledger () =
  let _, graph = setup () in
  let obs = Obs.create () in
  let cfg =
    { Core.default_config with
      Core.mode = Core.Differentiable_timing Core.default_timing;
      max_iterations = 30; min_iterations = 10; trace_timing_period = 10 }
  in
  ignore (Core.run ~obs cfg graph);
  (* a standalone span after the run does not count towards coverage *)
  ignore (Sta.Timer.run ~obs (Sta.Timer.create graph));
  let report = Format.asprintf "%a" Obs.pp_report obs in
  let line =
    match
      List.find_opt
        (String.starts_with ~prefix:"coverage:")
        (String.split_on_char '\n' report)
    with
    | Some l -> l
    | None -> Alcotest.failf "no coverage line in:\n%s" report
  in
  let run = Ledger.kernel (Ledger.of_obs obs) "core.run" in
  Alcotest.(check string) "coverage line"
    (Printf.sprintf
       "coverage: %.1f%% of core.run wall time (%.3f ms) attributed to \
        kernel self times"
       (Ledger.coverage_pct (Ledger.of_obs obs))
       (run.Ledger.cum_s *. 1e3))
    line

(* perfbench's ledger reads these names: the path engine's candidate
   counters, the three Steiner rebuild sub-kernels and the per-class
   net counters, which partition the nets that carry a tree. *)
let test_instrumentation_names () =
  let design, graph = setup ~cells:400 () in
  let timer = Sta.Timer.create graph in
  ignore (Sta.Timer.run timer);
  let obs = Obs.create () in
  ignore (Paths.enumerate ~obs ~k:16 (Paths.analyze timer));
  let counters = Obs.counters obs in
  List.iter
    (fun name ->
      if not (List.mem_assoc name counters) then
        Alcotest.failf "Paths.enumerate did not record %s" name)
    [ "paths.pushed"; "paths.popped"; "paths.pruned";
      "paths.endpoints_skipped" ];
  let nets = Sta.Nets.create graph in
  List.iter
    (fun c ->
      if c mod 5 = 0 then begin
        let cell = design.Netlist.cells.(c) in
        cell.Netlist.x <- cell.Netlist.x +. 3.0
      end)
    (Netlist.movable_cells design);
  let obs = Obs.create () in
  Sta.Nets.rebuild ~dirty_threshold:0.25 ~obs nets;
  let spans =
    List.map (fun s -> Obs.kernel_name s.Obs.st_kernel) (Obs.stats obs)
  in
  List.iter
    (fun name ->
      if not (List.mem name spans) then
        Alcotest.failf "Sta.Nets.rebuild did not record %s" name)
    [ "steiner.dirty"; "steiner.lut"; "steiner.full" ];
  let counter name =
    match List.assoc_opt name (Obs.counters obs) with
    | Some v -> v
    | None -> Alcotest.failf "Sta.Nets.rebuild did not record %s" name
  in
  let with_tree =
    Array.fold_left
      (fun acc t -> if Option.is_some t then acc + 1 else acc)
      0 nets.Sta.Nets.trees
  in
  Alcotest.(check (float 0.0)) "net classes partition the trees"
    (float_of_int with_tree)
    (counter "steiner.nets_clean" +. counter "steiner.nets_lut"
     +. counter "steiner.nets_full")

let suite =
  [ Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "interner: same name, same handle" `Quick
      test_interner_same_handle;
    Alcotest.test_case "interner: 64 kernels round-trip the trace" `Quick
      test_many_kernels_round_trip;
    Alcotest.test_case "interner: name interned after create records" `Quick
      test_late_kernel_records;
    Alcotest.test_case "span aggregation" `Quick test_span_aggregation;
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "profiling does not perturb Core.run" `Slow
      test_run_not_perturbed;
    Alcotest.test_case "jsonl trace" `Quick test_jsonl_trace;
    Alcotest.test_case "coverage is core.run's (cum - self) / cum" `Quick
      test_coverage_is_ledger;
    Alcotest.test_case "ledger instrumentation names" `Quick
      test_instrumentation_names ]
