(* Tests for the top-K critical-path enumeration engine. *)

let lib = Liberty.Synthetic.default ()

let bits = Int64.bits_of_float

(* the three workload shapes x two seeds the property tests sweep *)
let specs_under_test =
  [ { Workload.default_spec with
      Workload.sp_cells = 220; sp_clock_period = 700.0 };
    { Workload.default_spec with
      Workload.sp_cells = 320; sp_depth = 12; sp_clock_period = 600.0 };
    { Workload.default_spec with
      Workload.sp_cells = 260; sp_inputs = 12; sp_outputs = 12;
      sp_clock_period = 900.0 } ]

let seeds = [ 3; 11 ]

let with_timer ?(cells = None) spec seed f =
  let spec = { spec with Workload.sp_seed = seed } in
  let spec =
    match cells with None -> spec | Some c -> { spec with Workload.sp_cells = c }
  in
  let design, cons = Workload.generate lib spec in
  let graph = Sta.Graph.build design lib cons in
  let timer = Sta.Timer.create graph in
  let _ = Sta.Timer.run timer in
  f design graph timer

let check_steps_equal label (expected : Sta.Timer.path_step list)
    (actual : Sta.Timer.path_step list) =
  if List.length expected <> List.length actual then
    Alcotest.failf "%s: length %d vs %d" label (List.length expected)
      (List.length actual);
  List.iter2
    (fun (e : Sta.Timer.path_step) (a : Sta.Timer.path_step) ->
      if e.Sta.Timer.ps_pin <> a.Sta.Timer.ps_pin then
        Alcotest.failf "%s: pin %d vs %d" label e.Sta.Timer.ps_pin
          a.Sta.Timer.ps_pin;
      if e.Sta.Timer.ps_transition <> a.Sta.Timer.ps_transition then
        Alcotest.failf "%s: transition differs at pin %d" label
          e.Sta.Timer.ps_pin;
      if bits e.Sta.Timer.ps_at <> bits a.Sta.Timer.ps_at then
        Alcotest.failf "%s: arrival differs at pin %d" label e.Sta.Timer.ps_pin;
      if bits e.Sta.Timer.ps_slew <> bits a.Sta.Timer.ps_slew then
        Alcotest.failf "%s: slew differs at pin %d" label e.Sta.Timer.ps_pin)
    expected actual

(* the engine's top-1 path bit-matches the oracle's arrival-time
   retrace for every endpoint, on every spec x seed *)
let test_top1_bit_matches_critical_path () =
  List.iter
    (fun spec ->
      List.iter
        (fun seed ->
          with_timer spec seed (fun _ graph timer ->
            let view = Paths.analyze timer in
            Array.iter
              (fun ep ->
                let label = Printf.sprintf "seed %d ep %d" seed ep in
                let expected = Sta_oracle.critical_path ~endpoint:ep timer in
                match Paths.enumerate_endpoint ~k:1 view ep with
                | [] ->
                  if expected <> [] then
                    Alcotest.failf "%s: engine empty, retrace not" label
                | [ p ] ->
                  Alcotest.(check int) (label ^ ": endpoint") ep
                    p.Paths.pt_endpoint;
                  Alcotest.(check int) (label ^ ": rank") 0 p.Paths.pt_rank;
                  check_steps_equal label expected p.Paths.pt_steps;
                  (* the worst path's slack is the endpoint pin slack *)
                  if bits p.Paths.pt_slack
                     <> bits (Sta.Timer.pin_slack_late timer ep)
                  then Alcotest.failf "%s: slack != pin slack" label
                | _ -> Alcotest.failf "%s: k=1 returned several paths" label)
              graph.Sta.Graph.endpoints))
        seeds)
    specs_under_test

(* the k=1 global enumeration reproduces the oracle's default retrace
   (same endpoint pick, same steps) *)
let test_global_top1_matches_default () =
  List.iter
    (fun spec ->
      List.iter
        (fun seed ->
          with_timer spec seed (fun _ _ timer ->
            let view = Paths.analyze timer in
            let expected = Sta_oracle.critical_path timer in
            match Paths.enumerate ~k:1 view with
            | [] -> Alcotest.(check int) "both empty" 0 (List.length expected)
            | [ p ] -> check_steps_equal "global top-1" expected p.Paths.pt_steps
            | _ -> Alcotest.fail "k=1 returned several paths"))
        seeds)
    specs_under_test

(* satellite: enumerated slacks are monotonically non-decreasing in
   rank, per endpoint and globally; paths are structurally sound and
   pairwise distinct *)
let test_ranked_slacks_monotone () =
  List.iter
    (fun spec ->
      List.iter
        (fun seed ->
          with_timer spec seed (fun design _ timer ->
            let view = Paths.analyze timer in
            let check_paths label paths =
              let previous = ref neg_infinity in
              List.iter
                (fun (p : Paths.path) ->
                  if p.Paths.pt_slack < !previous then
                    Alcotest.failf "%s: slack decreased at rank %d" label
                      p.Paths.pt_rank;
                  previous := p.Paths.pt_slack;
                  (match List.rev p.Paths.pt_steps with
                   | last :: _ ->
                     Alcotest.(check int) (label ^ ": ends at endpoint")
                       p.Paths.pt_endpoint last.Sta.Timer.ps_pin
                   | [] -> Alcotest.failf "%s: empty step list" label);
                  if not (Float.is_finite p.Paths.pt_slack) then
                    Alcotest.failf "%s: non-finite slack" label)
                paths
            in
            let nets = Sta.Timer.nets timer in
            Array.iter
              (fun ep ->
                let paths = Paths.enumerate_endpoint ~k:8 view ep in
                check_paths (Printf.sprintf "seed %d ep %d" seed ep) paths;
                List.iteri
                  (fun i (p : Paths.path) ->
                    Alcotest.(check int) "rank is position" i p.Paths.pt_rank)
                  paths;
                (* distinct node sequences *)
                let keys =
                  List.map
                    (fun (p : Paths.path) ->
                      List.map
                        (fun (s : Sta.Timer.path_step) ->
                          (s.Sta.Timer.ps_pin, s.Sta.Timer.ps_transition))
                        p.Paths.pt_steps)
                    paths
                in
                let sorted = List.sort_uniq compare keys in
                Alcotest.(check int)
                  (Printf.sprintf "seed %d ep %d distinct" seed ep)
                  (List.length keys) (List.length sorted))
              nets.Sta.Nets.graph.Sta.Graph.endpoints;
            check_paths (Printf.sprintf "seed %d global" seed)
              (Paths.enumerate ~k:50 view);
            ignore design))
        seeds)
    specs_under_test

(* independent check on a small design: a plain backward DFS over the
   timer's public state enumerates every complete path; the engine must
   find exactly as many (when k is large enough) with matching slacks *)
let brute_force_paths design graph timer ep =
  let nets = Sta.Timer.nets timer in
  let at v tr = Sta.Timer.at_late timer v tr in
  let preds v tr =
    let pin = design.Netlist.pins.(v) in
    let net = pin.Netlist.net in
    let via_net =
      if pin.Netlist.direction = Netlist.Input && net >= 0 then
        match nets.Sta.Nets.trees.(net) with
        | Some (_, rc) ->
          let u = graph.Sta.Graph.net_driver_of.(net) in
          if u >= 0 && u <> v && at u tr > neg_infinity then
            [ (u, tr, Rc.sink_delay rc nets.Sta.Nets.tree_index.(v)) ]
          else []
        | None -> []
      else []
    in
    let load =
      if net >= 0 then
        match nets.Sta.Nets.trees.(net) with
        | Some (_, rc) -> Rc.root_load rc
        | None -> 0.0
      else 0.0
    in
    let cell = ref [] in
    let oi = Sta.transition_index tr in
    for k = graph.Sta.Graph.fanin_off.(v)
        to graph.Sta.Graph.fanin_off.(v + 1) - 1 do
      let a = graph.Sta.Graph.fanin_arc.(k) in
      let u = graph.Sta.Graph.arc_from.(a) in
      let arc = graph.Sta.Graph.arc_table.(a) in
      for ii = 0 to 1 do
        let tr_in = if ii = 0 then Sta.Rise else Sta.Fall in
        if Sta.Graph.arc_admits graph a ~tr_out:tr ~tr_in
           && at u tr_in > neg_infinity
        then begin
          let lut =
            if oi = 0 then arc.Liberty.cell_rise else arc.Liberty.cell_fall
          in
          let d =
            Liberty.Lut.lookup lut (Sta.Timer.slew_late timer u tr_in) load
          in
          cell := (u, tr_in, d) :: !cell
        end
      done
    done;
    via_net @ List.rev !cell
  in
  let slacks = ref [] in
  let budget = ref 20000 in
  (* walk backward accumulating the delay list; arrival is recomputed
     forward from the startpoint so this is an independent sum *)
  let rec dfs v tr delays rat =
    decr budget;
    if !budget < 0 then Alcotest.fail "brute force path explosion";
    match preds v tr with
    | [] ->
      let arrival = List.fold_left ( +. ) (at v tr) delays in
      slacks := (rat -. arrival) :: !slacks
    | ps -> List.iter (fun (u, tr_in, d) -> dfs u tr_in (d :: delays) rat) ps
  in
  List.iter
    (fun tr ->
      let a = at ep tr and r = Sta.Timer.rat_late timer ep tr in
      if a > neg_infinity && r < infinity then dfs ep tr [] r)
    [ Sta.Rise; Sta.Fall ];
  List.sort compare !slacks

let test_matches_brute_force () =
  List.iter
    (fun seed ->
      let spec =
        { Workload.default_spec with
          Workload.sp_cells = 60; sp_inputs = 4; sp_outputs = 4; sp_depth = 4;
          sp_clock_period = 500.0 }
      in
      with_timer spec seed (fun design graph timer ->
        let view = Paths.analyze timer in
        Array.iter
          (fun ep ->
            let expected = brute_force_paths design graph timer ep in
            let got = Paths.enumerate_endpoint ~k:100_000 view ep in
            let label = Printf.sprintf "seed %d ep %d" seed ep in
            Alcotest.(check int) (label ^ ": path count")
              (List.length expected) (List.length got);
            List.iter2
              (fun e (p : Paths.path) ->
                let tol = 1e-6 *. Float.max 1.0 (Float.abs e) in
                if Float.abs (e -. p.Paths.pt_slack) > tol then
                  Alcotest.failf "%s: slack %g vs %g" label e p.Paths.pt_slack)
              expected got)
          graph.Sta.Graph.endpoints))
    [ 5; 9 ]

let check_paths_equal label (a : Paths.path list) (b : Paths.path list) =
  Alcotest.(check int) (label ^ ": count") (List.length a) (List.length b);
  List.iter2
    (fun (x : Paths.path) (y : Paths.path) ->
      if
        x.Paths.pt_endpoint <> y.Paths.pt_endpoint
        || x.Paths.pt_rank <> y.Paths.pt_rank
        || bits x.Paths.pt_slack <> bits y.Paths.pt_slack
        || x.Paths.pt_nets <> y.Paths.pt_nets
        || x.Paths.pt_arcs <> y.Paths.pt_arcs
      then Alcotest.failf "%s: path record differs" label;
      check_steps_equal label x.Paths.pt_steps y.Paths.pt_steps)
    a b

(* the lazy engine is bitwise identical to the eager oracle
   ([Paths_oracle]) — globally across k and slack limits,
   and per endpoint *)
let test_matches_reference () =
  List.iter
    (fun spec ->
      List.iter
        (fun seed ->
          with_timer spec seed (fun _ graph timer ->
            let view = Paths.analyze timer in
            List.iter
              (fun limit ->
                let lim_label =
                  match limit with None -> "inf" | Some l -> string_of_float l
                in
                List.iter
                  (fun k ->
                    let label =
                      Printf.sprintf "seed %d k %d lim %s" seed k lim_label
                    in
                    check_paths_equal (label ^ " global")
                      (Paths_oracle.enumerate ?slack_limit:limit ~k timer
                         view)
                      (Paths.enumerate ?slack_limit:limit ~k view))
                  [ 1; 4; 16; 64 ];
                Array.iter
                  (fun ep ->
                    let label =
                      Printf.sprintf "seed %d ep %d lim %s" seed ep lim_label
                    in
                    check_paths_equal label
                      (Paths_oracle.enumerate_endpoint ?slack_limit:limit
                         ~k:16 timer view ep)
                      (Paths.enumerate_endpoint ?slack_limit:limit ~k:16 view
                         ep))
                  graph.Sta.Graph.endpoints)
              [ None; Some 0.0 ]))
        seeds)
    specs_under_test

(* a K beyond any path count costs what the paths cost: the k-th-best
   bound heap grows with the slacks offered, so [max_int] neither
   allocates K slots up front nor changes the answer *)
let test_huge_k () =
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 60; sp_inputs = 4; sp_outputs = 4; sp_depth = 4;
      sp_clock_period = 500.0 }
  in
  with_timer spec 5 (fun _ _ timer ->
    let view = Paths.analyze timer in
    let all = Paths.enumerate ~k:100_000 view in
    Alcotest.(check bool) "every path fits in k = 100000" true
      (List.length all < 100_000);
    check_paths_equal "k max_int" all (Paths.enumerate ~k:max_int view))

(* property: enumeration at slack_limit L equals the unrestricted
   enumeration filtered to slack < L — globally and per endpoint, with
   L spanning the slack range including exact path slacks (strictness) *)
let test_slack_limit_property () =
  List.iter
    (fun (spec, seed) ->
      with_timer spec seed (fun _ graph timer ->
        let view = Paths.analyze timer in
        let all = Paths.enumerate ~k:40 view in
        let nth_slack n =
          match List.nth_opt all n with
          | Some p -> [ p.Paths.pt_slack ]
          | None -> []
        in
        let limits =
          (0.0 :: nth_slack 5) @ nth_slack 20
          @
          match all with
          | p :: _ -> [ p.Paths.pt_slack +. 25.0 ]
          | [] -> []
        in
        List.iter
          (fun l ->
            let label = Printf.sprintf "seed %d limit %g" seed l in
            let limited = Paths.enumerate ~slack_limit:l ~k:40 view in
            let expected =
              List.filter (fun (p : Paths.path) -> p.Paths.pt_slack < l) all
            in
            check_paths_equal (label ^ " global") expected limited;
            Array.iter
              (fun ep ->
                let full = Paths.enumerate_endpoint ~k:64 view ep in
                (* truncation at k can make [full] shorter than the true
                   set; with equal k the below-limit prefix coincides *)
                if List.length full < 64 then
                  check_paths_equal
                    (Printf.sprintf "%s ep %d" label ep)
                    (List.filter
                       (fun (p : Paths.path) -> p.Paths.pt_slack < l)
                       full)
                    (Paths.enumerate_endpoint ~slack_limit:l ~k:64 view ep))
              graph.Sta.Graph.endpoints)
          limits))
    [ (List.hd specs_under_test, 3); (List.nth specs_under_test 1, 11) ]

(* property: the returned paths are pairwise-distinct pin-transition
   sequences — the deviation decomposition must generate every complete
   path exactly once, globally and per endpoint *)
let test_paths_pairwise_distinct () =
  let key (p : Paths.path) =
    List.map
      (fun (s : Sta.Timer.path_step) ->
        (s.Sta.Timer.ps_pin, s.Sta.Timer.ps_transition))
      p.Paths.pt_steps
  in
  let check_distinct label paths =
    let keys = List.map key paths in
    let uniq = List.sort_uniq compare keys in
    Alcotest.(check int) (label ^ ": distinct") (List.length keys)
      (List.length uniq)
  in
  List.iter
    (fun spec ->
      List.iter
        (fun seed ->
          with_timer spec seed (fun _ graph timer ->
            let view = Paths.analyze timer in
            check_distinct
              (Printf.sprintf "seed %d global" seed)
              (Paths.enumerate ~k:64 view);
            Array.iter
              (fun ep ->
                check_distinct
                  (Printf.sprintf "seed %d ep %d" seed ep)
                  (Paths.enumerate_endpoint ~k:32 view ep))
              graph.Sta.Graph.endpoints))
        seeds)
    specs_under_test

(* the slack-limit prune is exact: it returns precisely the unlimited
   enumeration truncated at the limit *)
let test_slack_limit_exact () =
  with_timer (List.hd specs_under_test) 3 (fun _ graph timer ->
    let view = Paths.analyze timer in
    Array.iter
      (fun ep ->
        let all = Paths.enumerate_endpoint ~k:64 view ep in
        let limited = Paths.enumerate_endpoint ~slack_limit:0.0 ~k:64 view ep in
        let expected =
          List.filter (fun (p : Paths.path) -> p.Paths.pt_slack < 0.0) all
        in
        (* truncation at k can make [all] shorter than the true set, but
           with equal k the violating prefix must coincide *)
        if List.length all < 64 then begin
          Alcotest.(check int) "limited count" (List.length expected)
            (List.length limited);
          List.iter2
            (fun (a : Paths.path) (b : Paths.path) ->
              if bits a.Paths.pt_slack <> bits b.Paths.pt_slack then
                Alcotest.fail "limited enumeration diverged")
            expected limited
        end)
      graph.Sta.Graph.endpoints)

(* satellite: pooled enumeration, criticality arrays and the Pathweight
   Core.run trace are bit-identical at 1 vs 4 domains (the Core.run leg
   lives in test_core's four-mode determinism test) *)
let test_pool_determinism () =
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 400; sp_clock_period = 600.0 }
  in
  with_timer spec 14 (fun _ _ timer ->
    let run pool =
      let view = Paths.analyze ?pool timer in
      let paths = Paths.enumerate ?pool ~k:40 view in
      (paths, Paths.net_criticality view paths)
    in
    let p1, nc1 = run None in
    let pool = Parallel.create ~domains:4 () in
    let p4, nc4 =
      Fun.protect
        ~finally:(fun () -> Parallel.shutdown pool)
        (fun () -> run (Some pool))
    in
    Alcotest.(check int) "same path count" (List.length p1) (List.length p4);
    List.iter2
      (fun (a : Paths.path) (b : Paths.path) ->
        if a.Paths.pt_endpoint <> b.Paths.pt_endpoint
           || a.Paths.pt_rank <> b.Paths.pt_rank
           || bits a.Paths.pt_slack <> bits b.Paths.pt_slack
           || a.Paths.pt_nets <> b.Paths.pt_nets
           || a.Paths.pt_arcs <> b.Paths.pt_arcs
        then Alcotest.fail "pooled path set differs";
        check_steps_equal "pooled steps" a.Paths.pt_steps b.Paths.pt_steps)
      p1 p4;
    Array.iteri
      (fun i v ->
        if bits v <> bits nc4.(i) then
          Alcotest.failf "net criticality differs at %d" i)
      nc1)

let test_criticality_counts () =
  with_timer (List.hd specs_under_test) 3 (fun design _ timer ->
    let view = Paths.analyze timer in
    let paths = Paths.enumerate ~k:16 view in
    let nc = Paths.net_criticality view paths in
    Alcotest.(check int) "net array size" (Netlist.num_nets design)
      (Array.length nc);
    Array.iter
      (fun v ->
        if v < 0.0 || Float.is_nan v then Alcotest.fail "bad net criticality")
      nc;
    (* with violating paths present, some net must accumulate weight *)
    let violating =
      List.exists (fun (p : Paths.path) -> p.Paths.pt_slack < 0.0) paths
    in
    if violating then
      Alcotest.(check bool) "some net critical" true
        (Array.exists (fun v -> v > 0.0) nc))

(* The cell-arc delays a view reads come from the timer's forward tape,
   so the tape must stay in step with incremental re-propagation: after
   random move batches, a view of the incrementally updated timer
   equals a view of a fresh full analysis of the same placement bit for
   bit (every taped arc delay and net delay a view reads, every
   back-pointer, the top-K paths), and so do the per-pin slacks. *)
let test_tape_fresh_after_incremental () =
  let spec =
    { (List.nth specs_under_test 1) with Workload.sp_seed = 11 }
  in
  let design, cons = Workload.generate lib spec in
  let graph = Sta.Graph.build design lib cons in
  let ti = Sta.Incremental.create graph in
  let reference = Sta.Timer.create graph in
  ignore (Sta.Timer.run reference);
  let rng = Workload.Rng.create 4242 in
  let ncells = Netlist.num_cells design in
  for round = 1 to 5 do
    let moved = ref 0 in
    while !moved < 6 do
      let c = design.Netlist.cells.(Workload.Rng.int rng ncells) in
      if not c.Netlist.fixed then begin
        incr moved;
        let x, y = Test_sta.random_legal_position rng design c in
        Sta.Incremental.move_cell ti c.Netlist.cell_id ~x ~y
      end
    done;
    ignore (Sta.Incremental.update ti);
    ignore (Sta.Timer.run ~rebuild_trees:false reference);
    let label = Printf.sprintf "round %d" round in
    let reached tm p tr = Sta.Timer.at_late tm p tr > neg_infinity in
    (* every in-edge a view reads: each admitted (arc, transition) pair
       with a reachable source, and each net arc's Elmore delay *)
    for a = 0 to Sta.Graph.num_arcs graph - 1 do
      let u = graph.Sta.Graph.arc_from.(a) in
      List.iter
        (fun tr_out ->
          List.iter
            (fun tr_in ->
              if Sta.Graph.arc_admits graph a ~tr_out ~tr_in then begin
                if reached ti u tr_in <> reached reference u tr_in then
                  Alcotest.failf "%s: reachability of arc %d differs" label a;
                if reached reference u tr_in
                   && bits (Sta.Timer.arc_delay ti a ~tr_out ~tr_in)
                      <> bits (Sta.Timer.arc_delay reference a ~tr_out ~tr_in)
                then Alcotest.failf "%s: taped delay of arc %d differs" label a
              end)
            [ Sta.Rise; Sta.Fall ])
        [ Sta.Rise; Sta.Fall ]
    done;
    let ni = Sta.Timer.nets ti and nf = Sta.Timer.nets reference in
    for net = 0 to Netlist.num_nets design - 1 do
      match ni.Sta.Nets.trees.(net), nf.Sta.Nets.trees.(net) with
      | Some (_, rci), Some (_, rcf) ->
        let u = graph.Sta.Graph.net_driver_of.(net) in
        for k = graph.Sta.Graph.net_sink_off.(net)
            to graph.Sta.Graph.net_sink_off.(net + 1) - 1 do
          let v = graph.Sta.Graph.net_sink.(k) in
          let node = nf.Sta.Nets.tree_index.(v) in
          if u >= 0 && u <> v
             && bits (Rc.sink_delay rci node) <> bits (Rc.sink_delay rcf node)
          then Alcotest.failf "%s: delay of net %d into pin %d differs"
                 label net v
        done
      | None, None -> ()
      | _ -> Alcotest.failf "%s: tree presence of net %d differs" label net
    done;
    let vi = Paths.analyze ti in
    let vf = Paths.analyze reference in
    for n = 0 to (2 * Netlist.num_pins design) - 1 do
      if Paths.pred vi n <> Paths.pred vf n then
        Alcotest.failf "%s: back-pointer of node %d differs" label n
    done;
    let pi = Paths.enumerate ~k:32 vi and pf = Paths.enumerate ~k:32 vf in
    Alcotest.(check int) (label ^ ": path count") (List.length pf)
      (List.length pi);
    List.iter2
      (fun (a : Paths.path) (b : Paths.path) ->
        if a.Paths.pt_endpoint <> b.Paths.pt_endpoint
           || a.Paths.pt_rank <> b.Paths.pt_rank
           || bits a.Paths.pt_slack <> bits b.Paths.pt_slack
           || a.Paths.pt_nets <> b.Paths.pt_nets
           || a.Paths.pt_arcs <> b.Paths.pt_arcs
        then Alcotest.failf "%s: top-K paths differ" label;
        check_steps_equal label b.Paths.pt_steps a.Paths.pt_steps)
      pi pf;
    for p = 0 to Netlist.num_pins design - 1 do
      if bits (Sta.Timer.pin_slack_late ti p)
         <> bits (Sta.Timer.pin_slack_late reference p)
      then Alcotest.failf "%s: pin_slack_late differs at pin %d" label p
    done
  done

(* [enumerate] reads endpoint RATs from pool tasks, so [analyze] runs
   the timer's lazy backward sweep before any task starts: straight
   after a run and after an update, with no RAT read in between, pooled
   enumeration (the lazy engine and the eager reference) equals a
   sequential timer's bit for bit. *)
let test_pooled_enumerate_after_lazy_sweep () =
  Test_parallel.with_pool (fun pool ->
    let spec = { (List.hd specs_under_test) with Workload.sp_seed = 3 } in
    let design, cons = Workload.generate lib spec in
    let graph = Sta.Graph.build design lib cons in
    let pooled = Sta.Timer.create graph and seq = Sta.Timer.create graph in
    ignore (Sta.Timer.run ~pool pooled);
    ignore (Sta.Timer.run seq);
    let compare label =
      let vp = Paths.analyze ~pool pooled and vs = Paths.analyze seq in
      check_paths_equal (label ^ ", reference")
        (Paths_oracle.enumerate ~pool ~k:32 pooled vp)
        (Paths_oracle.enumerate ~k:32 seq vs);
      check_paths_equal label (Paths.enumerate ~pool ~k:32 vp)
        (Paths.enumerate ~k:32 vs)
    in
    compare "after run";
    let rng = Workload.Rng.create 77 in
    let ncells = Netlist.num_cells design in
    for round = 1 to 3 do
      let moved = ref 0 in
      while !moved < 6 do
        let c = design.Netlist.cells.(Workload.Rng.int rng ncells) in
        if not c.Netlist.fixed then begin
          incr moved;
          let x, y = Test_sta.random_legal_position rng design c in
          Sta.Incremental.move_cell pooled c.Netlist.cell_id ~x ~y;
          Sta.Incremental.move_cell seq c.Netlist.cell_id ~x ~y
        end
      done;
      ignore (Sta.Incremental.update pooled);
      ignore (Sta.Incremental.update seq);
      compare (Printf.sprintf "after update %d" round)
    done)

let suite =
  [ Alcotest.test_case "top-1 bit-matches critical_path (3 specs x 2 seeds)"
      `Slow test_top1_bit_matches_critical_path;
    Alcotest.test_case "global top-1 matches default retrace" `Slow
      test_global_top1_matches_default;
    Alcotest.test_case "ranked slacks monotone, paths distinct" `Slow
      test_ranked_slacks_monotone;
    Alcotest.test_case "matches brute-force enumeration" `Quick
      test_matches_brute_force;
    Alcotest.test_case "bitwise identical to eager reference" `Slow
      test_matches_reference;
    Alcotest.test_case "k = max_int equals k = 100000" `Quick test_huge_k;
    Alcotest.test_case "slack limit prunes exactly" `Quick
      test_slack_limit_exact;
    Alcotest.test_case "slack limit == unrestricted filtered (property)"
      `Quick test_slack_limit_property;
    Alcotest.test_case "paths pairwise distinct (property)" `Slow
      test_paths_pairwise_distinct;
    Alcotest.test_case "pooled enumeration bit-identical" `Slow
      test_pool_determinism;
    Alcotest.test_case "criticality arrays well-formed" `Quick
      test_criticality_counts;
    Alcotest.test_case "arc-delay tape fresh after incremental updates"
      `Quick test_tape_fresh_after_incremental;
    Alcotest.test_case "pooled enumerate after lazy RAT sweep" `Quick
      test_pooled_enumerate_after_lazy_sweep ]
