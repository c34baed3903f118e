(* Tests for the timing graph and the exact STA engine. *)

let lib = Liberty.Synthetic.default ()

let lib_cell name =
  match Liberty.cell_index lib name with
  | Some i -> i
  | None -> Alcotest.failf "missing lib cell %s" name

(* Hand-built chain: PI pad -> INV_X1 -> DFF_X1 (D), with the DFF's Q
   looping out to a PO pad.  Small enough to cross-check by direct
   component evaluation. *)
let build_chain () =
  let region = Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:100.0 ~hy:100.0 in
  let b = Netlist.Builder.create ~region ~row_height:1.4 "chain" in
  let add_instance name kind x y =
    let lc = lib.Liberty.lib_cells.(kind) in
    let cell =
      Netlist.Builder.add_cell b ~name ~lib_cell:kind ~width:lc.Liberty.lc_width
        ~height:lc.Liberty.lc_height ~x ~y ()
    in
    Array.mapi
      (fun j (lp : Liberty.lib_pin) ->
        Netlist.Builder.add_pin b ~cell
          ~name:(Printf.sprintf "%s/%s" name lp.Liberty.lp_name)
          ~direction:
            (match lp.Liberty.lp_direction with
             | Liberty.Lib_input -> Netlist.Input
             | Liberty.Lib_output -> Netlist.Output)
          ~lib_pin:j ())
      lc.Liberty.lc_pins
  in
  let pad name x y direction =
    let cell =
      Netlist.Builder.add_cell b ~name ~lib_cell:(-1) ~width:2.0 ~height:2.0
        ~x ~y ~fixed:true ()
    in
    Netlist.Builder.add_pin b ~cell ~name:(name ^ "/P") ~direction ()
  in
  let pi = pad "pi0" 0.0 50.0 Netlist.Output in
  let po = pad "po0" 100.0 50.0 Netlist.Input in
  let inv = add_instance "inv" (lib_cell "INV_X1") 30.0 50.0 in
  let dff = add_instance "dff" (lib_cell "DFF_X1") 60.0 50.0 in
  (* INV pins: A=0 Y=1. DFF pins: D=0 CK=1 Q=2 *)
  let _ = Netlist.Builder.add_net b ~name:"n_in" ~pins:[ pi; inv.(0) ] in
  let _ = Netlist.Builder.add_net b ~name:"n_mid" ~pins:[ inv.(1); dff.(0) ] in
  let _ = Netlist.Builder.add_net b ~name:"n_out" ~pins:[ dff.(2); po ] in
  Netlist.Builder.freeze b

let constraints = { Sta.Constraints.default with Sta.Constraints.clock_period = 600.0 }

let test_graph_structure () =
  let d = build_chain () in
  let g = Sta.Graph.build d lib constraints in
  Alcotest.(check int) "endpoints" 2 (Array.length g.Sta.Graph.endpoints);
  Alcotest.(check int) "primary inputs" 1 (List.length g.Sta.Graph.primary_inputs);
  Alcotest.(check int) "primary outputs" 1 (List.length g.Sta.Graph.primary_outputs);
  (* arc levels strictly increase; CSR fan-in/fan-out views agree with
     the flat arc arrays *)
  let narcs = Sta.Graph.num_arcs g in
  for a = 0 to narcs - 1 do
    if g.Sta.Graph.pin_level.(g.Sta.Graph.arc_from.(a))
       >= g.Sta.Graph.pin_level.(g.Sta.Graph.arc_to.(a))
    then Alcotest.fail "level not increasing along cell arc"
  done;
  Alcotest.(check int) "fanin CSR covers all arcs" narcs
    g.Sta.Graph.fanin_off.(Netlist.num_pins d);
  Alcotest.(check int) "fanout CSR covers all arcs" narcs
    g.Sta.Graph.fanout_off.(Netlist.num_pins d);
  for v = 0 to Netlist.num_pins d - 1 do
    for k = g.Sta.Graph.fanin_off.(v) to g.Sta.Graph.fanin_off.(v + 1) - 1 do
      if g.Sta.Graph.arc_to.(g.Sta.Graph.fanin_arc.(k)) <> v then
        Alcotest.fail "fanin CSR arc does not end at its pin"
    done;
    for k = g.Sta.Graph.fanout_off.(v) to g.Sta.Graph.fanout_off.(v + 1) - 1
    do
      if g.Sta.Graph.arc_from.(g.Sta.Graph.fanout_arc.(k)) <> v then
        Alcotest.fail "fanout CSR arc does not start at its pin"
    done
  done;
  (* net sinks are above their drivers *)
  Array.iter
    (fun (net : Netlist.net) ->
      match Netlist.net_driver d net.Netlist.net_id with
      | None -> ()
      | Some drv ->
        List.iter
          (fun s ->
            if g.Sta.Graph.pin_level.(s) <= g.Sta.Graph.pin_level.(drv) then
              Alcotest.fail "net sink below driver")
          (Netlist.net_sinks d net.Netlist.net_id))
    d.Netlist.nets;
  (* the DFF data pin checks in *)
  match Netlist.pin_by_name d "dff/D" with
  | None -> Alcotest.fail "missing dff/D"
  | Some p ->
    Alcotest.(check bool) "check arc" true
      (g.Sta.Graph.check_of_pin.(p.Netlist.pin_id) <> None);
    Alcotest.(check bool) "endpoint" true
      g.Sta.Graph.is_endpoint.(p.Netlist.pin_id)

let test_clock_pin_is_start () =
  let d = build_chain () in
  let g = Sta.Graph.build d lib constraints in
  match Netlist.pin_by_name d "dff/CK" with
  | None -> Alcotest.fail "missing dff/CK"
  | Some p ->
    Alcotest.(check bool) "clock pin" true
      g.Sta.Graph.is_clock_pin.(p.Netlist.pin_id);
    Alcotest.(check bool) "start" true g.Sta.Graph.is_start.(p.Netlist.pin_id)

(* AT along the chain equals hand-composed net + cell delays. *)
let test_chain_arrival_time () =
  let d = build_chain () in
  let g = Sta.Graph.build d lib constraints in
  let timer = Sta.Timer.create g in
  let _ = Sta.Timer.run timer in
  let pin name =
    match Netlist.pin_by_name d name with
    | Some p -> p.Netlist.pin_id
    | None -> Alcotest.failf "missing %s" name
  in
  (* input pad arrival *)
  Alcotest.(check (float 1e-9)) "pi at" constraints.Sta.Constraints.input_delay
    (Sta.Timer.at_late timer (pin "pi0/P") Sta.Rise);
  (* compose the first net arc by hand via the shared Nets state *)
  let nets = Sta.Timer.nets timer in
  let n_in = d.Netlist.pins.(pin "inv/A").Netlist.net in
  (match nets.Sta.Nets.trees.(n_in) with
   | None -> Alcotest.fail "no tree for n_in"
   | Some (_, rc) ->
     let node = nets.Sta.Nets.tree_index.(pin "inv/A") in
     let expect =
       constraints.Sta.Constraints.input_delay +. Rc.sink_delay rc node
     in
     Alcotest.(check (float 1e-9)) "inv/A at" expect
       (Sta.Timer.at_late timer (pin "inv/A") Sta.Rise));
  (* the inverter flips transitions: rise at Y comes from fall at A *)
  let inv_cell =
    match Liberty.find_cell lib "INV_X1" with
    | Some c -> c
    | None -> Alcotest.fail "INV_X1"
  in
  let arc = inv_cell.Liberty.lc_arcs.(0) in
  let n_mid = d.Netlist.pins.(pin "inv/Y").Netlist.net in
  (match nets.Sta.Nets.trees.(n_mid) with
   | None -> Alcotest.fail "no tree for n_mid"
   | Some (_, rc) ->
     let load = Rc.root_load rc in
     let slew_a = Sta.Timer.slew_late timer (pin "inv/A") Sta.Fall in
     let at_a = Sta.Timer.at_late timer (pin "inv/A") Sta.Fall in
     let d_rise = Liberty.Lut.lookup arc.Liberty.cell_rise slew_a load in
     Alcotest.(check (float 1e-9)) "inv/Y rise at" (at_a +. d_rise)
       (Sta.Timer.at_late timer (pin "inv/Y") Sta.Rise))

let test_slack_and_rat_relation () =
  let d = build_chain () in
  let g = Sta.Graph.build d lib constraints in
  let timer = Sta.Timer.create g in
  let report = Sta.Timer.run timer in
  (* WNS is the min endpoint slack, TNS the sum of negative ones *)
  let min_slack =
    List.fold_left
      (fun acc (e : Sta.Timer.endpoint_slack) ->
        Float.min acc e.Sta.Timer.ep_setup_slack)
      infinity report.Sta.Timer.endpoint_slacks
  in
  Alcotest.(check (float 1e-9)) "wns"
    (Float.min 0.0 min_slack)
    (Float.min 0.0 report.Sta.Timer.setup_wns);
  let tns =
    List.fold_left
      (fun acc (e : Sta.Timer.endpoint_slack) ->
        acc +. Float.min 0.0 e.Sta.Timer.ep_setup_slack)
      0.0 report.Sta.Timer.endpoint_slacks
  in
  Alcotest.(check (float 1e-9)) "tns" tns report.Sta.Timer.setup_tns;
  (* endpoints sorted by setup slack *)
  let rec sorted = function
    | (a : Sta.Timer.endpoint_slack) :: (b :: _ as rest) ->
      a.Sta.Timer.ep_setup_slack <= b.Sta.Timer.ep_setup_slack && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted" true (sorted report.Sta.Timer.endpoint_slacks)

let test_period_shift () =
  (* increasing the clock period by delta shifts every setup slack by
     exactly delta *)
  let d = build_chain () in
  let g1 = Sta.Graph.build d lib constraints in
  let r1 = Sta.Timer.run (Sta.Timer.create g1) in
  let c2 =
    { constraints with
      Sta.Constraints.clock_period =
        constraints.Sta.Constraints.clock_period +. 100.0 }
  in
  let g2 = Sta.Graph.build d lib c2 in
  let r2 = Sta.Timer.run (Sta.Timer.create g2) in
  Alcotest.(check (float 1e-6)) "wns shift"
    (r1.Sta.Timer.setup_wns +. 100.0)
    r2.Sta.Timer.setup_wns

let test_moving_cell_changes_timing () =
  let d = build_chain () in
  let g = Sta.Graph.build d lib constraints in
  let timer = Sta.Timer.create g in
  let r1 = Sta.Timer.run timer in
  (* drag the inverter far away: the path gets slower *)
  (match Netlist.cell_by_name d "inv" with
   | Some c -> c.Netlist.x <- 5.0; c.Netlist.y <- 5.0
   | None -> Alcotest.fail "inv missing");
  let r2 = Sta.Timer.run timer in
  Alcotest.(check bool) "worse wns" true
    (r2.Sta.Timer.setup_wns < r1.Sta.Timer.setup_wns)

let test_pin_slack_consistency () =
  let design, cons = Workload.generate lib
      { Workload.default_spec with Workload.sp_cells = 400; sp_clock_period = 800.0 } in
  let g = Sta.Graph.build design lib cons in
  let timer = Sta.Timer.create g in
  let report = Sta.Timer.run timer in
  (* per-pin slack from RAT propagation is never better than WNS *)
  let min_pin_slack = ref infinity in
  for p = 0 to Netlist.num_pins design - 1 do
    let s = Sta.Timer.pin_slack_late timer p in
    if s < !min_pin_slack then min_pin_slack := s
  done;
  Alcotest.(check (float 1e-6)) "min pin slack = wns"
    report.Sta.Timer.setup_wns !min_pin_slack;
  (* net slack is the min over the net's pins *)
  let net = design.Netlist.nets.(0) in
  let expect =
    Array.fold_left
      (fun acc p -> Float.min acc (Sta.Timer.pin_slack_late timer p))
      infinity net.Netlist.net_pins
  in
  Alcotest.(check (float 1e-9)) "net slack" expect
    (Sta.Timer.net_slack timer net.Netlist.net_id)

let test_hold_nonnegative_on_chain () =
  (* with an ideal clock and zero input delay, the chain has positive
     hold slack (combinational delay exceeds the hold requirement) *)
  let d = build_chain () in
  let g = Sta.Graph.build d lib constraints in
  let r = Sta.Timer.run (Sta.Timer.create g) in
  Alcotest.(check bool) "hold met" true (r.Sta.Timer.hold_wns >= 0.0)

let test_cycle_detection () =
  let region = Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:10.0 ~hy:10.0 in
  let b = Netlist.Builder.create ~region "loop" in
  let kind = lib_cell "INV_X1" in
  let mk name =
    let cell = Netlist.Builder.add_cell b ~name ~lib_cell:kind ~width:1.0
        ~height:1.0 () in
    let a = Netlist.Builder.add_pin b ~cell ~name:(name ^ "/A")
        ~direction:Netlist.Input ~lib_pin:0 () in
    let y = Netlist.Builder.add_pin b ~cell ~name:(name ^ "/Y")
        ~direction:Netlist.Output ~lib_pin:1 () in
    (a, y)
  in
  let a1, y1 = mk "i1" in
  let a2, y2 = mk "i2" in
  let _ = Netlist.Builder.add_net b ~name:"n1" ~pins:[ y1; a2 ] in
  let _ = Netlist.Builder.add_net b ~name:"n2" ~pins:[ y2; a1 ] in
  let d = Netlist.Builder.freeze b in
  match Sta.Graph.build d lib constraints with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "mentions cycle" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected cycle detection"

let test_slew_propagation_positive () =
  let design, cons = Workload.generate lib
      { Workload.default_spec with Workload.sp_cells = 300 } in
  let g = Sta.Graph.build design lib cons in
  let timer = Sta.Timer.create g in
  let _ = Sta.Timer.run timer in
  for p = 0 to Netlist.num_pins design - 1 do
    if Sta.Timer.at_late timer p Sta.Rise > neg_infinity then begin
      if Sta.Timer.slew_late timer p Sta.Rise <= 0.0 then
        Alcotest.fail "non-positive slew on a reached pin"
    end
  done

let suite =
  [ Alcotest.test_case "graph structure" `Quick test_graph_structure;
    Alcotest.test_case "clock pin is startpoint" `Quick test_clock_pin_is_start;
    Alcotest.test_case "chain arrival time composition" `Quick
      test_chain_arrival_time;
    Alcotest.test_case "slack and rat relation" `Quick test_slack_and_rat_relation;
    Alcotest.test_case "clock period shift" `Quick test_period_shift;
    Alcotest.test_case "moving a cell changes timing" `Quick
      test_moving_cell_changes_timing;
    Alcotest.test_case "pin slack consistency" `Quick test_pin_slack_consistency;
    Alcotest.test_case "hold met on chain" `Quick test_hold_nonnegative_on_chain;
    Alcotest.test_case "combinational cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "slews positive where reached" `Quick
      test_slew_propagation_positive ]

(* The critical path as the library computes it: the path engine's
   global top-1, or its rank-0 path into [endpoint]. *)
let critical_path ?endpoint timer =
  let view = Paths.analyze timer in
  let top =
    match endpoint with
    | Some ep -> Paths.enumerate_endpoint ~k:1 view ep
    | None -> Paths.enumerate ~k:1 view
  in
  match top with [] -> [] | p :: _ -> p.Paths.pt_steps

let test_critical_path () =
  let design, cons = Workload.generate lib
      { Workload.default_spec with Workload.sp_cells = 400; sp_clock_period = 700.0 } in
  let g = Sta.Graph.build design lib cons in
  let timer = Sta.Timer.create g in
  let report = Sta.Timer.run timer in
  let path = critical_path timer in
  (match path with
   | [] -> Alcotest.fail "empty critical path"
   | first :: _ ->
     (* starts at a startpoint *)
     Alcotest.(check bool) "starts at startpoint" true
       g.Sta.Graph.is_start.(first.Sta.Timer.ps_pin);
     let last = List.nth path (List.length path - 1) in
     (* ends at the worst endpoint *)
     Alcotest.(check bool) "ends at endpoint" true
       g.Sta.Graph.is_endpoint.(last.Sta.Timer.ps_pin);
     Alcotest.(check (float 1e-6)) "endpoint slack = wns"
       report.Sta.Timer.setup_wns
       (Sta.Timer.pin_slack_late timer last.Sta.Timer.ps_pin);
     (* arrival times increase monotonically along the path *)
     let rec monotone = function
       | (a : Sta.Timer.path_step) :: (b :: _ as rest) ->
         a.Sta.Timer.ps_at <= b.Sta.Timer.ps_at +. 1e-9 && monotone rest
       | [ _ ] | [] -> true
     in
     Alcotest.(check bool) "at monotone" true (monotone path);
     (* levels strictly increase *)
     let rec levels_up = function
       | (a : Sta.Timer.path_step) :: (b :: _ as rest) ->
         g.Sta.Graph.pin_level.(a.Sta.Timer.ps_pin)
         < g.Sta.Graph.pin_level.(b.Sta.Timer.ps_pin)
         && levels_up rest
       | [ _ ] | [] -> true
     in
     Alcotest.(check bool) "levels increase" true (levels_up path))

let test_critical_path_specific_endpoint () =
  let d = build_chain () in
  let g = Sta.Graph.build d lib constraints in
  let timer = Sta.Timer.create g in
  let _ = Sta.Timer.run timer in
  match Netlist.pin_by_name d "dff/D" with
  | None -> Alcotest.fail "missing dff/D"
  | Some p ->
    let path = critical_path ~endpoint:p.Netlist.pin_id timer in
    let names =
      List.map
        (fun (s : Sta.Timer.path_step) ->
          d.Netlist.pins.(s.Sta.Timer.ps_pin).Netlist.pin_name)
        path
    in
    Alcotest.(check (list string)) "chain path"
      [ "pi0/P"; "inv/A"; "inv/Y"; "dff/D" ] names

let suite =
  suite
  @ [ Alcotest.test_case "critical path" `Quick test_critical_path;
      Alcotest.test_case "critical path to endpoint" `Quick
        test_critical_path_specific_endpoint ]

(* A random legal position for [c]: inside the core region with the
   cell's bounding box fully contained (what [Incremental.move_cell]
   validates). *)
let random_legal_position rng design (c : Netlist.cell) =
  let r = design.Netlist.region in
  let hw = c.Netlist.width /. 2.0 and hh = c.Netlist.height /. 2.0 in
  let lo_x = r.Geometry.Rect.lx +. hw and hi_x = r.Geometry.Rect.hx -. hw in
  let lo_y = r.Geometry.Rect.ly +. hh and hi_y = r.Geometry.Rect.hy -. hh in
  ( lo_x +. Workload.Rng.float rng (hi_x -. lo_x),
    lo_y +. Workload.Rng.float rng (hi_y -. lo_y) )

let updated_pins inc = (Sta.Incremental.last_stats inc).Sta.Incremental.us_pins

let test_incremental_matches_full () =
  let design, cons = Workload.generate lib
      { Workload.default_spec with Workload.sp_cells = 500; sp_clock_period = 750.0 } in
  let g = Sta.Graph.build design lib cons in
  let inc = Sta.Incremental.create g in
  (* a reference timer sharing nothing with the incremental one *)
  let reference = Sta.Timer.create g in
  let rng = Workload.Rng.create 314 in
  let ncells = Netlist.num_cells design in
  for round = 1 to 8 do
    (* move a few random movable cells *)
    let moved = ref 0 in
    while !moved < 3 do
      let c = design.Netlist.cells.(Workload.Rng.int rng ncells) in
      if not c.Netlist.fixed then begin
        incr moved;
        let x, y = random_legal_position rng design c in
        Sta.Incremental.move_cell inc c.Netlist.cell_id ~x ~y
      end
    done;
    let ir = Sta.Incremental.update inc in
    (* full reference analysis on the same positions; refresh (not
       rebuild) so both engines see identical Steiner topologies *)
    let fr = Sta.Timer.run ~rebuild_trees:false reference in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "wns round %d" round)
      fr.Sta.Timer.setup_wns ir.Sta.Timer.setup_wns;
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "tns round %d" round)
      fr.Sta.Timer.setup_tns ir.Sta.Timer.setup_tns;
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "hold tns round %d" round)
      fr.Sta.Timer.hold_tns ir.Sta.Timer.hold_tns;
    (* per-pin arrival times agree *)
    for p = 0 to Netlist.num_pins design - 1 do
      let a = Sta.Timer.at_late inc p Sta.Rise in
      let b = Sta.Timer.at_late reference p Sta.Rise in
      if Float.is_finite a || Float.is_finite b then
        if Float.abs (a -. b) > 1e-6 then
          Alcotest.failf "at mismatch at pin %d round %d: %f vs %f" p round a b
    done;
    (* sparsity: far fewer pins re-evaluated than exist *)
    Alcotest.(check bool) "sparse update" true
      (updated_pins inc < Netlist.num_pins design)
  done

let test_incremental_no_move_is_noop () =
  let design, cons = Workload.generate lib
      { Workload.default_spec with Workload.sp_cells = 200 } in
  let g = Sta.Graph.build design lib cons in
  let inc = Sta.Incremental.create g in
  let r1 = Sta.Incremental.update inc in
  Alcotest.(check int) "nothing recomputed" 0
    (updated_pins inc);
  let r2 = Sta.Incremental.update inc in
  Alcotest.(check (float 1e-12)) "stable wns" r1.Sta.Timer.setup_wns
    r2.Sta.Timer.setup_wns

let test_incremental_move_then_back () =
  let design, cons = Workload.generate lib
      { Workload.default_spec with Workload.sp_cells = 200 } in
  let g = Sta.Graph.build design lib cons in
  let inc = Sta.Incremental.create g in
  let r0 = Sta.Incremental.update inc in
  let c = design.Netlist.cells.(List.hd (Netlist.movable_cells design)) in
  let x0 = c.Netlist.x and y0 = c.Netlist.y in
  let r = design.Netlist.region in
  let hw = c.Netlist.width /. 2.0 and hh = c.Netlist.height /. 2.0 in
  let x1 =
    Geometry.clamp ~lo:(r.Geometry.Rect.lx +. hw)
      ~hi:(r.Geometry.Rect.hx -. hw) (x0 +. 20.0)
  and y1 =
    Geometry.clamp ~lo:(r.Geometry.Rect.ly +. hh)
      ~hi:(r.Geometry.Rect.hy -. hh) (y0 +. 10.0)
  in
  Sta.Incremental.move_cell inc c.Netlist.cell_id ~x:x1 ~y:y1;
  let r1 = Sta.Incremental.update inc in
  Alcotest.(check bool) "timing changed" true
    (r1.Sta.Timer.setup_tns <> r0.Sta.Timer.setup_tns);
  Sta.Incremental.move_cell inc c.Netlist.cell_id ~x:x0 ~y:y0;
  let r2 = Sta.Incremental.update inc in
  Alcotest.(check (float 1e-6)) "restored tns" r0.Sta.Timer.setup_tns
    r2.Sta.Timer.setup_tns

(* Regression for the NaN convergence bug: with an unconstrained input
   slew, PI-fed pins carry NaN slews.  The old [<>]-based change
   detection saw [nan <> nan = true] and re-dirtied the whole fanout
   cone of such pins on every pass; the NaN-aware comparison must report
   "no change" when a touched cone recomputes to the same values. *)
let test_incremental_nan_convergence () =
  let design, cons = Workload.generate lib
      { Workload.default_spec with Workload.sp_cells = 200 } in
  let cons = { cons with Sta.Constraints.input_slew = Float.nan } in
  let g = Sta.Graph.build design lib cons in
  let tm = Sta.Incremental.create g in
  (* find a movable cell fed directly by a primary input, whose input
     pin therefore carries a NaN slew *)
  let victim = ref None in
  Array.iteri
    (fun p nan_feed ->
      if !victim = None && nan_feed then begin
        let pin = design.Netlist.pins.(p) in
        let c = design.Netlist.cells.(pin.Netlist.cell) in
        if (not c.Netlist.fixed) && Float.is_nan (Sta.Timer.slew_late tm p Sta.Rise)
        then victim := Some pin.Netlist.cell
      end)
    (let feeds = Array.make (Netlist.num_pins design) false in
     List.iter
       (fun pi ->
         let net = design.Netlist.pins.(pi).Netlist.net in
         if net >= 0 then
           Array.iter
             (fun p -> feeds.(p) <- true)
             design.Netlist.nets.(net).Netlist.net_pins)
       g.Sta.Graph.primary_inputs;
     feeds);
  match !victim with
  | None -> Alcotest.fail "no movable PI-fed cell with a NaN slew"
  | Some c ->
    (* a move to the cell's own position: every re-evaluated pin
       recomputes to the same (NaN-carrying) values, so nothing may
       report a change and dirtiness must not spread beyond the touched
       nets' pins *)
    let cell = design.Netlist.cells.(c) in
    Sta.Incremental.move_cell tm c ~x:cell.Netlist.x ~y:cell.Netlist.y;
    let _ = Sta.Incremental.update tm in
    let st = Sta.Incremental.last_stats tm in
    Alcotest.(check int) "no pin changed on an unmoved touch" 0
      st.Sta.Incremental.us_changed;
    (* the cone did contain NaN-valued pins (otherwise this tests nothing) *)
    let pins_of_touched_nets =
      let acc = ref 0 and seen = Array.make (Netlist.num_nets design) false in
      Array.iter
        (fun p ->
          let net = design.Netlist.pins.(p).Netlist.net in
          if net >= 0 && not seen.(net) then begin
            seen.(net) <- true;
            acc := !acc + Array.length design.Netlist.nets.(net).Netlist.net_pins
          end)
        design.Netlist.cells.(c).Netlist.cell_pins;
      !acc
    in
    Alcotest.(check int) "dirtiness confined to the touched nets"
      pins_of_touched_nets st.Sta.Incremental.us_pins

let test_incremental_move_validation () =
  let design, cons = Workload.generate lib
      { Workload.default_spec with Workload.sp_cells = 200 } in
  let g = Sta.Graph.build design lib cons in
  let inc = Sta.Incremental.create g in
  let r0 = Sta.Incremental.update inc in
  let raises f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  (* fixed (pad) cells are rejected *)
  let fixed_cell =
    let found = ref (-1) in
    Array.iter
      (fun (c : Netlist.cell) ->
        if !found < 0 && c.Netlist.fixed then found := c.Netlist.cell_id)
      design.Netlist.cells;
    !found
  in
  Alcotest.(check bool) "fixed cell rejected" true
    (raises (fun () ->
       Sta.Incremental.move_cell inc fixed_cell ~x:10.0 ~y:10.0));
  let movable = List.hd (Netlist.movable_cells design) in
  let r = design.Netlist.region in
  (* out-of-core coordinates are rejected *)
  Alcotest.(check bool) "out-of-core rejected" true
    (raises (fun () ->
       Sta.Incremental.move_cell inc movable
         ~x:(r.Geometry.Rect.hx +. 5.0) ~y:10.0));
  (* a position whose bounding box straddles the boundary is rejected *)
  Alcotest.(check bool) "straddling bbox rejected" true
    (raises (fun () ->
       Sta.Incremental.move_cell inc movable ~x:r.Geometry.Rect.lx
         ~y:(0.5 *. (r.Geometry.Rect.ly +. r.Geometry.Rect.hy))));
  (* non-finite coordinates are rejected *)
  Alcotest.(check bool) "nan rejected" true
    (raises (fun () ->
       Sta.Incremental.move_cell inc movable ~x:Float.nan ~y:10.0));
  Alcotest.(check bool) "out-of-range id rejected" true
    (raises (fun () ->
       Sta.Incremental.move_cell inc (Netlist.num_cells design) ~x:10.0
         ~y:10.0));
  (* rejected moves leave no pending state behind *)
  let r1 = Sta.Incremental.update inc in
  Alcotest.(check int) "no residual dirtiness" 0
    (updated_pins inc);
  Alcotest.(check (float 0.0)) "report untouched" r0.Sta.Timer.setup_wns
    r1.Sta.Timer.setup_wns

(* WNS/TNS, hold and every endpoint slack of two reports are bitwise
   equal. *)
let check_report_bitwise label (a : Sta.Timer.report) (b : Sta.Timer.report) =
  let bits = Int64.bits_of_float in
  if bits a.Sta.Timer.setup_wns <> bits b.Sta.Timer.setup_wns
     || bits a.Sta.Timer.setup_tns <> bits b.Sta.Timer.setup_tns
  then Alcotest.failf "%s: wns/tns not bit-identical" label;
  if bits a.Sta.Timer.hold_wns <> bits b.Sta.Timer.hold_wns
     || bits a.Sta.Timer.hold_tns <> bits b.Sta.Timer.hold_tns
  then Alcotest.failf "%s: hold not bit-identical" label;
  Alcotest.(check int) (label ^ ": endpoint count")
    (List.length b.Sta.Timer.endpoint_slacks)
    (List.length a.Sta.Timer.endpoint_slacks);
  List.iter2
    (fun (x : Sta.Timer.endpoint_slack) (y : Sta.Timer.endpoint_slack) ->
      if x.Sta.Timer.ep_pin <> y.Sta.Timer.ep_pin
         || bits x.Sta.Timer.ep_setup_slack <> bits y.Sta.Timer.ep_setup_slack
         || bits x.Sta.Timer.ep_hold_slack <> bits y.Sta.Timer.ep_hold_slack
      then
        Alcotest.failf "%s: endpoint slack mismatch at pin %d" label
          x.Sta.Timer.ep_pin)
    a.Sta.Timer.endpoint_slacks b.Sta.Timer.endpoint_slacks

(* Randomized equivalence: random legal move batches, incremental update
   vs a fresh full analysis on an independent timer — WNS/TNS and every
   endpoint slack must be bit-identical, at 1 and 4 domains (the pool
   parallelises the reference run; the incremental pass is
   sequential). *)
let test_incremental_randomized_equivalence () =
  List.iter
    (fun domains ->
      let pool = Parallel.create ~domains ~oversubscribe:true () in
      Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
      let design, cons = Workload.generate lib
          { Workload.default_spec with
            Workload.sp_cells = 800; sp_seed = 99 + domains } in
      let g = Sta.Graph.build design lib cons in
      let inc = Sta.Incremental.create g in
      (* one initial default run so the reference's Steiner topologies
         come from the same rebuild path as the incremental engine's;
         rounds then freeze topologies on both sides *)
      let reference = Sta.Timer.create g in
      let _ = Sta.Timer.run reference in
      let npins = Netlist.num_pins design in
      let ncells = Netlist.num_cells design in
      let batch = max 1 (ncells / 100) in
      let rng = Workload.Rng.create (1000 + domains) in
      for round = 1 to 6 do
        let moved = ref 0 in
        while !moved < batch do
          let c = design.Netlist.cells.(Workload.Rng.int rng ncells) in
          if not c.Netlist.fixed then begin
            incr moved;
            let x, y = random_legal_position rng design c in
            Sta.Incremental.move_cell inc c.Netlist.cell_id ~x ~y
          end
        done;
        let ir = Sta.Incremental.update inc in
        let fr = Sta.Timer.run ~rebuild_trees:false ~pool reference in
        check_report_bitwise
          (Printf.sprintf "round %d, %d domains" round domains) ir fr;
        (* a local batch must not re-evaluate the whole design *)
        Alcotest.(check bool) "sparse update" true
          (updated_pins inc < npins)
      done)
    [ 1; 4 ]

(* One timer state: after [run] and after [update], every per-pin RAT
   and slack read on the timer itself is bitwise equal to a full
   analysis of the same placement on an independent timer, and an
   endpoint's pin slack is its report slack (a read pulls what the
   last change left stale, so no read is stale); a run over queued moves
   consumes them. *)
let test_incremental_fresh_rat_reads () =
  let design, cons = Workload.generate lib
      { Workload.default_spec with Workload.sp_cells = 300 } in
  let g = Sta.Graph.build design lib cons in
  let tm = Sta.Timer.create g in
  let reference = Sta.Timer.create g in
  let _ = Sta.Timer.run reference in
  let bits = Int64.bits_of_float in
  let check label (report : Sta.Timer.report) =
    for p = 0 to Netlist.num_pins design - 1 do
      let a = Sta.Timer.pin_slack_late tm p in
      let b = Sta.Timer.pin_slack_late reference p in
      if bits a <> bits b then
        Alcotest.failf "%s: pin_slack_late differs at pin %d: %h vs %h" label
          p a b;
      List.iter
        (fun tr ->
          if bits (Sta.Timer.rat_late tm p tr)
             <> bits (Sta.Timer.rat_late reference p tr)
          then Alcotest.failf "%s: rat_late differs at pin %d" label p)
        [ Sta.Rise; Sta.Fall ]
    done;
    List.iter
      (fun (e : Sta.Timer.endpoint_slack) ->
        if bits (Sta.Timer.pin_slack_late tm e.Sta.Timer.ep_pin)
           <> bits e.Sta.Timer.ep_setup_slack
        then
          Alcotest.failf "%s: endpoint %d pin slack is not its report slack"
            label e.Sta.Timer.ep_pin)
      report.Sta.Timer.endpoint_slacks
  in
  check "first run" (Sta.Timer.run tm);
  let rng = Workload.Rng.create 2718 in
  let ncells = Netlist.num_cells design in
  let move_five () =
    let moved = ref 0 in
    while !moved < 5 do
      let c = design.Netlist.cells.(Workload.Rng.int rng ncells) in
      if not c.Netlist.fixed then begin
        incr moved;
        let x, y = random_legal_position rng design c in
        Sta.Incremental.move_cell tm c.Netlist.cell_id ~x ~y
      end
    done
  in
  for round = 1 to 3 do
    move_five ();
    let r = Sta.Incremental.update tm in
    let _ = Sta.Timer.run ~rebuild_trees:false reference in
    check (Printf.sprintf "update %d" round) r;
    move_five ();
    let r = Sta.Timer.run ~rebuild_trees:false tm in
    let _ = Sta.Timer.run ~rebuild_trees:false reference in
    check (Printf.sprintf "run %d" round) r;
    let _ = Sta.Incremental.update tm in
    Alcotest.(check int) "run consumed the queued moves" 0 (updated_pins tm)
  done

(* The serving-daemon workload at full size: 20 what-if batches of
   0.25% of the cells, each jittered by up to 4 rows, on the 5000-cell
   design.  Every update must be bitwise equal to a full run on frozen
   topologies, and the cone a batch dirties must stay well under the
   whole design: below a quarter of the pins on average (the change
   cutoff is bitwise, so a batch re-times its whole fanout cone). *)
let test_incremental_sparse_at_5k () =
  let design, cons = Workload.generate lib
      { Workload.default_spec with
        Workload.sp_cells = 5000; sp_seed = 17; sp_inputs = 16;
        sp_outputs = 16; sp_depth = 10; sp_clock_period = 520.0 } in
  let g = Sta.Graph.build design lib cons in
  let inc = Sta.Incremental.create g in
  let reference = Sta.Timer.create g in
  let _ = Sta.Timer.run reference in
  let npins = Netlist.num_pins design in
  let ncells = Netlist.num_cells design in
  let batch = max 1 (ncells / 400) in
  let batches = 20 in
  let rng = Workload.Rng.create 2024 in
  let region = design.Netlist.region in
  let row = design.Netlist.row_height in
  let frac_sum = ref 0.0 in
  for round = 1 to batches do
    let moved = ref 0 in
    while !moved < batch do
      let c = design.Netlist.cells.(Workload.Rng.int rng ncells) in
      if not c.Netlist.fixed then begin
        incr moved;
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
    let ir = Sta.Incremental.update inc in
    let fr = Sta.Timer.run ~rebuild_trees:false reference in
    check_report_bitwise (Printf.sprintf "batch %d" round) ir fr;
    let stats = Sta.Incremental.last_stats inc in
    frac_sum :=
      !frac_sum
      +. (float_of_int stats.Sta.Incremental.us_pins /. float_of_int npins)
  done;
  let mean = !frac_sum /. float_of_int batches in
  if mean >= 0.25 then
    Alcotest.failf "mean re-evaluated pin fraction %.3f >= 0.25" mean

let suite =
  suite
  @ [ Alcotest.test_case "incremental matches full" `Quick
        test_incremental_matches_full;
      Alcotest.test_case "incremental no-op" `Quick
        test_incremental_no_move_is_noop;
      Alcotest.test_case "incremental move and restore" `Quick
        test_incremental_move_then_back;
      Alcotest.test_case "incremental NaN convergence" `Quick
        test_incremental_nan_convergence;
      Alcotest.test_case "incremental move validation" `Quick
        test_incremental_move_validation;
      Alcotest.test_case "incremental randomized equivalence" `Quick
        test_incremental_randomized_equivalence;
      Alcotest.test_case "incremental fresh RAT reads" `Quick
        test_incremental_fresh_rat_reads ]

let test_io_constraint_effects () =
  let d = build_chain () in
  (* input_delay shifts the whole data path *)
  let wns c =
    let g = Sta.Graph.build d lib c in
    (Sta.Timer.run (Sta.Timer.create g)).Sta.Timer.setup_wns
  in
  let base = wns constraints in
  let delayed =
    wns { constraints with Sta.Constraints.input_delay = 50.0 }
  in
  Alcotest.(check bool) "input delay hurts" true (delayed <= base -. 40.0);
  (* output_delay tightens PO endpoints only; the chain's PO is less
     critical than its FF, so WNS moves once the margin is large *)
  let tightened =
    wns { constraints with Sta.Constraints.output_delay = 400.0 }
  in
  Alcotest.(check bool) "output delay tightens" true (tightened < base);
  (* heavier PO load slows the driving path *)
  let loaded =
    wns { constraints with Sta.Constraints.output_load = 30.0 }
  in
  Alcotest.(check bool) "output load hurts" true (loaded < base)

let test_slew_limits_monotone () =
  (* faster input slew can only help arrival on the PI -> INV -> D path
     (the PO is launched by the clock and is insensitive to input slew) *)
  let d = build_chain () in
  let at_d c =
    let g = Sta.Graph.build d lib c in
    let timer = Sta.Timer.create g in
    let _ = Sta.Timer.run timer in
    match Netlist.pin_by_name d "dff/D" with
    | Some p -> Sta.Timer.at_late timer p.Netlist.pin_id Sta.Rise
    | None -> Alcotest.fail "dff/D"
  in
  let fast = at_d { constraints with Sta.Constraints.input_slew = 5.0 } in
  let slow = at_d { constraints with Sta.Constraints.input_slew = 80.0 } in
  Alcotest.(check bool) "slew monotone" true (fast < slow)

let suite =
  suite
  @ [ Alcotest.test_case "io constraint effects" `Quick test_io_constraint_effects;
      Alcotest.test_case "slew monotone" `Quick test_slew_limits_monotone ]

(* --- dirty-net incremental Steiner rebuild --- *)

let workload_nets seed =
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 250; sp_seed = seed; sp_clock_period = 700.0 }
  in
  let design, cons = Workload.generate lib spec in
  (design, Sta.Graph.build design lib cons)

let nets_state (nets : Sta.Nets.t) =
  (* every mutable bit of tree state, bitwise *)
  Array.map
    (function
      | None -> None
      | Some ((t : Steiner.t), _) ->
        Some
          (Array.map Int64.bits_of_float t.Steiner.xs,
           Array.map Int64.bits_of_float t.Steiner.ys,
           t.Steiner.parent, t.Steiner.x_source, t.Steiner.y_source,
           t.Steiner.order))
    nets.Sta.Nets.trees

let jitter design rng mag =
  List.iter
    (fun c ->
      let cell = design.Netlist.cells.(c) in
      cell.Netlist.x <- cell.Netlist.x +. Workload.Rng.float rng (2.0 *. mag) -. mag;
      cell.Netlist.y <- cell.Netlist.y +. Workload.Rng.float rng (2.0 *. mag) -. mag)
    (Netlist.movable_cells design)

(* replay the same motion/maintenance sequence under a given per-tick
   action and return the final bitwise tree state *)
let replay design graph home ticks act =
  Netlist.restore_positions design home;
  let nets = Sta.Nets.create graph in
  let rng = Workload.Rng.create 31 in
  for _ = 1 to ticks do
    jitter design rng 3.0;
    act nets
  done;
  nets_state nets

let check_states label a b =
  Alcotest.(check int) (label ^ ": same net count") (Array.length a)
    (Array.length b);
  Array.iteri
    (fun i sa -> if sa <> b.(i) then Alcotest.failf "%s: net %d differs" label i)
    a

let test_dirty_zero_is_full_rebuild () =
  (* threshold 0 re-topologises everything that moved at all; since the
     classifier is [> thr] on pin displacement and rebuilds of unmoved
     nets are reproducible, the result must be bit-identical to the
     unconditional rebuild *)
  let design, graph = workload_nets 5 in
  let home = Netlist.copy_positions design in
  let a =
    replay design graph home 3 (fun n -> Sta.Nets.rebuild ~dirty_threshold:0.0 n)
  in
  let b = replay design graph home 3 (fun n -> Sta.Nets.rebuild n) in
  check_states "threshold 0 vs full" a b

let test_dirty_huge_is_refresh () =
  (* an unreachable threshold classifies every net clean: the rebuild
     tick degenerates to the provenance refresh, bit for bit *)
  let design, graph = workload_nets 6 in
  let home = Netlist.copy_positions design in
  let a =
    replay design graph home 3 (fun n ->
      Sta.Nets.rebuild ~dirty_threshold:1e30 n)
  in
  let b = replay design graph home 3 (fun n -> Sta.Nets.refresh n) in
  check_states "huge threshold vs refresh" a b

let test_dirty_rebuild_pool_bit_identical () =
  (* the three-phase dirty rebuild must not depend on the domain count
     (LUT classes are only ever generated sequentially) *)
  let design, graph = workload_nets 7 in
  let home = Netlist.copy_positions design in
  let act pool n = Sta.Nets.rebuild ~dirty_threshold:6.0 ?pool n in
  let seq = replay design graph home 3 (act None) in
  List.iter
    (fun domains ->
      let pool = Parallel.create ~domains ~oversubscribe:true () in
      let pooled =
        Fun.protect
          ~finally:(fun () -> Parallel.shutdown pool)
          (fun () -> replay design graph home 3 (act (Some pool)))
      in
      check_states (Printf.sprintf "@%dd vs sequential" domains) seq pooled)
    [ 2; 4 ]

let test_dirty_skips_unmoved () =
  (* with a permissive threshold and tiny motion, anchors must keep nets
     clean: trees keep their topology while coordinates track the pins *)
  let design, graph = workload_nets 8 in
  let nets = Sta.Nets.create graph in
  let before = nets_state nets in
  let topo_of = Array.map (Option.map (fun (_, _, p, _, _, o) -> (p, o))) in
  let rng = Workload.Rng.create 77 in
  jitter design rng 0.01;
  Sta.Nets.rebuild ~dirty_threshold:1.0 nets;
  let after = nets_state nets in
  Alcotest.(check bool) "coordinates moved" true (before <> after);
  Array.iteri
    (fun i t ->
      if t <> (topo_of after).(i) then
        Alcotest.failf "net %d re-topologised below threshold" i)
    (topo_of before)

let suite =
  suite
  @ [ Alcotest.test_case "dirty threshold 0 = full rebuild" `Quick
        test_dirty_zero_is_full_rebuild;
      Alcotest.test_case "huge dirty threshold = refresh" `Quick
        test_dirty_huge_is_refresh;
      Alcotest.test_case "dirty rebuild pool bit-identical" `Quick
        test_dirty_rebuild_pool_bit_identical;
      Alcotest.test_case "dirty rebuild skips unmoved nets" `Quick
        test_dirty_skips_unmoved ]

(* --- the shared forward kernel vs the pre-kernel timer --- *)

let kernel_specs =
  [ { Workload.default_spec with
      Workload.sp_cells = 220; sp_clock_period = 700.0 };
    { Workload.default_spec with
      Workload.sp_cells = 320; sp_depth = 12; sp_clock_period = 600.0 };
    { Workload.default_spec with
      Workload.sp_cells = 260; sp_inputs = 12; sp_outputs = 12;
      sp_clock_period = 900.0 } ]

let bits = Int64.bits_of_float

let check_reports_bitwise label (a : Sta.Timer.report) (b : Sta.Timer.report) =
  if bits a.Sta.Timer.setup_wns <> bits b.Sta.Timer.setup_wns
     || bits a.Sta.Timer.setup_tns <> bits b.Sta.Timer.setup_tns
     || bits a.Sta.Timer.hold_wns <> bits b.Sta.Timer.hold_wns
     || bits a.Sta.Timer.hold_tns <> bits b.Sta.Timer.hold_tns
  then Alcotest.failf "%s: WNS/TNS not bit-identical" label;
  Alcotest.(check int) (label ^ ": endpoint count")
    (List.length a.Sta.Timer.endpoint_slacks)
    (List.length b.Sta.Timer.endpoint_slacks);
  List.iter2
    (fun (x : Sta.Timer.endpoint_slack) (y : Sta.Timer.endpoint_slack) ->
      if x.Sta.Timer.ep_pin <> y.Sta.Timer.ep_pin
         || bits x.Sta.Timer.ep_setup_slack <> bits y.Sta.Timer.ep_setup_slack
         || bits x.Sta.Timer.ep_hold_slack <> bits y.Sta.Timer.ep_hold_slack
      then Alcotest.failf "%s: endpoint %d differs" label x.Sta.Timer.ep_pin)
    a.Sta.Timer.endpoint_slacks b.Sta.Timer.endpoint_slacks

(* every per-pin read of [tm] against the oracle's arrays *)
let check_pins_vs_oracle label tm (o : Sta_oracle.t) =
  let npins = Netlist.num_pins o.Sta_oracle.graph.Sta.Graph.design in
  for p = 0 to npins - 1 do
    List.iter
      (fun tr ->
        let i = Sta_oracle.idx p tr in
        let same what a b =
          if bits a <> bits b then
            Alcotest.failf "%s: %s differs at pin %d (%h vs %h)" label what p
              a b
        in
        same "at_late" o.Sta_oracle.at_l.(i) (Sta.Timer.at_late tm p tr);
        same "at_early" o.Sta_oracle.at_e.(i) (Sta.Timer.at_early tm p tr);
        same "slew_late" o.Sta_oracle.sl_l.(i) (Sta.Timer.slew_late tm p tr);
        same "rat_late" o.Sta_oracle.rat_l.(i) (Sta.Timer.rat_late tm p tr))
      [ Sta.Rise; Sta.Fall ]
  done

let check_vs_oracle label tm report =
  let o = Sta_oracle.create (Sta.Timer.nets tm) in
  check_reports_bitwise label (Sta_oracle.run o) report;
  check_pins_vs_oracle label tm o

(* Gate for the shared kernel: [Timer.run] ([Sta.Forward.pin] at
   gamma 0: the late hard max and the early lane's hard min in one
   fan-in walk) reproduces the pre-kernel exact timer bit for bit,
   sequential and pooled, and so does the same timer after incremental
   move batches. *)
let test_kernel_matches_oracle () =
  List.iter
    (fun domains ->
      let pool = Parallel.create ~domains ~oversubscribe:true () in
      Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
      List.iteri
        (fun si spec ->
          List.iter
            (fun seed ->
              let label = Printf.sprintf "spec %d seed %d @%dd" si seed domains in
              let design, cons =
                Workload.generate lib { spec with Workload.sp_seed = seed }
              in
              let g = Sta.Graph.build design lib cons in
              let tm = Sta.Timer.create g in
              check_vs_oracle label tm (Sta.Timer.run ~pool tm);
              let rng = Workload.Rng.create (seed + (7 * si)) in
              let ncells = Netlist.num_cells design in
              for round = 1 to 3 do
                let moved = ref 0 in
                while !moved < 4 do
                  let c = design.Netlist.cells.(Workload.Rng.int rng ncells) in
                  if not c.Netlist.fixed then begin
                    incr moved;
                    let x, y = random_legal_position rng design c in
                    Sta.Incremental.move_cell tm c.Netlist.cell_id ~x ~y
                  end
                done;
                let r = Sta.Incremental.update tm in
                let o = Sta_oracle.create (Sta.Timer.nets tm) in
                let label = Printf.sprintf "%s update %d" label round in
                check_reports_bitwise label (Sta_oracle.run o) r;
                check_pins_vs_oracle label tm o
              done)
            [ 3; 11 ])
        kernel_specs)
    [ 1; 4 ]

(* The forward sweep runs level-parallel under [pool]: reports and every
   per-pin value are bitwise equal at 1 domain and at the suite's
   domain count. *)
let test_pooled_exact_sta () =
  List.iter
    (fun spec ->
      let design, cons = Workload.generate lib spec in
      let g = Sta.Graph.build design lib cons in
      let run domains =
        let pool = Parallel.create ~domains ~oversubscribe:true () in
        Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
        let tm = Sta.Timer.create g in
        (tm, Sta.Timer.run ~pool tm)
      in
      let t1, r1 = run 1 in
      let domains = Test_parallel.env_domains () in
      let tk, rk = run domains in
      let label = Printf.sprintf "%d cells @1d vs @%dd" spec.Workload.sp_cells domains in
      check_reports_bitwise label r1 rk;
      for p = 0 to Netlist.num_pins design - 1 do
        List.iter
          (fun tr ->
            List.iter
              (fun (what, read) ->
                if bits (read t1 p tr) <> bits (read tk p tr) then
                  Alcotest.failf "%s: %s differs at pin %d" label what p)
              [ ("at_late", Sta.Timer.at_late);
                ("at_early", Sta.Timer.at_early);
                ("slew_late", Sta.Timer.slew_late);
                ("rat_late", Sta.Timer.rat_late) ])
          [ Sta.Rise; Sta.Fall ]
      done)
    [ List.nth kernel_specs 0;
      { Workload.default_spec with
        Workload.sp_cells = 900; sp_seed = 5; sp_clock_period = 650.0 } ]

(* The difftimer pays nothing for the early lane: a smooth state has
   empty early arrays, and driven at gamma 0 its late arrival and slew
   equal the exact timer's bit for bit. *)
let test_smooth_state_no_early_lane () =
  let design, cons = Workload.generate lib (List.hd kernel_specs) in
  let g = Sta.Graph.build design lib cons in
  let tm = Sta.Timer.create g in
  ignore (Sta.Timer.run tm);
  let n = 2 * Netlist.num_pins design in
  let exact = Sta.Forward.create (Sta.Timer.nets tm) in
  Alcotest.(check int) "exact state has the lane" n
    (Array.length exact.Sta.Forward.at_e);
  let fwd = Sta.Forward.create ~smooth:true (Sta.Timer.nets tm) in
  Alcotest.(check int) "no early arrival" 0 (Array.length fwd.Sta.Forward.at_e);
  Alcotest.(check int) "no early slew" 0 (Array.length fwd.Sta.Forward.sl_e);
  Alcotest.(check int) "no back-pointers" 0
    (Array.length fwd.Sta.Forward.pred);
  Sta.Forward.reset fwd;
  Sta.Forward.sweep fwd (Sta.Forward.pin fwd ~gamma:0.0);
  for p = 0 to Netlist.num_pins design - 1 do
    List.iter
      (fun tr ->
        let i = (2 * p) + Sta.transition_index tr in
        let at = fwd.Sta.Forward.at.(i) and slew = fwd.Sta.Forward.slew.(i) in
        if bits at <> bits (Sta.Timer.at_late tm p tr)
           || bits slew <> bits (Sta.Timer.slew_late tm p tr)
        then Alcotest.failf "late state differs at pin %d" p)
      [ Sta.Rise; Sta.Fall ]
  done

(* A library read back from Liberty-lite interns equal axes, so every
   arc's delay and slew tables share their axis arrays physically and
   take the pair query's one-search path, as the synthetic library's
   do; the exact timer then reports the same bits under both. *)
let test_parsed_library_bit_identical () =
  let parsed = Liberty.Io.of_string (Liberty.Io.to_string lib) in
  let shared (d : Liberty.Lut.t) (s : Liberty.Lut.t) =
    d.Liberty.Lut.x_axis == s.Liberty.Lut.x_axis
    && d.Liberty.Lut.y_axis == s.Liberty.Lut.y_axis
  in
  Array.iter
    (fun c ->
      Array.iter
        (fun a ->
          if not (shared a.Liberty.cell_rise a.Liberty.rise_transition
                  && shared a.Liberty.cell_fall a.Liberty.fall_transition)
          then Alcotest.failf "%s: an arc's tables do not share their axes"
              c.Liberty.lc_name)
        c.Liberty.lc_arcs)
    parsed.Liberty.lib_cells;
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 400; sp_clock_period = 700.0 }
  in
  let run l =
    let design, cons = Workload.generate l spec in
    let g = Sta.Graph.build design l cons in
    Test_parallel.with_pool (fun pool ->
      Sta.Timer.run ~pool (Sta.Timer.create g))
  in
  check_reports_bitwise "parsed vs synthetic library" (run lib) (run parsed)

let suite =
  suite
  @ [ Alcotest.test_case "kernel timer bit-identical to oracle" `Quick
        test_kernel_matches_oracle;
      Alcotest.test_case "parsed library times bit-identically" `Quick
        test_parsed_library_bit_identical;
      Alcotest.test_case "pooled exact STA bit-identical" `Quick
        test_pooled_exact_sta;
      Alcotest.test_case "smooth state has no early lane" `Quick
        test_smooth_state_no_early_lane;
      Alcotest.test_case "incremental sparse and bitwise at 5k cells" `Slow
        test_incremental_sparse_at_5k ]

(* --- incremental timing: the pair cache, the RAT pull, report order --- *)

let both = [ Sta.Rise; Sta.Fall ]

(* every pin's eight lane values and every reached, admitted arc delay
   of [tm] against [reference], bit for bit *)
let check_lanes_bitwise label tm reference =
  let g = (Sta.Timer.nets tm).Sta.Nets.graph in
  for p = 0 to Netlist.num_pins g.Sta.Graph.design - 1 do
    List.iter
      (fun tr ->
        List.iter
          (fun (what, read) ->
            if bits (read tm p tr) <> bits (read reference p tr) then
              Alcotest.failf "%s: %s differs at pin %d" label what p)
          [ ("at_late", Sta.Timer.at_late); ("at_early", Sta.Timer.at_early);
            ("slew_late", Sta.Timer.slew_late);
            ("slew_early", Sta.Timer.slew_early) ])
      both
  done;
  for a = 0 to Sta.Graph.num_arcs g - 1 do
    let u = g.Sta.Graph.arc_from.(a) in
    List.iter
      (fun tr_out ->
        List.iter
          (fun tr_in ->
            if Sta.Graph.arc_admits g a ~tr_out ~tr_in
               && Sta.Timer.at_late reference u tr_in > neg_infinity
               && bits (Sta.Timer.arc_delay tm a ~tr_out ~tr_in)
                  <> bits (Sta.Timer.arc_delay reference a ~tr_out ~tr_in)
            then Alcotest.failf "%s: delay of arc %d differs" label a)
          both)
      both
  done

let random_movable rng design =
  let ncells = Netlist.num_cells design in
  let rec pick () =
    let c = design.Netlist.cells.(Workload.Rng.int rng ncells) in
    if c.Netlist.fixed then pick () else c
  in
  pick ()

(* A cell [c] on the net driven by output pin [v] of another cell
   [d], such that moving [c] changes [v]'s load but not the slews at
   [d]'s inputs: the pair cache must re-query on the load alone. *)
let load_only_move label tm rng =
  let g = (Sta.Timer.nets tm).Sta.Nets.graph in
  let design = g.Sta.Graph.design in
  let nets = Sta.Timer.nets tm in
  let root_load net =
    match nets.Sta.Nets.trees.(net) with
    | Some (_, rc) -> Rc.root_load rc
    | None -> nan
  in
  let input_slews d =
    List.concat_map
      (fun p ->
        if design.Netlist.pins.(p).Netlist.direction = Netlist.Input then
          List.map (fun tr -> bits (Sta.Timer.slew_late tm p tr)) both
        else [])
      (Array.to_list design.Netlist.cells.(d).Netlist.cell_pins)
  in
  let found = ref false and tries = ref 0 in
  while (not !found) && !tries < 200 do
    incr tries;
    let c = random_movable rng design in
    (* a net on [c] driven by another cell's output with cell arcs *)
    Array.iter
      (fun p ->
        let net = design.Netlist.pins.(p).Netlist.net in
        if (not !found) && net >= 0 then begin
          let v = g.Sta.Graph.net_driver_of.(net) in
          if v >= 0 && v <> p
             && g.Sta.Graph.fanin_off.(v + 1) > g.Sta.Graph.fanin_off.(v)
          then begin
            let d = design.Netlist.pins.(v).Netlist.cell in
            let slews = input_slews d and load = bits (root_load net) in
            let x0 = c.Netlist.x and y0 = c.Netlist.y in
            let x, y = random_legal_position rng design c in
            Sta.Incremental.move_cell tm c.Netlist.cell_id ~x ~y;
            ignore (Sta.Incremental.update tm);
            if d <> c.Netlist.cell_id && input_slews d = slews
               && bits (root_load net) <> load
            then found := true
            else begin
              Sta.Incremental.move_cell tm c.Netlist.cell_id ~x:x0 ~y:y0;
              ignore (Sta.Incremental.update tm)
            end
          end
        end)
      c.Netlist.cell_pins
  done;
  if not !found then Alcotest.failf "%s: no load-only move found" label

(* At input slew -0.0 a delay row that starts at -0.0 on a slew axis
   from 0 reads -0.0, and at +0.0 it reads +0.0: a cache keyed on [=]
   would replay the one for the other.  Driven on the kernel directly,
   since no placement gives an arc input a signed zero slew. *)
let check_signed_zero_key () =
  let zero_row =
    Liberty.Lut.make ~x_axis:[| 0.0; 100.0 |] ~y_axis:[| 0.0; 1e6 |]
      ~values:[| -0.0; -0.0; 50.0; 50.0 |]
  in
  let zlib =
    { lib with
      Liberty.lib_cells =
        Array.map
          (fun (c : Liberty.lib_cell) ->
            { c with
              Liberty.lc_arcs =
                Array.map
                  (fun (a : Liberty.timing_arc) ->
                    { a with Liberty.cell_rise = zero_row; cell_fall = zero_row })
                  c.Liberty.lc_arcs })
          lib.Liberty.lib_cells }
  in
  let design, cons =
    Workload.generate zlib
      { Workload.default_spec with Workload.sp_cells = 120; sp_seed = 4 }
  in
  let g = Sta.Graph.build design zlib cons in
  let nets = Sta.Nets.create g in
  let cached = Sta.Forward.create nets and plain = Sta.Forward.create nets in
  Sta.Forward.cache_pairs cached;
  List.iter
    (fun f ->
      Sta.Forward.reset f;
      Sta.Forward.sweep f (Sta.Forward.pin f ~gamma:0.0))
    [ cached; plain ];
  let a =
    let rec find a =
      if a >= Sta.Graph.num_arcs g then Alcotest.fail "no reached arc"
      else if plain.Sta.Forward.at.(2 * g.Sta.Graph.arc_from.(a)) > neg_infinity
              && Sta.Graph.arc_admits g a ~tr_out:Sta.Rise ~tr_in:Sta.Rise
      then a
      else find (a + 1)
    in
    find 0
  in
  let iu = 2 * g.Sta.Graph.arc_from.(a) and v = g.Sta.Graph.arc_to.(a) in
  let e = 4 * a in
  let delays =
    List.map
      (fun s ->
        List.iter
          (fun f ->
            f.Sta.Forward.slew.(iu) <- s;
            Sta.Forward.pin f ~gamma:0.0 v)
          [ cached; plain ];
        let d = plain.Sta.Forward.tape_d.(e) in
        if bits cached.Sta.Forward.tape_d.(e) <> bits d then
          Alcotest.failf "cached delay at input slew %h differs" s;
        bits d)
      [ -0.0; 0.0; -0.0 ]
  in
  if List.nth delays 0 = List.nth delays 1 then
    Alcotest.fail "the signed-zero LUT does not tell -0.0 from +0.0"

(* The exact lane's LUT pair cache is invisible: random multi-round
   move batches, a move and its exact undo, and a load change at
   unchanged input slews, on two designs (one with the library read
   back from Liberty-lite); after each round every pin's lanes, every
   reached arc delay and the report equal a full analysis on an
   independent timer bit for bit. *)
let test_incremental_cache_bitwise () =
  let parsed = Liberty.Io.of_string (Liberty.Io.to_string lib) in
  List.iter
    (fun (name, l, cells, seed) ->
      let design, cons =
        Workload.generate l
          { Workload.default_spec with
            Workload.sp_cells = cells; sp_seed = seed;
            sp_clock_period = 700.0 }
      in
      let g = Sta.Graph.build design l cons in
      let inc = Sta.Incremental.create g in
      let reference = Sta.Timer.create g in
      ignore (Sta.Timer.run reference);
      let rng = Workload.Rng.create seed in
      let check label r =
        let label = Printf.sprintf "%s %s" name label in
        check_reports_bitwise label r
          (Sta.Timer.run ~rebuild_trees:false reference);
        check_lanes_bitwise label inc reference
      in
      for round = 1 to 5 do
        for _ = 1 to 6 do
          let c = random_movable rng design in
          let x, y = random_legal_position rng design c in
          Sta.Incremental.move_cell inc c.Netlist.cell_id ~x ~y
        done;
        check (Printf.sprintf "round %d" round) (Sta.Incremental.update inc);
        let c = random_movable rng design in
        let x0 = c.Netlist.x and y0 = c.Netlist.y in
        let x, y = random_legal_position rng design c in
        Sta.Incremental.move_cell inc c.Netlist.cell_id ~x ~y;
        check (Printf.sprintf "round %d move" round)
          (Sta.Incremental.update inc);
        Sta.Incremental.move_cell inc c.Netlist.cell_id ~x:x0 ~y:y0;
        check (Printf.sprintf "round %d undo" round)
          (Sta.Incremental.update inc)
      done;
      load_only_move name inc rng;
      check "load-only move" (Sta.Incremental.update inc))
    [ ("synthetic", lib, 600, 21); ("parsed", parsed, 400, 22) ];
  check_signed_zero_key ()

(* RATs pulled on demand, in random read orders interleaved with
   updates and with the whole-design pass, equal the oracle's full
   backward sweep bit for bit; and
   pooled path enumeration straight after an update (its view pulls
   every endpoint first) equals the sequential one. *)
let test_rat_on_demand_matches_sweep () =
  let design, cons =
    Workload.generate lib
      { Workload.default_spec with
        Workload.sp_cells = 500; sp_seed = 8; sp_clock_period = 650.0 }
  in
  let g = Sta.Graph.build design lib cons in
  let tm = Sta.Incremental.create g in
  let rng = Workload.Rng.create 88 in
  let npins = Netlist.num_pins design in
  Test_parallel.with_pool (fun pool ->
    for round = 1 to 6 do
      for _ = 1 to 4 do
        let c = random_movable rng design in
        let x, y = random_legal_position rng design c in
        Sta.Incremental.move_cell tm c.Netlist.cell_id ~x ~y
      done;
      ignore (Sta.Incremental.update tm);
      if round mod 2 = 0 then begin
        let label = Printf.sprintf "round %d" round in
        let pooled = Paths.enumerate ~pool ~k:24 (Paths.analyze tm) in
        let seq = Paths.enumerate ~k:24 (Paths.analyze tm) in
        Alcotest.(check int) (label ^ ": path count") (List.length seq)
          (List.length pooled);
        List.iter2
          (fun (a : Paths.path) (b : Paths.path) ->
            if a.Paths.pt_endpoint <> b.Paths.pt_endpoint
               || bits a.Paths.pt_slack <> bits b.Paths.pt_slack
               || a.Paths.pt_arcs <> b.Paths.pt_arcs
            then Alcotest.failf "%s: pooled paths differ" label)
          pooled seq
      end;
      let o = Sta_oracle.create (Sta.Timer.nets tm) in
      ignore (Sta_oracle.run o);
      (* a random half of the pins in random order, then all of them *)
      let perm = Array.init npins Fun.id in
      for i = npins - 1 downto 1 do
        let j = Workload.Rng.int rng (i + 1) in
        let x = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- x
      done;
      let check i =
        let p = perm.(i) in
        List.iter
          (fun tr ->
            let r = Sta.Timer.rat_late tm p tr in
            if bits r <> bits o.Sta_oracle.rat_l.(Sta_oracle.idx p tr) then
              Alcotest.failf "round %d: rat_late differs at pin %d" round p)
          (if Workload.Rng.int rng 2 = 0 then [ Sta.Rise; Sta.Fall ]
           else [ Sta.Fall; Sta.Rise ])
      in
      let reads = if round mod 3 = 0 then npins else npins / 2 in
      for i = 0 to reads - 1 do check i done;
      (* the whole-design pass over what the reads left *)
      if round mod 3 = 1 then begin
        Sta.Timer.pull_all_rats tm;
        for i = 0 to npins - 1 do check i done
      end
    done)

(* A hand-built design whose report has setup slack ties and an
   endpoint that drops out and comes back: DFF Q pins drive two pairs
   of output pads, each pair at one spot (equal wire delays, so equal
   slacks).  With an infinite wire resistance every wire of non-zero
   length delays by infinity (slack -inf ties) and a zero-length one by
   nan, which leaves its sinks unreachable. *)
let tie_design l =
  let region = Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:100.0 ~hy:100.0 in
  let b = Netlist.Builder.create ~region ~row_height:1.4 "ties" in
  let kind name =
    match Liberty.cell_index l name with
    | Some i -> i
    | None -> Alcotest.failf "missing lib cell %s" name
  in
  let add_instance name k x y =
    let lc = l.Liberty.lib_cells.(k) in
    let cell =
      Netlist.Builder.add_cell b ~name ~lib_cell:k ~width:lc.Liberty.lc_width
        ~height:lc.Liberty.lc_height ~x ~y ()
    in
    ( cell,
      Array.mapi
        (fun j (lp : Liberty.lib_pin) ->
          Netlist.Builder.add_pin b ~cell
            ~name:(Printf.sprintf "%s/%s" name lp.Liberty.lp_name)
            ~direction:
              (match lp.Liberty.lp_direction with
               | Liberty.Lib_input -> Netlist.Input
               | Liberty.Lib_output -> Netlist.Output)
            ~lib_pin:j ())
        lc.Liberty.lc_pins )
  in
  let pad name x y direction =
    let cell =
      Netlist.Builder.add_cell b ~name ~lib_cell:(-1) ~width:2.0 ~height:2.0
        ~x ~y ~fixed:true ()
    in
    Netlist.Builder.add_pin b ~cell ~name:(name ^ "/P") ~direction ()
  in
  let pi = pad "pi0" 0.0 50.0 Netlist.Output in
  let _, inv = add_instance "inv" (kind "INV_X1") 30.0 50.0 in
  let dffs =
    List.map
      (fun (i, y) ->
        let name = Printf.sprintf "dff%d" i in
        let cell, pins = add_instance name (kind "DFF_X1") 50.0 y in
        let poa = pad (Printf.sprintf "po%da" i) 80.0 y Netlist.Input in
        let pob = pad (Printf.sprintf "po%db" i) 80.0 y Netlist.Input in
        (* DFF pins: D=0 CK=1 Q=2 *)
        ignore
          (Netlist.Builder.add_net b ~name:(name ^ "_q")
             ~pins:[ pins.(2); poa; pob ]);
        (cell, pins.(0)))
      [ (0, 30.0); (1, 70.0) ]
  in
  ignore (Netlist.Builder.add_net b ~name:"n_in" ~pins:[ pi; inv.(0) ]);
  ignore
    (Netlist.Builder.add_net b ~name:"n_mid"
       ~pins:(inv.(1) :: List.map snd dffs));
  (Netlist.Builder.freeze b, List.map fst dffs)

let has_tie (r : Sta.Timer.report) =
  let rec go = function
    | (a : Sta.Timer.endpoint_slack) :: (b :: _ as rest) ->
      Float.compare a.Sta.Timer.ep_setup_slack b.Sta.Timer.ep_setup_slack = 0
      || go rest
    | _ -> false
  in
  go r.Sta.Timer.endpoint_slacks

(* The report kept in order across updates equals the one the old
   [report_of] sorts from scratch ([Sta_oracle.run]), bit for bit and
   entry for entry: on random move batches (and an empty update), and
   on the tie design, through setup slack ties and an endpoint that
   becomes unreachable and then reachable again. *)
let test_report_order_kept () =
  let against_oracle label tm r =
    let o = Sta_oracle.create (Sta.Timer.nets tm) in
    check_reports_bitwise label r (Sta_oracle.run o)
  in
  let design, cons =
    Workload.generate lib
      { Workload.default_spec with
        Workload.sp_cells = 500; sp_seed = 31; sp_clock_period = 600.0 }
  in
  let g = Sta.Graph.build design lib cons in
  let tm = Sta.Incremental.create g in
  let rng = Workload.Rng.create 31 in
  for round = 1 to 8 do
    for _ = 1 to round mod 4 do
      let c = random_movable rng design in
      let x, y = random_legal_position rng design c in
      Sta.Incremental.move_cell tm c.Netlist.cell_id ~x ~y
    done;
    against_oracle (Printf.sprintf "round %d" round) tm
      (Sta.Incremental.update tm)
  done;
  List.iter
    (fun (name, l, expect_gap) ->
      let design, dffs = tie_design l in
      let g = Sta.Graph.build design l constraints in
      let tm = Sta.Incremental.create g in
      let r0 = Sta.Incremental.update tm in
      against_oracle (name ^ " start") tm r0;
      if not (has_tie r0) then Alcotest.failf "%s: no setup slack tie" name;
      (* dff0's Q pin onto its pads: a zero-length output net *)
      let dff0 = design.Netlist.cells.(List.hd dffs) in
      let x0 = dff0.Netlist.x in
      Sta.Incremental.move_cell tm dff0.Netlist.cell_id ~x:80.0
        ~y:dff0.Netlist.y;
      let r1 = Sta.Incremental.update tm in
      against_oracle (name ^ " on the pads") tm r1;
      let n r = List.length r.Sta.Timer.endpoint_slacks in
      if expect_gap && n r1 >= n r0 then
        Alcotest.failf "%s: no endpoint became unreachable" name;
      Sta.Incremental.move_cell tm dff0.Netlist.cell_id ~x:x0 ~y:dff0.Netlist.y;
      let r2 = Sta.Incremental.update tm in
      against_oracle (name ^ " back") tm r2;
      check_reports_bitwise (name ^ " back = start") r2 r0)
    [ ("finite wires", lib, false);
      ("infinite wire resistance",
       { lib with Liberty.r_unit = infinity }, true) ]

let suite =
  suite
  @ [ Alcotest.test_case "incremental cache bitwise" `Quick
        test_incremental_cache_bitwise;
      Alcotest.test_case "rat on demand = sweep" `Quick
        test_rat_on_demand_matches_sweep;
      Alcotest.test_case "report order kept" `Quick test_report_order_kept ]
