(* Cross-module property tests: invariants that tie the subsystems
   together, checked over randomised designs. *)

let lib = Liberty.Synthetic.default ()

let random_design seed cells =
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = cells; sp_seed = seed; sp_inputs = 6;
      sp_outputs = 6; sp_depth = 5; sp_clock_period = 600.0 }
  in
  let design, cons = Workload.generate lib spec in
  (design, Sta.Graph.build design lib cons)

(* the smoothed engine upper-bounds the exact engine on whole designs *)
let prop_smoothed_bounds_exact =
  QCheck2.Test.make ~name:"smoothed AT >= exact AT (random designs)" ~count:8
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let design, graph = random_design seed 120 in
      let timer = Sta.Timer.create graph in
      let _ = Sta.Timer.run timer in
      let dt = Difftimer.create ~gamma:15.0 graph in
      Sta.Nets.rebuild (Difftimer.nets dt);
      let _ = Difftimer.forward dt in
      let ok = ref true in
      for p = 0 to Netlist.num_pins design - 1 do
        List.iter
          (fun tr ->
            let exact = Sta.Timer.at_late timer p tr in
            let smooth = Difftimer.at dt p tr in
            if exact > neg_infinity && smooth < exact -. 1e-6 then ok := false)
          [ Sta.Rise; Sta.Fall ]
      done;
      !ok)

(* Elmore delay is homogeneous of degree 1 in resistance *)
let prop_elmore_linear_in_r =
  QCheck2.Test.make ~name:"elmore delay linear in r_unit" ~count:50
    QCheck2.Gen.(pair (int_range 2 8) (float_range 1.5 4.0))
    (fun (n, k) ->
      let rng = Workload.Rng.create (n * 17) in
      let xs = Array.init n (fun _ -> Workload.Rng.float rng 60.0) in
      let ys = Array.init n (fun _ -> Workload.Rng.float rng 60.0) in
      let pin_caps = Array.init n (fun i -> if i = 0 then 0.0 else 2.0) in
      let tree = Steiner.build ~xs ~ys () in
      let rc1 = Rc.create ~r_unit:0.02 ~c_unit:0.25 ~pin_caps tree in
      let rc2 = Rc.create ~r_unit:(0.02 *. k) ~c_unit:0.25 ~pin_caps tree in
      Rc.evaluate rc1;
      Rc.evaluate rc2;
      let ok = ref true in
      for v = 1 to n - 1 do
        let d1 = Rc.sink_delay rc1 v and d2 = Rc.sink_delay rc2 v in
        if Float.abs (d2 -. (k *. d1)) > 1e-9 *. Float.max 1.0 d2 then
          ok := false
      done;
      !ok)

(* WNS improves by exactly the slack the clock gains *)
let prop_period_shift =
  QCheck2.Test.make ~name:"wns shifts with clock period" ~count:6
    QCheck2.Gen.(pair (int_range 1 500) (float_range 20.0 200.0))
    (fun (seed, delta) ->
      let design, _ = random_design seed 100 in
      let c1 = { Sta.Constraints.default with Sta.Constraints.clock_period = 500.0 } in
      let c2 = { c1 with Sta.Constraints.clock_period = 500.0 +. delta } in
      let wns c =
        let g = Sta.Graph.build design lib c in
        (Sta.Timer.run (Sta.Timer.create g)).Sta.Timer.setup_wns
      in
      Float.abs (wns c2 -. (wns c1 +. delta)) < 1e-6)

(* legalisation always reaches zero overlap at sane utilisations *)
let prop_legalize_sound =
  QCheck2.Test.make ~name:"legalize removes all overlap" ~count:10
    QCheck2.Gen.(pair (int_range 1 100) (float_range 0.2 0.7))
    (fun (seed, util) ->
      let region = Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:50.0 ~hy:50.0 in
      let b = Netlist.Builder.create ~region ~row_height:1.25 "p" in
      let rng = Workload.Rng.create seed in
      let area = ref 0.0 in
      let i = ref 0 in
      while !area < util *. 2500.0 do
        let w = 0.7 +. Workload.Rng.float rng 2.3 in
        ignore
          (Netlist.Builder.add_cell b
             ~name:(Printf.sprintf "c%d" !i)
             ~lib_cell:0 ~width:w ~height:1.25
             ~x:(Workload.Rng.float rng 50.0)
             ~y:(Workload.Rng.float rng 50.0)
             ());
        area := !area +. (w *. 1.25);
        incr i
      done;
      let d = Netlist.Builder.freeze b in
      let _ = Legalize.legalize d in
      Checks.legality d = [])

(* the incremental engine always agrees with the full engine *)
let prop_incremental_equivalence =
  QCheck2.Test.make ~name:"incremental = full STA after random moves" ~count:5
    QCheck2.Gen.(int_range 1 300)
    (fun seed ->
      let design, graph = random_design seed 150 in
      let inc = Sta.Incremental.create graph in
      let reference = Sta.Timer.create graph in
      let rng = Workload.Rng.create (seed + 7) in
      let ncells = Netlist.num_cells design in
      let ok = ref true in
      let r = design.Netlist.region in
      for _ = 1 to 4 do
        let c = design.Netlist.cells.(Workload.Rng.int rng ncells) in
        if not c.Netlist.fixed then begin
          (* a random position inside the validated move domain: the
             cell's bbox must stay within the core region *)
          let hw = c.Netlist.width /. 2.0 and hh = c.Netlist.height /. 2.0 in
          Sta.Incremental.move_cell inc c.Netlist.cell_id
            ~x:(Geometry.clamp ~lo:(r.Geometry.Rect.lx +. hw)
                  ~hi:(r.Geometry.Rect.hx -. hw)
                  (1.0 +. Workload.Rng.float rng 40.0))
            ~y:(Geometry.clamp ~lo:(r.Geometry.Rect.ly +. hh)
                  ~hi:(r.Geometry.Rect.hy -. hh)
                  (1.0 +. Workload.Rng.float rng 40.0))
        end;
        let ir = Sta.Incremental.update inc in
        let fr = Sta.Timer.run ~rebuild_trees:false reference in
        if Float.abs (ir.Sta.Timer.setup_tns -. fr.Sta.Timer.setup_tns) > 1e-6
        then ok := false
      done;
      !ok)

(* bookshelf round-trips arbitrary generated designs *)
let prop_bookshelf_roundtrip =
  QCheck2.Test.make ~name:"bookshelf roundtrip (random specs)" ~count:8
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 30 200))
    (fun (seed, cells) ->
      let spec =
        { Workload.default_spec with
          Workload.sp_cells = cells; sp_seed = seed }
      in
      let design, cons = Workload.generate lib spec in
      let s = Bookshelf.to_string design cons in
      let d2, c2 = Bookshelf.of_string lib s in
      String.equal s (Bookshelf.to_string d2 c2))

(* detailed placement monotonically improves HPWL and keeps legality *)
let prop_detailed_refinement =
  QCheck2.Test.make ~name:"detailed refine: monotone hpwl + legality" ~count:5
    QCheck2.Gen.(int_range 1 200)
    (fun seed ->
      let design, _ = random_design seed 200 in
      ignore (Legalize.legalize design);
      let s = Detailed.refine ~passes:2 design in
      s.Detailed.hpwl_after <= s.Detailed.hpwl_before +. 1e-6
      && Checks.legality design = [])

(* per-endpoint slack: TNS decomposes over endpoints *)
let prop_tns_decomposition =
  QCheck2.Test.make ~name:"tns = sum of negative endpoint slacks" ~count:6
    QCheck2.Gen.(int_range 1 400)
    (fun seed ->
      let _, graph = random_design seed 150 in
      let report = Sta.Timer.run (Sta.Timer.create graph) in
      let s =
        List.fold_left
          (fun acc (e : Sta.Timer.endpoint_slack) ->
            acc +. Float.min 0.0 e.Sta.Timer.ep_setup_slack)
          0.0 report.Sta.Timer.endpoint_slacks
      in
      Float.abs (s -. report.Sta.Timer.setup_tns) < 1e-6)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_smoothed_bounds_exact;
      prop_elmore_linear_in_r;
      prop_period_shift;
      prop_legalize_sound;
      prop_incremental_equivalence;
      prop_bookshelf_roundtrip;
      prop_detailed_refinement;
      prop_tns_decomposition ]
