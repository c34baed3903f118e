(* Incremental timing-driven refinement: after global placement and
   legalisation, walk the critical path and try small relocations of its
   cells, accepting moves that improve WNS.  Each trial is evaluated by
   the incremental STA engine, which only re-propagates the affected
   cone — the workflow the ICCAD 2015 contest (the paper's benchmark
   suite) is about.

     dune exec examples/incremental_timing.exe *)

let () =
  let lib = Liberty.Synthetic.default () in
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 1200; sp_clock_period = 900.0 }
  in
  let design, constraints = Workload.generate lib spec in
  let graph = Sta.Graph.build design lib constraints in
  (* a quick wirelength-driven placement to start from *)
  let _ = Core.run { Core.default_config with Core.mode = Core.Wirelength_only } graph in
  ignore (Legalize.legalize design);
  let timer = Sta.Timer.create graph in
  let r0 = Sta.Timer.run timer in
  Printf.printf "start: WNS %.1f ps, TNS %.1f ps\n%!" r0.Sta.Timer.setup_wns
    r0.Sta.Timer.setup_tns;
  let evaluations = ref 0 and accepted = ref 0 and repropagated = ref 0 in
  let try_move cell ~x ~y ~current_wns =
    let c = design.Netlist.cells.(cell) in
    let x0 = c.Netlist.x and y0 = c.Netlist.y in
    Sta.Incremental.move_cell timer cell ~x ~y;
    let r = Sta.Incremental.update timer in
    incr evaluations;
    repropagated :=
      !repropagated + (Sta.Incremental.last_stats timer).Sta.Incremental.us_pins;
    if r.Sta.Timer.setup_wns > current_wns +. 1e-9 then begin
      incr accepted;
      Some r.Sta.Timer.setup_wns
    end
    else begin
      (* revert *)
      Sta.Incremental.move_cell timer cell ~x:x0 ~y:y0;
      let _ = Sta.Incremental.update timer in
      None
    end
  in
  let wns = ref r0.Sta.Timer.setup_wns in
  for _pass = 1 to 6 do
    let path =
      match Paths.enumerate ~k:1 (Paths.analyze timer) with
      | [] -> []
      | p :: _ -> p.Paths.pt_steps
    in
    (* candidate cells: owners of the path's pins, excluding pads *)
    let cells =
      List.filter_map
        (fun (s : Sta.Timer.path_step) ->
          let c = design.Netlist.pins.(s.Sta.Timer.ps_pin).Netlist.cell in
          if design.Netlist.cells.(c).Netlist.fixed then None else Some c)
        path
      |> List.sort_uniq compare
    in
    List.iter
      (fun cell ->
        let c = design.Netlist.cells.(cell) in
        (* probe the 4 compass directions by one row height *)
        let step = design.Netlist.row_height in
        let moves =
          [ (c.Netlist.x +. step, c.Netlist.y);
            (c.Netlist.x -. step, c.Netlist.y);
            (c.Netlist.x, c.Netlist.y +. step);
            (c.Netlist.x, c.Netlist.y -. step) ]
        in
        let hw = c.Netlist.width /. 2.0 and hh = c.Netlist.height /. 2.0 in
        let r = design.Netlist.region in
        (* the incremental engine validates moves like the legalizer:
           the whole bounding box must stay inside the core region *)
        let legal x y =
          x -. hw >= r.Geometry.Rect.lx
          && x +. hw <= r.Geometry.Rect.hx
          && y -. hh >= r.Geometry.Rect.ly
          && y +. hh <= r.Geometry.Rect.hy
        in
        List.iter
          (fun (x, y) ->
            if legal x y then
              match try_move cell ~x ~y ~current_wns:!wns with
              | Some better -> wns := better
              | None -> ())
          moves)
      cells
  done;
  let r1 = Sta.Incremental.update timer in
  Printf.printf "after refinement: WNS %.1f ps, TNS %.1f ps\n" r1.Sta.Timer.setup_wns
    r1.Sta.Timer.setup_tns;
  Printf.printf "%d trial moves (%d accepted), %d pins re-propagated total\n"
    !evaluations !accepted !repropagated;
  Printf.printf
    "(a full STA would have re-propagated %d pins per trial: %.0fx more work)\n"
    (Netlist.num_pins design)
    (float_of_int (!evaluations * Netlist.num_pins design)
     /. float_of_int (max 1 !repropagated))
