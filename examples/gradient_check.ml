(* Demonstrate that the differentiable timer's gradients are exact for
   the frozen-topology model, by comparing d(objective)/d(cell position)
   against central finite differences at three granularities:
   Elmore delay (Eq. 7/8), LUT queries (Fig. 6), and the full TNS/WNS
   pipeline (Fig. 3).

     dune exec examples/gradient_check.exe *)

let check name analytic fd =
  let err = Float.abs (analytic -. fd) in
  let rel = err /. Float.max 1e-9 (Float.abs fd) in
  Printf.printf "  %-36s analytic %12.6f   fd %12.6f   rel err %.2e\n"
    name analytic fd rel

let () =
  let rng = Workload.Rng.create 11 in
  Printf.printf "1. Elmore delay gradient through a 5-pin RC tree\n";
  let npins = 5 in
  let xs = Array.init npins (fun _ -> Workload.Rng.float rng 80.0) in
  let ys = Array.init npins (fun _ -> Workload.Rng.float rng 80.0) in
  let tree = Steiner.build ~xs ~ys () in
  let pin_caps = Array.init npins (fun i -> if i = 0 then 0.0 else 2.0) in
  let rc = Rc.create ~r_unit:0.02 ~c_unit:0.25 ~pin_caps tree in
  let delay_of_sink_3 () =
    Steiner.update_coordinates tree ~xs ~ys;
    Rc.evaluate rc;
    Rc.sink_delay rc 3
  in
  ignore (delay_of_sink_3 ());
  let n = Steiner.node_count tree in
  let g_delay = Array.make n 0.0 and g_i2 = Array.make n 0.0 in
  g_delay.(3) <- 1.0;
  let ngx = Array.make n 0.0 and ngy = Array.make n 0.0 in
  Rc.backward rc ~g_delay ~g_impulse2:g_i2 ~g_root_load:0.0 ~node_gx:ngx
    ~node_gy:ngy;
  let pgx = Array.make npins 0.0 and pgy = Array.make npins 0.0 in
  Steiner.accumulate_pin_gradient tree ~node_gx:ngx ~node_gy:ngy ~pin_gx:pgx
    ~pin_gy:pgy;
  let h = 1e-6 in
  for pin = 1 to 2 do
    let x0 = xs.(pin) in
    xs.(pin) <- x0 +. h;
    let fp = delay_of_sink_3 () in
    xs.(pin) <- x0 -. h;
    let fm = delay_of_sink_3 () in
    xs.(pin) <- x0;
    check
      (Printf.sprintf "d delay(sink 3) / d x(pin %d)" pin)
      pgx.(pin)
      ((fp -. fm) /. (2.0 *. h))
  done;

  Printf.printf "\n2. NLDM look-up-table query gradient (bilinear, Fig. 6)\n";
  let lib = Liberty.Synthetic.default () in
  let nand =
    match Liberty.find_cell lib "NAND2_X1" with
    | Some c -> c
    | None -> failwith "NAND2_X1 missing"
  in
  let lut = nand.Liberty.lc_arcs.(0).Liberty.cell_fall in
  let x = 13.7 and y = 5.3 in
  let q = Array.make 3 0.0 in
  Liberty.Lut.eval lut x y q 0;
  let dx = q.(1) and dy = q.(2) in
  let h = 1e-5 in
  check "d delay / d slew"
    dx
    ((Liberty.Lut.lookup lut (x +. h) y -. Liberty.Lut.lookup lut (x -. h) y)
     /. (2.0 *. h));
  check "d delay / d load"
    dy
    ((Liberty.Lut.lookup lut x (y +. h) -. Liberty.Lut.lookup lut x (y -. h))
     /. (2.0 *. h));

  Printf.printf "\n3. Full pipeline: d(-t1 TNS - t2 WNS) / d(cell position)\n";
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 200; sp_inputs = 10; sp_outputs = 10; sp_depth = 7;
      sp_clock_period = 560.0 }
  in
  let design, constraints = Workload.generate lib spec in
  let graph = Sta.Graph.build design lib constraints in
  let dt = Difftimer.create ~gamma:25.0 graph in
  let objective () =
    Sta.Nets.refresh (Difftimer.nets dt);
    let m = Difftimer.forward dt in
    (0.5 *. -.m.Difftimer.tns_smooth) +. (0.5 *. -.m.Difftimer.wns_smooth)
  in
  ignore (objective ());
  let ncells = Netlist.num_cells design in
  let gx = Array.make ncells 0.0 and gy = Array.make ncells 0.0 in
  Difftimer.backward dt ~w_tns:0.5 ~w_wns:0.5 ~grad_x:gx ~grad_y:gy;
  let shown = ref 0 in
  let i = ref 0 in
  while !shown < 4 && !i < ncells do
    let c = design.Netlist.cells.(!i) in
    if (not c.Netlist.fixed) && Float.abs gx.(!i) > 1e-4 then begin
      incr shown;
      let x0 = c.Netlist.x in
      let h = 1e-4 in
      c.Netlist.x <- x0 +. h;
      let fp = objective () in
      c.Netlist.x <- x0 -. h;
      let fm = objective () in
      c.Netlist.x <- x0;
      check
        (Printf.sprintf "d objective / d x(%s)" c.Netlist.cell_name)
        gx.(!i)
        ((fp -. fm) /. (2.0 *. h))
    end;
    incr i
  done
