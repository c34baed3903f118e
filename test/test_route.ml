(* Tests for the routability subsystem: RUDY demand maps, congestion
   summaries and the cell-inflation loop. *)

let lib = Liberty.Synthetic.default ()

let with_pool domains f =
  let pool = Parallel.create ~domains () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)

let hotspot_design ?(cells = 800) ?(seed = 7) ?(hotspot = 0.3) () =
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = cells; sp_seed = seed; sp_clock_period = 800.0;
      sp_hotspot = hotspot }
  in
  Workload.generate lib spec

let bits a = Array.map Int64.bits_of_float a

(* ---- RUDY map ---- *)

(* A single 2-pin net: its demand lands in the bins its bbox overlaps
   and sums to w*h/(w+h) (plus the pin terms). *)
let test_rudy_single_net () =
  let region = Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:64.0 ~hy:64.0 in
  let b = Netlist.Builder.create ~region ~row_height:1.0 "rudy1" in
  let mk name x y dir =
    let c =
      Netlist.Builder.add_cell b ~name ~lib_cell:(-1) ~width:1.0 ~height:1.0
        ~x ~y ()
    in
    Netlist.Builder.add_pin b ~cell:c ~name:(name ^ "/P") ~direction:dir ()
  in
  let p0 = mk "a" 8.0 8.0 Netlist.Output in
  let p1 = mk "b" 40.0 24.0 Netlist.Input in
  ignore (Netlist.Builder.add_net b ~name:"n" ~pins:[ p0; p1 ]);
  let d = Netlist.Builder.freeze b in
  let rudy = Route.Rudy.create ~bins:16 ~pin_weight:0.0 d in
  Route.Rudy.update rudy;
  let dem = Route.Rudy.demand rudy in
  let total = Array.fold_left ( +. ) 0.0 dem in
  (* bbox 32 x 16 -> demand 32*16/48 *)
  let expected = 32.0 *. 16.0 /. 48.0 in
  Alcotest.(check bool) "total demand matches formula" true
    (Float.abs (total -. expected) < 1e-9 *. expected);
  (* no demand far from the bbox *)
  let n = Route.Rudy.bins rudy in
  Alcotest.(check (float 0.0)) "far corner empty" 0.0
    dem.(((n - 1) * n) + (n - 1));
  (* pin term adds exactly pin_weight per pin *)
  let rudy_p = Route.Rudy.create ~bins:16 ~pin_weight:0.5 d in
  Route.Rudy.update rudy_p;
  let total_p = Array.fold_left ( +. ) 0.0 (Route.Rudy.demand rudy_p) in
  Alcotest.(check bool) "pin term" true
    (Float.abs (total_p -. (expected +. 1.0)) < 1e-9 *. total_p)

let test_rudy_flat_net_counts () =
  (* a purely horizontal net still registers demand (bbox clamped to a
     bin's height) *)
  let region = Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:64.0 ~hy:64.0 in
  let b = Netlist.Builder.create ~region ~row_height:1.0 "flat" in
  let mk name x dir =
    let c =
      Netlist.Builder.add_cell b ~name ~lib_cell:(-1) ~width:1.0 ~height:1.0
        ~x ~y:32.0 ()
    in
    Netlist.Builder.add_pin b ~cell:c ~name:(name ^ "/P") ~direction:dir ()
  in
  let p0 = mk "a" 8.0 Netlist.Output in
  let p1 = mk "b" 56.0 Netlist.Input in
  ignore (Netlist.Builder.add_net b ~name:"n" ~pins:[ p0; p1 ]);
  let d = Netlist.Builder.freeze b in
  let rudy = Route.Rudy.create ~bins:16 ~pin_weight:0.0 d in
  Route.Rudy.update rudy;
  let total = Array.fold_left ( +. ) 0.0 (Route.Rudy.demand rudy) in
  Alcotest.(check bool) "flat net has demand" true (total > 1.0)

(* The demand map of a multi-net design against a per-bin reference
   computed here from the RUDY definition: a pin term in each pin's
   (edge-clamped) bin, and each net's demand spread over the overlap of
   its one-bin-expanded bbox with every bin.  Covers a pin on the
   region's top-right corner, nets whose expanded box would cross the
   region edge (the box is shifted inside, so the net's whole demand
   lands in the region), and enough nets for
   several reduction chunks, updated twice so reused chunk grids must
   come back zeroed. *)
let test_rudy_matches_reference () =
  let lx = 0.0 and ly = 0.0 and hx = 64.0 and hy = 48.0 in
  let region = Geometry.Rect.make ~lx ~ly ~hx ~hy in
  let b = Netlist.Builder.create ~region ~row_height:1.0 "rudyref" in
  let npins = ref 0 in
  let pin x y dir =
    let name = Printf.sprintf "c%d" !npins in
    incr npins;
    let c =
      Netlist.Builder.add_cell b ~name ~lib_cell:(-1) ~width:1.0 ~height:1.0
        ~x ~y ()
    in
    Netlist.Builder.add_pin b ~cell:c ~name:(name ^ "/P") ~direction:dir ()
  in
  let nets = ref [] in
  let net pts =
    let pins =
      List.mapi
        (fun k (x, y) ->
          pin x y (if k = 0 then Netlist.Output else Netlist.Input))
        pts
    in
    let name = Printf.sprintf "n%d" (List.length !nets) in
    ignore (Netlist.Builder.add_net b ~name ~pins);
    nets := pts :: !nets
  in
  net [ (hx, hy); (20.0, 30.0) ];
  net [ (hx, hy) ];
  net [ (10.0, 0.5); (30.0, 0.5) ];
  net [ (0.0, 5.0); (0.0, 40.0); (3.0, 22.0) ];
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 96 do
    let k = 2 + Random.State.int rng 4 in
    net
      (List.init k (fun _ ->
         (Random.State.float rng hx, Random.State.float rng hy)))
  done;
  let d = Netlist.Builder.freeze b in
  let pin_weight = 0.3 in
  let rudy = Route.Rudy.create ~bins:8 ~pin_weight d in
  let n = Route.Rudy.bins rudy in
  Alcotest.(check int) "grid side" 8 n;
  let bw = (hx -. lx) /. float_of_int n and bh = (hy -. ly) /. float_of_int n in
  let reference = Array.make (n * n) 0.0 in
  let clamp v = max 0 (min (n - 1) v) in
  List.iter
    (fun pts ->
      List.iter
        (fun (x, y) ->
          let bx = clamp (int_of_float (Float.floor ((x -. lx) /. bw))) in
          let by = clamp (int_of_float (Float.floor ((y -. ly) /. bh))) in
          reference.((bx * n) + by) <- reference.((bx * n) + by) +. pin_weight)
        pts;
      if List.length pts >= 2 then begin
        let xs = List.map fst pts and ys = List.map snd pts in
        let lo l = List.fold_left Float.min infinity l in
        let hi l = List.fold_left Float.max neg_infinity l in
        let w = Float.max (hi xs -. lo xs) bw in
        let h = Float.max (hi ys -. lo ys) bh in
        let inside c half lo hi = Float.min (hi -. half) (Float.max (lo +. half) c) in
        let cx = inside (0.5 *. (lo xs +. hi xs)) (0.5 *. w) lx hx in
        let cy = inside (0.5 *. (lo ys +. hi ys)) (0.5 *. h) ly hy in
        let per_area = w *. h /. (w +. h) /. (w *. h) in
        for bx = 0 to n - 1 do
          for by = 0 to n - 1 do
            let overlap c half b0 bs =
              Float.max 0.0
                (Float.min (c +. half) (b0 +. bs) -. Float.max (c -. half) b0)
            in
            let ox = overlap cx (0.5 *. w) (lx +. (float_of_int bx *. bw)) bw in
            let oy = overlap cy (0.5 *. h) (ly +. (float_of_int by *. bh)) bh in
            reference.((bx * n) + by) <-
              reference.((bx * n) + by) +. (per_area *. ox *. oy)
          done
        done
      end)
    !nets;
  let check label =
    let dem = Route.Rudy.demand rudy in
    Array.iteri
      (fun k r ->
        if Float.abs (dem.(k) -. r) > 1e-9 *. Float.max 1.0 r then
          Alcotest.failf "%s: bin %d demand %.12g, reference %.12g" label k
            dem.(k) r)
      reference
  in
  Alcotest.(check bool) "corner pins land in the top-right bin" true
    (reference.((n * n) - 1) >= 2.0 *. pin_weight);
  (* without pin terms the map holds every net's full demand *)
  let expected_total =
    List.fold_left
      (fun acc pts ->
        if List.length pts < 2 then acc
        else begin
          let xs = List.map fst pts and ys = List.map snd pts in
          let span l =
            List.fold_left Float.max neg_infinity l
            -. List.fold_left Float.min infinity l
          in
          let w = Float.max (span xs) bw and h = Float.max (span ys) bh in
          acc +. (w *. h /. (w +. h))
        end)
      0.0 !nets
  in
  let wires = Route.Rudy.create ~bins:8 ~pin_weight:0.0 d in
  Route.Rudy.update wires;
  let total = Array.fold_left ( +. ) 0.0 (Route.Rudy.demand wires) in
  if Float.abs (total -. expected_total) > 1e-9 *. expected_total then
    Alcotest.failf "total demand %.12g, expected %.12g" total expected_total;
  Route.Rudy.update rudy;
  check "sequential";
  Test_parallel.with_pool (fun pool ->
    Route.Rudy.update ~pool rudy;
    check "pooled")

let test_rudy_bit_identity_across_domains () =
  let design, _ = hotspot_design () in
  let rudy = Route.Rudy.create design in
  Route.Rudy.update rudy;
  let seq = bits (Array.copy (Route.Rudy.demand rudy)) in
  let seq_util = bits (Array.copy (Route.Rudy.utilization rudy)) in
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
        Route.Rudy.update ~pool rudy;
        Alcotest.(check bool)
          (Printf.sprintf "demand bits equal at %d domains" domains)
          true
          (bits (Route.Rudy.demand rudy) = seq);
        Alcotest.(check bool)
          (Printf.sprintf "utilization bits equal at %d domains" domains)
          true
          (bits (Route.Rudy.utilization rudy) = seq_util)))
    [ 1; 4 ]

let test_overflow_summary () =
  let design, _ = hotspot_design ~cells:400 () in
  (* pile everything in one corner: utilization must spike there *)
  Array.iter
    (fun (c : Netlist.cell) ->
      if not c.Netlist.fixed then begin
        c.Netlist.x <- 4.0;
        c.Netlist.y <- 4.0
      end)
    design.Netlist.cells;
  let rudy = Route.Rudy.create design in
  Route.Rudy.update rudy;
  let s = Route.overflow rudy in
  Alcotest.(check bool) "piled design congests" true (s.Route.ov_peak > 1.0);
  Alcotest.(check bool) "rc <= peak" true (s.Route.ov_rc <= s.Route.ov_peak);
  Alcotest.(check bool) "congested bins counted" true (s.Route.ov_congested > 0);
  Alcotest.(check bool) "total overflow positive" true (s.Route.ov_total > 0.0);
  (* a 100% percentile averages every bin, so it cannot exceed the rc of
     the default top slice *)
  let s_all = Route.overflow ~percentile:1.0 rudy in
  Alcotest.(check bool) "wider percentile dilutes rc" true
    (s_all.Route.ov_rc <= s.Route.ov_rc)

(* ---- inflation ---- *)

let test_inflate_deterministic_and_bounded () =
  let run () =
    let design, _ = hotspot_design ~cells:400 () in
    Array.iter
      (fun (c : Netlist.cell) ->
        if not c.Netlist.fixed then begin
          c.Netlist.x <- 4.0;
          c.Netlist.y <- 4.0
        end)
      design.Netlist.cells;
    let rudy = Route.Rudy.create design in
    Route.Rudy.update rudy;
    let cfg = { Route.default_config with Route.rt_max_rounds = 3 } in
    let infl = Route.Inflate.create design in
    let counts =
      List.init 6 (fun _ ->
        let c = Route.Inflate.step cfg infl rudy in
        Route.Rudy.update rudy;
        c)
    in
    (counts, bits (Array.map (fun (c : Netlist.cell) -> c.Netlist.width)
                     design.Netlist.cells))
  in
  let counts, widths = run () in
  (* the piled design congests, so the first round inflates something *)
  Alcotest.(check bool) "first round inflates" true (List.hd counts > 0);
  (* bounded: rounds beyond rt_max_rounds are hard no-ops *)
  List.iteri
    (fun i c ->
      if i >= 3 then
        Alcotest.(check int) (Printf.sprintf "round %d is a no-op" i) 0 c)
    counts;
  (* deterministic: a second identical run reproduces counts and the
     exact inflated widths *)
  let counts2, widths2 = run () in
  Alcotest.(check (list int)) "counts reproduce" counts counts2;
  Alcotest.(check bool) "inflated widths reproduce" true (widths = widths2)

let test_deflate_deterministic () =
  (* inflate a piled design, spread it so every bin falls back below
     target, then deflate: congestion relief must shed inflation excess
     and two identical runs must produce bit-identical widths *)
  let run () =
    let design, _ = hotspot_design ~cells:400 () in
    Array.iter
      (fun (c : Netlist.cell) ->
        if not c.Netlist.fixed then begin
          c.Netlist.x <- 4.0;
          c.Netlist.y <- 4.0
        end)
      design.Netlist.cells;
    let rudy = Route.Rudy.create design in
    Route.Rudy.update rudy;
    let cfg = { Route.default_config with Route.rt_max_rounds = 3 } in
    let infl = Route.Inflate.create design in
    let inflated = Route.Inflate.step cfg infl rudy in
    (* spread the design: demand per bin collapses below target *)
    let region = design.Netlist.region in
    Array.iteri
      (fun i (c : Netlist.cell) ->
        if not c.Netlist.fixed then begin
          c.Netlist.x <-
            region.Geometry.Rect.lx
            +. (float_of_int ((i * 37) mod 331) /. 331.0)
               *. Geometry.Rect.width region;
          c.Netlist.y <-
            region.Geometry.Rect.ly
            +. (float_of_int ((i * 61) mod 293) /. 293.0)
               *. Geometry.Rect.height region
        end)
      design.Netlist.cells;
    Route.Rudy.update rudy;
    let deflated = Route.Inflate.deflate cfg infl rudy in
    ( inflated, deflated,
      bits (Array.map (fun (c : Netlist.cell) -> c.Netlist.width)
              design.Netlist.cells) )
  in
  let inflated, deflated, widths = run () in
  Alcotest.(check bool) "inflation happened" true (inflated > 0);
  Alcotest.(check bool) "deflation sheds some excess" true (deflated > 0);
  let inflated2, deflated2, widths2 = run () in
  Alcotest.(check int) "inflation count reproduces" inflated inflated2;
  Alcotest.(check int) "deflation count reproduces" deflated deflated2;
  Alcotest.(check bool) "deflated widths bit-identical" true
    (widths = widths2)

let test_inflate_respects_area_cap () =
  let design, _ = hotspot_design ~cells:400 () in
  Array.iter
    (fun (c : Netlist.cell) ->
      if not c.Netlist.fixed then begin
        c.Netlist.x <- 4.0;
        c.Netlist.y <- 4.0
      end)
    design.Netlist.cells;
  let orig =
    Array.map
      (fun (c : Netlist.cell) -> c.Netlist.width *. c.Netlist.height)
      design.Netlist.cells
  in
  let rudy = Route.Rudy.create design in
  Route.Rudy.update rudy;
  let cfg =
    { Route.default_config with Route.rt_max_rounds = 8; rt_max_ratio = 2.5 }
  in
  let infl = Route.Inflate.create design in
  for _ = 1 to 8 do
    ignore (Route.Inflate.step cfg infl rudy);
    Route.Rudy.update rudy
  done;
  Array.iteri
    (fun i (c : Netlist.cell) ->
      let ratio = c.Netlist.width *. c.Netlist.height /. orig.(i) in
      if ratio > 2.5 +. 1e-9 then
        Alcotest.failf "cell %d inflated %.3fx past the cap" i ratio)
    design.Netlist.cells;
  (* restore is exact *)
  Route.Inflate.restore infl;
  Array.iteri
    (fun i (c : Netlist.cell) ->
      if c.Netlist.width *. c.Netlist.height <> orig.(i) then
        Alcotest.failf "cell %d not restored" i)
    design.Netlist.cells

(* ---- Core integration ---- *)

let routability_config =
  { Core.default_config with
    Core.max_iterations = 140; min_iterations = 40; stop_overflow = 0.15;
    routability = Some Route.default_config }

let test_core_restores_areas () =
  let design, cons = hotspot_design ~cells:400 () in
  let graph = Sta.Graph.build design lib cons in
  let sizes =
    Array.map
      (fun (c : Netlist.cell) -> (c.Netlist.width, c.Netlist.height))
      design.Netlist.cells
  in
  let result = Core.run routability_config graph in
  Alcotest.(check bool) "routability summary present" true
    (result.Core.res_route <> None);
  Array.iteri
    (fun i (c : Netlist.cell) ->
      let w0, h0 = sizes.(i) in
      if c.Netlist.width <> w0 || c.Netlist.height <> h0 then
        Alcotest.failf "cell %d size not restored after Core.run" i)
    design.Netlist.cells

let test_core_zero_overflow_bit_identical () =
  (* with a huge capacity nothing ever congests, so routability mode must
     leave every position bit-identical to a routability-off run *)
  let run routability =
    let design, cons = hotspot_design ~cells:400 () in
    let graph = Sta.Graph.build design lib cons in
    let cfg = { routability_config with Core.routability } in
    let result = Core.run cfg graph in
    let xs, ys = Netlist.copy_positions design in
    (result, bits xs, bits ys)
  in
  let r_off, xs_off, ys_off = run None in
  let r_on, xs_on, ys_on =
    run (Some { Route.default_config with Route.rt_capacity = 1e12 })
  in
  Alcotest.(check bool) "x positions bit-identical" true (xs_on = xs_off);
  Alcotest.(check bool) "y positions bit-identical" true (ys_on = ys_off);
  Alcotest.(check int) "no inflation rounds" 0 r_on.Core.res_inflation_rounds;
  Alcotest.(check bool) "same hpwl" true
    (Int64.bits_of_float r_on.Core.res_hpwl
     = Int64.bits_of_float r_off.Core.res_hpwl);
  Alcotest.(check bool) "off-run has no summary" true
    (r_off.Core.res_route = None)

let test_core_run_deterministic_across_domains () =
  let run domains =
    let design, cons = hotspot_design ~cells:400 () in
    let graph = Sta.Graph.build design lib cons in
    let f pool = Core.run ?pool routability_config graph in
    let _ =
      match domains with
      | 1 -> f None
      | d -> with_pool d (fun pool -> f (Some pool))
    in
    let xs, ys = Netlist.copy_positions design in
    (bits xs, bits ys)
  in
  let xs1, ys1 = run 1 in
  let xs4, ys4 = run 4 in
  Alcotest.(check bool) "x bit-identical across domains" true (xs1 = xs4);
  Alcotest.(check bool) "y bit-identical across domains" true (ys1 = ys4)

(* The inflation loop on a congestion hotspot, off vs on at an equal
   400-iteration budget (min = max disables the early stop).  Capacity
   is calibrated so only the hotspot bins sit above the inflation
   target; with the default 1.0 the whole map reads as congested and
   inflation degenerates to uniform spreading.  Both legalised
   placements are scored on a fresh RUDY map at the default knobs. *)
let test_inflation_relieves_hotspot () =
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 400; sp_seed = 17; sp_inputs = 16;
      sp_outputs = 16; sp_depth = 10; sp_clock_period = 520.0;
      sp_hotspot = 0.15; sp_hotspot_clusters = 1 }
  in
  let route_cfg =
    { Route.default_config with
      Route.rt_capacity = 2.4; rt_check_overflow = 0.30;
      rt_check_period = 10; rt_inflation_coef = 1.5; rt_max_ratio = 6.0;
      rt_max_rounds = 16 }
  in
  let run routability =
    let design, cons = Workload.generate lib spec in
    let graph = Sta.Graph.build design lib cons in
    let config =
      { Core.default_config with
        Core.mode = Core.Wirelength_only;
        max_iterations = 400; min_iterations = 400;
        routability = (if routability then Some route_cfg else None) }
    in
    let result = Core.run config graph in
    ignore (Legalize.legalize design);
    let rudy = Route.Rudy.create design in
    Route.Rudy.update rudy;
    (* peak overflow: peak utilization in excess of capacity *)
    let excess = Float.max 0.0 ((Route.overflow rudy).Route.ov_peak -. 1.0) in
    (result.Core.res_inflation_rounds, excess, Netlist.total_hpwl design)
  in
  let rounds_off, excess_off, hpwl_off = run false in
  let rounds_on, excess_on, hpwl_on = run true in
  Alcotest.(check int) "off run never inflates" 0 rounds_off;
  Alcotest.(check bool) "on run inflates" true (rounds_on > 0);
  if not (excess_on < excess_off) then
    Alcotest.failf "peak overflow not reduced: %.4f -> %.4f" excess_off
      excess_on;
  if hpwl_on > 1.10 *. hpwl_off then
    Alcotest.failf "HPWL %+.1f%% exceeds +10%%"
      (100.0 *. (hpwl_on -. hpwl_off) /. hpwl_off)

let test_hotspot_workload_generates () =
  (* the hotspot knob must still produce a valid design, and hotspot = 0
     must not perturb the RNG stream of existing workloads *)
  let d_hot, _ = hotspot_design ~cells:400 ~hotspot:0.4 () in
  let stats = Netlist.Stats.compute d_hot in
  Alcotest.(check bool) "movable cells present" true (stats.Netlist.Stats.movable > 300);
  Alcotest.(check bool) "nets present" true (stats.Netlist.Stats.nets > 0);
  let d_base, _ = hotspot_design ~cells:400 ~hotspot:0.0 () in
  let spec =
    { Workload.default_spec with
      Workload.sp_cells = 400; sp_seed = 7; sp_clock_period = 800.0 }
  in
  let d_ref, _ = Workload.generate lib spec in
  let key d =
    (Netlist.num_nets d, Netlist.num_pins d, Netlist.total_hpwl d)
  in
  Alcotest.(check bool) "hotspot=0 identical to spec without the knob" true
    (key d_base = key d_ref);
  (* clustered wiring changes the netlist *)
  Alcotest.(check bool) "hotspot>0 changes wiring" true
    (key d_hot <> key d_base)

let suite =
  [ Alcotest.test_case "rudy single net" `Quick test_rudy_single_net;
    Alcotest.test_case "rudy flat net counts" `Quick test_rudy_flat_net_counts;
    Alcotest.test_case "rudy matches a per-bin reference" `Quick
      test_rudy_matches_reference;
    Alcotest.test_case "rudy bit-identity across domains" `Quick
      test_rudy_bit_identity_across_domains;
    Alcotest.test_case "overflow summary" `Quick test_overflow_summary;
    Alcotest.test_case "inflation deterministic and bounded" `Quick
      test_inflate_deterministic_and_bounded;
    Alcotest.test_case "inflation respects area cap" `Quick
      test_inflate_respects_area_cap;
    Alcotest.test_case "deflation deterministic" `Quick
      test_deflate_deterministic;
    Alcotest.test_case "core restores areas" `Slow test_core_restores_areas;
    Alcotest.test_case "core zero-overflow bit-identity" `Slow
      test_core_zero_overflow_bit_identical;
    Alcotest.test_case "core deterministic across domains" `Slow
      test_core_run_deterministic_across_domains;
    Alcotest.test_case "inflation relieves a hotspot" `Slow
      test_inflation_relieves_hotspot;
    Alcotest.test_case "hotspot workload generates" `Quick
      test_hotspot_workload_generates ]
