(* Tests for the electrostatic density system. *)

let region = Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:64.0 ~hy:64.0

(* [n] unit cells; positions set by the caller *)
let design_with_cells n =
  let b = Netlist.Builder.create ~region ~row_height:1.0 "dens" in
  for i = 0 to n - 1 do
    ignore
      (Netlist.Builder.add_cell b
         ~name:(Printf.sprintf "c%d" i)
         ~lib_cell:0 ~width:2.0 ~height:2.0 ~x:32.0 ~y:32.0 ())
  done;
  Netlist.Builder.freeze b

let spread design rng =
  Array.iter
    (fun (c : Netlist.cell) ->
      c.Netlist.x <- 2.0 +. Workload.Rng.float rng 60.0;
      c.Netlist.y <- 2.0 +. Workload.Rng.float rng 60.0)
    design.Netlist.cells

let test_bins_sizing () =
  let d = design_with_cells 100 in
  let dens = Density.create d in
  let b = Density.bins dens in
  Alcotest.(check bool) "power of two" true (b land (b - 1) = 0);
  let dens2 = Density.create ~bins:50 d in
  Alcotest.(check bool) "rounded override" true
    (Density.bins dens2 = 32 || Density.bins dens2 = 64)

let test_overflow_extremes () =
  let d = design_with_cells 200 in
  let dens = Density.create d in
  (* everything piled at the center: massive overflow *)
  Density.update dens;
  let crowded = Density.overflow dens in
  Alcotest.(check bool) "crowded overflow" true (crowded > 0.5);
  (* spread evenly on a grid: nearly no overflow *)
  Array.iteri
    (fun i (c : Netlist.cell) ->
      c.Netlist.x <- 2.0 +. (4.0 *. float_of_int (i mod 15));
      c.Netlist.y <- 2.0 +. (4.0 *. float_of_int (i / 15)))
    d.Netlist.cells;
  Density.update dens;
  let relaxed = Density.overflow dens in
  Alcotest.(check bool) "relaxed overflow" true (relaxed < 0.05);
  Alcotest.(check bool) "ordering" true (relaxed < crowded)

let test_penalty_decreases_when_spreading () =
  let d = design_with_cells 200 in
  let dens = Density.create d in
  Density.update dens;
  let crowded = Density.penalty dens in
  let rng = Workload.Rng.create 17 in
  spread d rng;
  Density.update dens;
  let relaxed = Density.penalty dens in
  Alcotest.(check bool) "penalty drops" true (relaxed < crowded)

let test_gradient_pushes_apart () =
  (* one clump at the left: gradient should push cells right (descending
     the energy moves them away from the clump, i.e. negative gradient
     where moving right decreases energy) *)
  let d = design_with_cells 100 in
  Array.iter
    (fun (c : Netlist.cell) ->
      c.Netlist.x <- 10.0;
      c.Netlist.y <- 32.0)
    d.Netlist.cells;
  let dens = Density.create d in
  Density.update dens;
  let n = Netlist.num_cells d in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  Density.gradient dens ~scale:1.0 ~grad_x:gx ~grad_y:gy;
  (* move a probe cell slightly right of the clump: its x-gradient must
     be negative (energy decreases rightward) *)
  d.Netlist.cells.(0).Netlist.x <- 14.0;
  Density.update dens;
  Array.fill gx 0 n 0.0;
  Array.fill gy 0 n 0.0;
  Density.gradient dens ~scale:1.0 ~grad_x:gx ~grad_y:gy;
  Alcotest.(check bool) "pushed away from clump" true (gx.(0) < 0.0)

let test_gradient_scale_linear () =
  let d = design_with_cells 50 in
  let rng = Workload.Rng.create 23 in
  spread d rng;
  let dens = Density.create d in
  Density.update dens;
  let n = Netlist.num_cells d in
  let g1 = Array.make n 0.0 and g1y = Array.make n 0.0 in
  Density.gradient dens ~scale:1.0 ~grad_x:g1 ~grad_y:g1y;
  let g2 = Array.make n 0.0 and g2y = Array.make n 0.0 in
  Density.gradient dens ~scale:2.5 ~grad_x:g2 ~grad_y:g2y;
  Array.iteri
    (fun i v ->
      if Float.abs ((2.5 *. g1.(i)) -. v) > 1e-9 *. Float.max 1.0 (Float.abs v)
      then Alcotest.fail "scale not linear")
    g2

let test_fixed_cells_reduce_capacity () =
  (* fill a corner with a fixed macro; movable cells there overflow *)
  let b = Netlist.Builder.create ~region ~row_height:1.0 "fixed" in
  let _ =
    Netlist.Builder.add_cell b ~name:"macro" ~lib_cell:(-1) ~width:30.0
      ~height:30.0 ~x:16.0 ~y:16.0 ~fixed:true ()
  in
  for i = 0 to 19 do
    ignore
      (Netlist.Builder.add_cell b
         ~name:(Printf.sprintf "m%d" i)
         ~lib_cell:0 ~width:2.0 ~height:2.0 ~x:16.0 ~y:16.0 ())
  done;
  let d = Netlist.Builder.freeze b in
  let dens = Density.create d in
  Density.update dens;
  let over_macro = Density.overflow dens in
  (* same cells in the free corner *)
  Array.iter
    (fun (c : Netlist.cell) ->
      if not c.Netlist.fixed then begin
        c.Netlist.x <- 48.0 +. (float_of_int c.Netlist.cell_id *. 0.1);
        c.Netlist.y <- 48.0
      end)
    d.Netlist.cells;
  Density.update dens;
  let over_free = Density.overflow dens in
  Alcotest.(check bool) "macro area counts against capacity" true
    (over_macro > over_free)

let test_gradient_zero_when_uniform () =
  (* perfectly uniform density has (numerically) tiny field *)
  let b = Netlist.Builder.create ~region ~row_height:1.0 "uniform" in
  for i = 0 to 15 do
    for j = 0 to 15 do
      ignore
        (Netlist.Builder.add_cell b
           ~name:(Printf.sprintf "u%d_%d" i j)
           ~lib_cell:0 ~width:4.0 ~height:4.0
           ~x:(2.0 +. (4.0 *. float_of_int i))
           ~y:(2.0 +. (4.0 *. float_of_int j))
           ())
    done
  done;
  let d = Netlist.Builder.freeze b in
  let dens = Density.create ~bins:16 d in
  Density.update dens;
  let n = Netlist.num_cells d in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  Density.gradient dens ~scale:1.0 ~grad_x:gx ~grad_y:gy;
  let max_g = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 gx in
  Alcotest.(check bool) "negligible field" true (max_g < 1e-6)

let with_pool domains f =
  let pool = Parallel.create ~domains () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)

let bits = Int64.bits_of_float

let test_pooled_bit_identity () =
  let d = design_with_cells 300 in
  let rng = Workload.Rng.create 29 in
  spread d rng;
  let n = Netlist.num_cells d in
  let dens1 = Density.create ~bins:32 d in
  Density.update dens1;
  let gx1 = Array.make n 0.0 and gy1 = Array.make n 0.0 in
  Density.gradient dens1 ~scale:1.3 ~grad_x:gx1 ~grad_y:gy1;
  let dens4 = Density.create ~bins:32 d in
  let gx4 = Array.make n 0.0 and gy4 = Array.make n 0.0 in
  with_pool 4 (fun pool ->
    Density.update ~pool dens4;
    Density.gradient ~pool dens4 ~scale:1.3 ~grad_x:gx4 ~grad_y:gy4);
  Alcotest.(check bool) "overflow bit-identical" true
    (bits (Density.overflow dens1) = bits (Density.overflow dens4));
  Alcotest.(check bool) "penalty bit-identical" true
    (bits (Density.penalty dens1) = bits (Density.penalty dens4));
  for i = 0 to n - 1 do
    if bits gx1.(i) <> bits gx4.(i) || bits gy1.(i) <> bits gy4.(i) then
      Alcotest.failf "pooled gradient differs at cell %d" i
  done

(* psi is synthesised on the first penalty read after an update: a
   second read returns the same bits, and after the cells move the next
   read reflects the new placement exactly as a fresh system does. *)
let test_penalty_never_stale () =
  let d = design_with_cells 200 in
  let rng = Workload.Rng.create 41 in
  spread d rng;
  let dens = Density.create ~bins:32 d in
  Density.update dens;
  let first = Density.penalty dens in
  Alcotest.(check bool) "repeated read bit-identical" true
    (bits first = bits (Density.penalty dens));
  spread d rng;
  Density.update dens;
  let moved = Density.penalty dens in
  let fresh = Density.create ~bins:32 d in
  Density.update fresh;
  Alcotest.(check bool) "placement moved the energy" true
    (bits moved <> bits first);
  Alcotest.(check bool) "after update = fresh system" true
    (bits moved = bits (Density.penalty fresh))

let test_gradient_matches_fd_pooled () =
  (* the analytic gradient interpolates the spectral field, so it agrees
     with finite differences of the potential energy only up to the
     bilinear-interpolation error: compare loosely but on every probe *)
  let d = design_with_cells 200 in
  let rng = Workload.Rng.create 37 in
  spread d rng;
  let n = Netlist.num_cells d in
  let dens = Density.create ~bins:32 d in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  with_pool 4 (fun pool ->
    let energy () =
      Density.update ~pool dens;
      Density.penalty dens
    in
    ignore (energy ());
    Array.fill gx 0 n 0.0;
    Array.fill gy 0 n 0.0;
    Density.gradient ~pool dens ~scale:1.0 ~grad_x:gx ~grad_y:gy;
    let h = 0.05 in
    let dot = ref 0.0 and nfd = ref 0.0 and na = ref 0.0 in
    let checked = ref 0 in
    for _ = 1 to 25 do
      let c = d.Netlist.cells.(Workload.Rng.int rng n) in
      let x0 = c.Netlist.x in
      c.Netlist.x <- x0 +. h;
      let fp = energy () in
      c.Netlist.x <- x0 -. h;
      let fm = energy () in
      c.Netlist.x <- x0;
      ignore (energy ());
      let fd = (fp -. fm) /. (2.0 *. h) in
      let a = gx.(c.Netlist.cell_id) in
      if Float.abs fd > 1e-3 then begin
        incr checked;
        dot := !dot +. (fd *. a);
        nfd := !nfd +. (fd *. fd);
        na := !na +. (a *. a)
      end
    done;
    Alcotest.(check bool) "checked some probes" true (!checked > 5);
    let cosine = !dot /. Float.max 1e-30 (sqrt (!nfd *. !na)) in
    Alcotest.(check bool)
      (Printf.sprintf "gradient aligned with FD (cosine %.3f)" cosine)
      true (cosine > 0.8);
    let ratio = sqrt (!na /. Float.max 1e-30 !nfd) in
    Alcotest.(check bool)
      (Printf.sprintf "gradient magnitude near FD (ratio %.3f)" ratio)
      true (ratio > 0.5 && ratio < 2.0))

let suite =
  [ Alcotest.test_case "bins sizing" `Quick test_bins_sizing;
    Alcotest.test_case "overflow extremes" `Quick test_overflow_extremes;
    Alcotest.test_case "penalty decreases when spreading" `Quick
      test_penalty_decreases_when_spreading;
    Alcotest.test_case "gradient pushes away from clumps" `Quick
      test_gradient_pushes_apart;
    Alcotest.test_case "gradient linear in scale" `Quick test_gradient_scale_linear;
    Alcotest.test_case "fixed cells reduce capacity" `Quick
      test_fixed_cells_reduce_capacity;
    Alcotest.test_case "uniform density has no field" `Quick
      test_gradient_zero_when_uniform;
    Alcotest.test_case "pooled bit identity" `Quick test_pooled_bit_identity;
    Alcotest.test_case "lazy penalty never stale" `Quick
      test_penalty_never_stale;
    Alcotest.test_case "gradient matches fd under pool" `Quick
      test_gradient_matches_fd_pooled ]
