(* Tests for the weighted-average smooth wirelength model. *)

let lib = Liberty.Synthetic.default ()

let sample_design seed =
  let spec =
    { Workload.default_spec with Workload.sp_cells = 120; sp_seed = seed }
  in
  let design, _ = Workload.generate lib spec in
  design

let test_wa_below_hpwl () =
  let design = sample_design 1 in
  let wl = Wirelength.create ~gamma:2.0 design in
  let n = Netlist.num_cells design in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let wa = Wirelength.evaluate wl ~weighted:false ~grad_x:gx ~grad_y:gy () in
  let hp = Netlist.total_hpwl design in
  Alcotest.(check bool) "wa <= hpwl" true (wa <= hp +. 1e-6);
  Alcotest.(check bool) "wa positive" true (wa > 0.0)

let test_wa_converges_to_hpwl () =
  let design = sample_design 2 in
  let wl = Wirelength.create ~gamma:0.01 design in
  let n = Netlist.num_cells design in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let wa = Wirelength.evaluate wl ~weighted:false ~grad_x:gx ~grad_y:gy () in
  let hp = Netlist.total_hpwl design in
  Alcotest.(check bool) "relative gap < 1%" true
    (Float.abs (wa -. hp) /. hp < 0.01)

let test_weight_scaling () =
  let design = sample_design 4 in
  let wl = Wirelength.create ~gamma:2.0 design in
  let n = Netlist.num_cells design in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let base = Wirelength.evaluate wl ~weighted:true ~grad_x:gx ~grad_y:gy () in
  Array.iter (fun (net : Netlist.net) -> net.Netlist.weight <- 2.0)
    design.Netlist.nets;
  Array.fill gx 0 n 0.0;
  Array.fill gy 0 n 0.0;
  let doubled = Wirelength.evaluate wl ~weighted:true ~grad_x:gx ~grad_y:gy () in
  Alcotest.(check (float 1e-6)) "doubling weights doubles WL" (2.0 *. base)
    doubled;
  Netlist.reset_weights design

let test_two_pin_gradient_signs () =
  (* a 2-pin net pulls its endpoints together *)
  let region = Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:50.0 ~hy:50.0 in
  let b = Netlist.Builder.create ~region "two" in
  let c0 = Netlist.Builder.add_cell b ~name:"a" ~lib_cell:0 ~width:1.0
      ~height:1.0 ~x:10.0 ~y:10.0 () in
  let c1 = Netlist.Builder.add_cell b ~name:"b" ~lib_cell:0 ~width:1.0
      ~height:1.0 ~x:30.0 ~y:40.0 () in
  let p0 = Netlist.Builder.add_pin b ~cell:c0 ~name:"a/Y"
      ~direction:Netlist.Output () in
  let p1 = Netlist.Builder.add_pin b ~cell:c1 ~name:"b/A"
      ~direction:Netlist.Input () in
  let _ = Netlist.Builder.add_net b ~name:"n" ~pins:[ p0; p1 ] in
  let design = Netlist.Builder.freeze b in
  let wl = Wirelength.create ~gamma:1.0 design in
  let gx = Array.make 2 0.0 and gy = Array.make 2 0.0 in
  let _ = Wirelength.evaluate wl ~grad_x:gx ~grad_y:gy () in
  Alcotest.(check bool) "left cell pulled right" true (gx.(0) < 0.0);
  Alcotest.(check bool) "right cell pulled left" true (gx.(1) > 0.0);
  Alcotest.(check bool) "bottom cell pulled up" true (gy.(0) < 0.0);
  Alcotest.(check bool) "top cell pulled down" true (gy.(1) > 0.0);
  (* translation invariance: gradients sum to ~0 per axis *)
  Alcotest.(check (float 1e-9)) "x grads balance" 0.0 (gx.(0) +. gx.(1));
  Alcotest.(check (float 1e-9)) "y grads balance" 0.0 (gy.(0) +. gy.(1))

let test_gradient_matches_fd () =
  let design = sample_design 5 in
  let wl = Wirelength.create ~gamma:3.0 design in
  let n = Netlist.num_cells design in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let value () =
    Array.fill gx 0 n 0.0;
    Array.fill gy 0 n 0.0;
    Wirelength.evaluate wl ~grad_x:gx ~grad_y:gy ()
  in
  let _ = value () in
  let agx = Array.copy gx and agy = Array.copy gy in
  let rng = Workload.Rng.create 31 in
  let h = 1e-5 in
  for _ = 1 to 20 do
    let c = design.Netlist.cells.(Workload.Rng.int rng n) in
    let x0 = c.Netlist.x in
    c.Netlist.x <- x0 +. h;
    let fp = value () in
    c.Netlist.x <- x0 -. h;
    let fm = value () in
    c.Netlist.x <- x0;
    let fd = (fp -. fm) /. (2.0 *. h) in
    if Float.abs (fd -. agx.(c.Netlist.cell_id)) > 1e-5 *. Float.max 1.0 (Float.abs fd)
    then Alcotest.failf "x gradient mismatch at %s" c.Netlist.cell_name;
    let y0 = c.Netlist.y in
    c.Netlist.y <- y0 +. h;
    let fp = value () in
    c.Netlist.y <- y0 -. h;
    let fm = value () in
    c.Netlist.y <- y0;
    let fd = (fp -. fm) /. (2.0 *. h) in
    if Float.abs (fd -. agy.(c.Netlist.cell_id)) > 1e-5 *. Float.max 1.0 (Float.abs fd)
    then Alcotest.failf "y gradient mismatch at %s" c.Netlist.cell_name
  done

let test_size_check () =
  let design = sample_design 6 in
  let wl = Wirelength.create design in
  match
    Wirelength.evaluate wl ~grad_x:(Array.make 2 0.0) ~grad_y:(Array.make 2 0.0) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected size check"

let with_pool domains f =
  let pool = Parallel.create ~domains () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)

let bits = Int64.bits_of_float

let test_pooled_bit_identity () =
  (* big enough that the net range really splits into several slices *)
  let spec =
    { Workload.default_spec with Workload.sp_cells = 2500; sp_seed = 21 }
  in
  let design, _ = Workload.generate lib spec in
  let rng = Workload.Rng.create 47 in
  Array.iter
    (fun (net : Netlist.net) ->
      net.Netlist.weight <- 1.0 +. Workload.Rng.float rng 3.0)
    design.Netlist.nets;
  let wl = Wirelength.create ~gamma:2.0 design in
  let n = Netlist.num_cells design in
  let gx1 = Array.make n 0.0 and gy1 = Array.make n 0.0 in
  let v1 = Wirelength.evaluate wl ~weighted:true ~grad_x:gx1 ~grad_y:gy1 () in
  let gx4 = Array.make n 0.0 and gy4 = Array.make n 0.0 in
  let v4 =
    with_pool 4 (fun pool ->
      Wirelength.evaluate wl ~pool ~weighted:true ~grad_x:gx4 ~grad_y:gy4 ())
  in
  Alcotest.(check bool) "value bit-identical" true (bits v1 = bits v4);
  for i = 0 to n - 1 do
    if bits gx1.(i) <> bits gx4.(i) || bits gy1.(i) <> bits gy4.(i) then
      Alcotest.failf "gradient differs at cell %d" i
  done;
  Netlist.reset_weights design

let test_weighted_gradient_matches_fd_pooled () =
  let spec =
    { Workload.default_spec with Workload.sp_cells = 1500; sp_seed = 22 }
  in
  let design, _ = Workload.generate lib spec in
  let rng = Workload.Rng.create 53 in
  Array.iter
    (fun (net : Netlist.net) ->
      net.Netlist.weight <- 0.5 +. Workload.Rng.float rng 4.0)
    design.Netlist.nets;
  let wl = Wirelength.create ~gamma:3.0 design in
  let n = Netlist.num_cells design in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  with_pool 3 (fun pool ->
    let value () =
      Array.fill gx 0 n 0.0;
      Array.fill gy 0 n 0.0;
      Wirelength.evaluate wl ~pool ~weighted:true ~grad_x:gx ~grad_y:gy ()
    in
    let _ = value () in
    let agx = Array.copy gx in
    let h = 1e-5 in
    for _ = 1 to 12 do
      let c = design.Netlist.cells.(Workload.Rng.int rng n) in
      let x0 = c.Netlist.x in
      c.Netlist.x <- x0 +. h;
      let fp = value () in
      c.Netlist.x <- x0 -. h;
      let fm = value () in
      c.Netlist.x <- x0;
      let fd = (fp -. fm) /. (2.0 *. h) in
      if Float.abs (fd -. agx.(c.Netlist.cell_id))
         > 1e-4 *. Float.max 1.0 (Float.abs fd)
      then Alcotest.failf "pooled weighted x gradient mismatch at %s"
          c.Netlist.cell_name
    done);
  Netlist.reset_weights design

(* One net over [pins], given as (cell x, cell y, offset x, offset y):
   each pin sits on its own cell.  A design of one net sums one span. *)
let one_net pins =
  let region = Geometry.Rect.make ~lx:(-200.0) ~ly:(-200.0) ~hx:200.0 ~hy:200.0 in
  let b = Netlist.Builder.create ~region "span" in
  let ids =
    List.mapi
      (fun k (x, y, ox, oy) ->
        let c =
          Netlist.Builder.add_cell b ~name:(Printf.sprintf "c%d" k)
            ~lib_cell:0 ~width:1.0 ~height:1.0 ~x ~y ()
        in
        Netlist.Builder.add_pin b ~cell:c ~name:(Printf.sprintf "c%d/A" k)
          ~direction:(if k = 0 then Netlist.Output else Netlist.Input)
          ~offset_x:ox ~offset_y:oy ())
      pins
  in
  let _ = Netlist.Builder.add_net b ~name:"n" ~pins:ids in
  Netlist.Builder.freeze b

let span_of design =
  let wl = Wirelength.create ~gamma:2.0 design in
  let n = Netlist.num_cells design in
  ignore
    (Wirelength.evaluate wl ~grad_x:(Array.make n 0.0)
       ~grad_y:(Array.make n 0.0) ());
  Wirelength.last_hpwl wl

let test_span_matches_net_hpwl () =
  (* The WA pass finds each net's extent with [<]/[>] from +-infinity;
     [Netlist.net_hpwl] folds with [Float.min]/[Float.max] from the first
     pin.  The spans must agree bit for bit: random nets (with repeated
     coordinates), a single-pin net, and pins at x = -0.0 and +0.0 in
     both orders. *)
  let check label design =
    let span = span_of design and hp = Netlist.net_hpwl design 0 in
    if bits span <> bits hp then
      Alcotest.failf "%s: span %h, net_hpwl %h" label span hp
  in
  let rng = Workload.Rng.create 61 in
  let coord () =
    if Workload.Rng.bool rng 0.2 then 5.0
    else Workload.Rng.float rng 300.0 -. 150.0
  in
  let offset () = Workload.Rng.float rng 2.0 -. 1.0 in
  for t = 1 to 300 do
    let k = 1 + Workload.Rng.int rng 12 in
    check (Printf.sprintf "random net %d" t)
      (one_net
         (List.init k (fun _ -> (coord (), coord (), offset (), offset ()))))
  done;
  check "single pin" (one_net [ (17.25, -3.5, 0.5, 0.5) ]);
  (* -0.0 +. -0.0 is -0.0, so a pin on a cell at -0.0 with offset -0.0
     sits at -0.0 *)
  let neg = (-0.0, -0.0, -0.0, -0.0) and pos = (0.0, 0.0, 0.0, 0.0) in
  List.iter
    (fun (label, pins) ->
      let design = one_net pins in
      check label design;
      Alcotest.(check string) (label ^ ": +0") "0x0p+0"
        (Printf.sprintf "%h" (span_of design)))
    [ ("-0 then +0", [ neg; pos ]); ("+0 then -0", [ pos; neg ]);
      ("-0 only", [ neg; neg; neg ]) ];
  check "signed zeros among others" (one_net [ neg; (3.0, -2.0, 0.0, 0.0); pos ])

let test_last_hpwl_matches_total () =
  (* the span sum is [Netlist.total_hpwl] bit for bit on a design big
     enough to split into slices, sequential and pooled *)
  let spec =
    { Workload.default_spec with Workload.sp_cells = 2500; sp_seed = 23 }
  in
  let design, _ = Workload.generate lib spec in
  let wl = Wirelength.create ~gamma:2.0 design in
  let n = Netlist.num_cells design in
  let total = Netlist.total_hpwl design in
  let eval ?pool () =
    ignore
      (Wirelength.evaluate wl ?pool ~grad_x:(Array.make n 0.0)
         ~grad_y:(Array.make n 0.0) ());
    Printf.sprintf "%h" (Wirelength.last_hpwl wl)
  in
  Alcotest.(check string) "sequential" (Printf.sprintf "%h" total) (eval ());
  Alcotest.(check string) "pooled" (Printf.sprintf "%h" total)
    (with_pool 4 (fun pool -> eval ~pool ()))

let suite =
  [ Alcotest.test_case "wa below hpwl" `Quick test_wa_below_hpwl;
    Alcotest.test_case "wa converges to hpwl" `Quick test_wa_converges_to_hpwl;
    Alcotest.test_case "weight scaling" `Quick test_weight_scaling;
    Alcotest.test_case "two-pin gradient signs" `Quick test_two_pin_gradient_signs;
    Alcotest.test_case "gradient matches fd" `Quick test_gradient_matches_fd;
    Alcotest.test_case "size check" `Quick test_size_check;
    Alcotest.test_case "pooled bit identity" `Quick test_pooled_bit_identity;
    Alcotest.test_case "weighted fd under pool" `Quick
      test_weighted_gradient_matches_fd_pooled;
    Alcotest.test_case "wirelength span = net_hpwl" `Quick
      test_span_matches_net_hpwl;
    Alcotest.test_case "span sum = total_hpwl" `Quick
      test_last_hpwl_matches_total ]
