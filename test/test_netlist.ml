(* Tests for the netlist data model and its validating builder. *)

let region = Geometry.Rect.make ~lx:0.0 ~ly:0.0 ~hx:50.0 ~hy:50.0

(* A small hand-built design: two cells and a pad wired in a chain. *)
let build_sample () =
  let b = Netlist.Builder.create ~region ~row_height:2.0 "sample" in
  let pad = Netlist.Builder.add_cell b ~name:"pi0" ~lib_cell:(-1) ~width:2.0
      ~height:2.0 ~x:0.0 ~y:25.0 ~fixed:true () in
  let pad_pin =
    Netlist.Builder.add_pin b ~cell:pad ~name:"pi0/P"
      ~direction:Netlist.Output ()
  in
  let u0 = Netlist.Builder.add_cell b ~name:"u0" ~lib_cell:0 ~width:1.0
      ~height:2.0 ~x:10.0 ~y:10.0 () in
  let u0_a =
    Netlist.Builder.add_pin b ~cell:u0 ~name:"u0/A" ~direction:Netlist.Input
      ~offset_x:(-0.3) ~offset_y:0.1 ~lib_pin:0 ()
  in
  let u0_y =
    Netlist.Builder.add_pin b ~cell:u0 ~name:"u0/Y" ~direction:Netlist.Output
      ~offset_x:0.3 ~lib_pin:1 ()
  in
  let u1 = Netlist.Builder.add_cell b ~name:"u1" ~lib_cell:0 ~width:1.0
      ~height:2.0 ~x:20.0 ~y:30.0 () in
  let u1_a =
    Netlist.Builder.add_pin b ~cell:u1 ~name:"u1/A" ~direction:Netlist.Input
      ~lib_pin:0 ()
  in
  let _ =
    Netlist.Builder.add_net b ~name:"n0" ~pins:[ u0_a; pad_pin ]
  in
  let _ = Netlist.Builder.add_net b ~name:"n1" ~pins:[ u1_a; u0_y ] in
  Netlist.Builder.freeze b

let test_freeze_shape () =
  let d = build_sample () in
  Alcotest.(check int) "cells" 3 (Netlist.num_cells d);
  Alcotest.(check int) "pins" 4 (Netlist.num_pins d);
  Alcotest.(check int) "nets" 2 (Netlist.num_nets d);
  (* driver is moved to the front of each net *)
  Array.iter
    (fun (net : Netlist.net) ->
      let first = d.Netlist.pins.(net.Netlist.net_pins.(0)) in
      Alcotest.(check bool)
        ("driver first on " ^ net.Netlist.net_name)
        true
        (first.Netlist.direction = Netlist.Output))
    d.Netlist.nets

let test_pin_positions () =
  let d = build_sample () in
  match Netlist.pin_by_name d "u0/A" with
  | None -> Alcotest.fail "missing pin"
  | Some p ->
    Alcotest.(check (float 1e-9)) "x" 9.7 (Netlist.pin_x d p.Netlist.pin_id);
    Alcotest.(check (float 1e-9)) "y" 10.1 (Netlist.pin_y d p.Netlist.pin_id);
    (* moving the owner moves the pin *)
    d.Netlist.cells.(p.Netlist.cell).Netlist.x <- 11.0;
    Alcotest.(check (float 1e-9)) "moved x" 10.7
      (Netlist.pin_x d p.Netlist.pin_id)

let test_net_queries () =
  let d = build_sample () in
  let n0 = 0 in
  Alcotest.(check string) "net 0" "n0" d.Netlist.nets.(n0).Netlist.net_name;
  (match Netlist.net_driver d n0 with
   | Some p ->
     Alcotest.(check string) "driver" "pi0/P" d.Netlist.pins.(p).Netlist.pin_name
   | None -> Alcotest.fail "no driver");
  (match Netlist.net_sinks d n0 with
   | [ s ] ->
     Alcotest.(check string) "sink" "u0/A" d.Netlist.pins.(s).Netlist.pin_name
   | [] | _ :: _ -> Alcotest.fail "expected one sink");
  (* hpwl of n0: pad pin at (0, 25), u0/A at (9.7, 10.1) *)
  Alcotest.(check (float 1e-9)) "hpwl" (9.7 +. 14.9) (Netlist.net_hpwl d n0)

let test_total_hpwl_weighted () =
  let d = build_sample () in
  let base = Netlist.total_hpwl d in
  d.Netlist.nets.(0).Netlist.weight <- 3.0;
  let weighted = Netlist.total_hpwl ~weighted:true d in
  let n0_hpwl = Netlist.net_hpwl d 0 in
  Alcotest.(check (float 1e-9)) "weighted adds twice n0"
    (base +. (2.0 *. n0_hpwl)) weighted;
  Netlist.reset_weights d;
  Alcotest.(check (float 1e-9)) "reset" base (Netlist.total_hpwl ~weighted:true d)

let test_movable_fixed () =
  let d = build_sample () in
  Alcotest.(check int) "movable" 2 (List.length (Netlist.movable_cells d));
  Alcotest.(check int) "fixed" 1
    (Netlist.num_cells d - List.length (Netlist.movable_cells d))

let test_positions_snapshot () =
  let d = build_sample () in
  let snap = Netlist.copy_positions d in
  d.Netlist.cells.(1).Netlist.x <- 42.0;
  d.Netlist.cells.(2).Netlist.y <- 1.0;
  Netlist.restore_positions d snap;
  Alcotest.(check (float 1e-12)) "restored x" 10.0 d.Netlist.cells.(1).Netlist.x;
  Alcotest.(check (float 1e-12)) "restored y" 30.0 d.Netlist.cells.(2).Netlist.y

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_builder_errors () =
  expect_invalid "duplicate cell" (fun () ->
    let b = Netlist.Builder.create "d" in
    let _ = Netlist.Builder.add_cell b ~name:"c" ~lib_cell:0 ~width:1.0 ~height:1.0 () in
    Netlist.Builder.add_cell b ~name:"c" ~lib_cell:0 ~width:1.0 ~height:1.0 ());
  expect_invalid "pin on unknown cell" (fun () ->
    let b = Netlist.Builder.create "d" in
    Netlist.Builder.add_pin b ~cell:3 ~name:"p" ~direction:Netlist.Input ());
  expect_invalid "net with unknown pin" (fun () ->
    let b = Netlist.Builder.create "d" in
    Netlist.Builder.add_net b ~name:"n" ~pins:[ 9 ]);
  expect_invalid "empty net" (fun () ->
    let b = Netlist.Builder.create "d" in
    let _ = Netlist.Builder.add_net b ~name:"n" ~pins:[] in
    Netlist.Builder.freeze b);
  expect_invalid "multiple drivers" (fun () ->
    let b = Netlist.Builder.create "d" in
    let c = Netlist.Builder.add_cell b ~name:"c" ~lib_cell:0 ~width:1.0 ~height:1.0 () in
    let p1 = Netlist.Builder.add_pin b ~cell:c ~name:"p1" ~direction:Netlist.Output () in
    let p2 = Netlist.Builder.add_pin b ~cell:c ~name:"p2" ~direction:Netlist.Output () in
    let _ = Netlist.Builder.add_net b ~name:"n" ~pins:[ p1; p2 ] in
    Netlist.Builder.freeze b);
  expect_invalid "pin on two nets" (fun () ->
    let b = Netlist.Builder.create "d" in
    let c = Netlist.Builder.add_cell b ~name:"c" ~lib_cell:0 ~width:1.0 ~height:1.0 () in
    let p1 = Netlist.Builder.add_pin b ~cell:c ~name:"p1" ~direction:Netlist.Output () in
    let p2 = Netlist.Builder.add_pin b ~cell:c ~name:"p2" ~direction:Netlist.Input () in
    let _ = Netlist.Builder.add_net b ~name:"n1" ~pins:[ p1; p2 ] in
    let _ = Netlist.Builder.add_net b ~name:"n2" ~pins:[ p2 ] in
    Netlist.Builder.freeze b)

let test_stats () =
  let d = build_sample () in
  let s = Netlist.Stats.compute d in
  Alcotest.(check int) "cells" 3 s.Netlist.Stats.cells;
  Alcotest.(check int) "movable" 2 s.Netlist.Stats.movable;
  Alcotest.(check int) "max fanout" 1 s.Netlist.Stats.max_fanout;
  Alcotest.(check (float 1e-9)) "avg fanout" 1.0 s.Netlist.Stats.average_fanout;
  Alcotest.(check (float 1e-9)) "cell area" 4.0 s.Netlist.Stats.total_cell_area;
  Alcotest.(check bool) "utilization" true (s.Netlist.Stats.utilization > 0.0)

let test_degenerate_hpwl () =
  let b = Netlist.Builder.create "d" in
  let c = Netlist.Builder.add_cell b ~name:"c" ~lib_cell:0 ~width:1.0 ~height:1.0 () in
  let p = Netlist.Builder.add_pin b ~cell:c ~name:"p" ~direction:Netlist.Output () in
  let _ = Netlist.Builder.add_net b ~name:"n" ~pins:[ p ] in
  let d = Netlist.Builder.freeze b in
  Alcotest.(check (float 1e-12)) "single-pin net" 0.0 (Netlist.net_hpwl d 0)

let suite =
  [ Alcotest.test_case "freeze shape" `Quick test_freeze_shape;
    Alcotest.test_case "pin positions track cells" `Quick test_pin_positions;
    Alcotest.test_case "net queries" `Quick test_net_queries;
    Alcotest.test_case "weighted hpwl" `Quick test_total_hpwl_weighted;
    Alcotest.test_case "movable vs fixed" `Quick test_movable_fixed;
    Alcotest.test_case "position snapshots" `Quick test_positions_snapshot;
    Alcotest.test_case "builder validation" `Quick test_builder_errors;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "degenerate net hpwl" `Quick test_degenerate_hpwl ]
