(* Unit and property tests for the geometry primitives. *)

open Geometry

let feq = Alcotest.(check (float 1e-9))

let point_arb =
  QCheck2.Gen.(
    map2 (fun x y -> Point.make x y) (float_range (-100.) 100.)
      (float_range (-100.) 100.))

let test_point_ops () =
  let a = Point.make 1.0 2.0 and b = Point.make 4.0 6.0 in
  feq "add" 5.0 (Point.add a b).Point.x;
  feq "sub" (-3.0) (Point.sub a b).Point.x;
  feq "scale" 3.0 (Point.scale 3.0 (Point.make 1.0 0.0)).Point.x;
  Alcotest.(check bool) "equal" true (Point.equal a (Point.make 1.0 2.0));
  Alcotest.(check bool) "zero" true (Point.equal Point.zero (Point.make 0.0 0.0))

let test_rect_basics () =
  let r = Rect.make ~lx:1.0 ~ly:2.0 ~hx:5.0 ~hy:4.0 in
  feq "width" 4.0 (Rect.width r);
  feq "height" 2.0 (Rect.height r);
  feq "area" 8.0 (Rect.area r);
  feq "half perimeter" 6.0 (Rect.half_perimeter r);
  feq "center x" 3.0 (Rect.center r).Point.x;
  Alcotest.(check bool) "contains center" true (Rect.contains r (Rect.center r));
  Alcotest.(check bool) "excludes outside" false
    (Rect.contains r (Point.make 0.0 0.0))

let test_rect_invalid () =
  Alcotest.check_raises "inverted x" (Invalid_argument "Geometry.Rect.make: inverted corners")
    (fun () -> ignore (Rect.make ~lx:2.0 ~ly:0.0 ~hx:1.0 ~hy:1.0));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Geometry.Rect.of_center: negative size") (fun () ->
      ignore (Rect.of_center Point.zero ~width:(-1.0) ~height:1.0))

let test_rect_of_center () =
  let r = Rect.of_center (Point.make 2.0 3.0) ~width:4.0 ~height:2.0 in
  feq "lx" 0.0 r.Rect.lx;
  feq "hy" 4.0 r.Rect.hy;
  Alcotest.(check bool) "center recovered" true
    (Point.equal (Rect.center r) (Point.make 2.0 3.0))

let test_rect_intersect () =
  let a = Rect.make ~lx:0.0 ~ly:0.0 ~hx:4.0 ~hy:4.0 in
  let b = Rect.make ~lx:2.0 ~ly:1.0 ~hx:6.0 ~hy:3.0 in
  (match Rect.intersect a b with
   | None -> Alcotest.fail "expected intersection"
   | Some r ->
     feq "ix lx" 2.0 r.Rect.lx;
     feq "ix area" 4.0 (Rect.area r));
  Alcotest.(check bool) "symmetric" true (Rect.intersect a b = Rect.intersect b a);
  let far = Rect.make ~lx:10.0 ~ly:0.0 ~hx:14.0 ~hy:4.0 in
  Alcotest.(check bool) "disjoint" true (Rect.intersect a far = None)

let test_bbox () =
  Alcotest.(check bool) "empty" true (Bbox.is_empty Bbox.empty);
  feq "empty hp" 0.0 (Bbox.half_perimeter Bbox.empty);
  let pts = [ Point.make 1.0 1.0; Point.make 4.0 5.0; Point.make 2.0 0.0 ] in
  let bb = List.fold_left Bbox.add Bbox.empty pts in
  feq "hp" (3.0 +. 5.0) (Bbox.half_perimeter bb);
  match Bbox.to_rect bb with
  | None -> Alcotest.fail "expected rect"
  | Some r ->
    feq "lx" 1.0 r.Rect.lx;
    feq "hy" 5.0 r.Rect.hy

let test_scalars () =
  feq "clamp low" 1.0 (clamp ~lo:1.0 ~hi:2.0 0.0);
  feq "clamp high" 2.0 (clamp ~lo:1.0 ~hi:2.0 9.0);
  feq "clamp mid" 1.5 (clamp ~lo:1.0 ~hi:2.0 1.5);
  Alcotest.(check bool) "close" true (close 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "not close" false (close 1.0 1.1)

let prop_bbox_contains_all =
  QCheck2.Test.make ~name:"bbox contains every point" ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) point_arb)
    (fun pts ->
      match Bbox.to_rect (List.fold_left Bbox.add Bbox.empty pts) with
      | None -> false
      | Some r -> List.for_all (Rect.contains r) pts)

let prop_overlap_bounded =
  QCheck2.Test.make ~name:"overlap <= min area" ~count:300
    QCheck2.Gen.(
      quad (float_range 0.1 10.) (float_range 0.1 10.) point_arb point_arb)
    (fun (w, h, ca, cb) ->
      let a = Rect.of_center ca ~width:w ~height:h in
      let b = Rect.of_center cb ~width:h ~height:w in
      match Rect.intersect a b with
      | None -> true
      | Some r -> Rect.area r <= Float.min (Rect.area a) (Rect.area b) +. 1e-9)

let suite =
  [ Alcotest.test_case "point ops" `Quick test_point_ops;
    Alcotest.test_case "rect basics" `Quick test_rect_basics;
    Alcotest.test_case "rect invalid" `Quick test_rect_invalid;
    Alcotest.test_case "rect of_center" `Quick test_rect_of_center;
    Alcotest.test_case "rect intersect/overlap" `Quick test_rect_intersect;
    Alcotest.test_case "bbox" `Quick test_bbox;
    Alcotest.test_case "scalar helpers" `Quick test_scalars;
    QCheck_alcotest.to_alcotest prop_bbox_contains_all;
    QCheck_alcotest.to_alcotest prop_overlap_bounded ]
