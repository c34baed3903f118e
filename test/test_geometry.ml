(* Unit and property tests for the geometry primitives. *)

open Geometry

let feq = Alcotest.(check (float 1e-9))

let point_arb =
  QCheck2.Gen.(
    map2 (fun x y -> Point.make x y) (float_range (-100.) 100.)
      (float_range (-100.) 100.))

let test_rect_basics () =
  let r = Rect.make ~lx:1.0 ~ly:2.0 ~hx:5.0 ~hy:4.0 in
  feq "width" 4.0 (Rect.width r);
  feq "height" 2.0 (Rect.height r);
  feq "area" 8.0 (Rect.area r);
  feq "center x" 3.0 (Rect.center r).Point.x

let test_rect_invalid () =
  Alcotest.check_raises "inverted x" (Invalid_argument "Geometry.Rect.make: inverted corners")
    (fun () -> ignore (Rect.make ~lx:2.0 ~ly:0.0 ~hx:1.0 ~hy:1.0));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Geometry.Rect.of_center: negative size") (fun () ->
      ignore (Rect.of_center (Point.make 0.0 0.0) ~width:(-1.0) ~height:1.0))

let test_rect_of_center () =
  let r = Rect.of_center (Point.make 2.0 3.0) ~width:4.0 ~height:2.0 in
  feq "lx" 0.0 r.Rect.lx;
  feq "hy" 4.0 r.Rect.hy;
  let c = Rect.center r in
  feq "center x recovered" 2.0 c.Point.x;
  feq "center y recovered" 3.0 c.Point.y

let test_bbox () =
  feq "empty hp" 0.0 (Bbox.half_perimeter Bbox.empty);
  let pts = [ (1.0, 1.0); (4.0, 5.0); (2.0, 0.0) ] in
  let bb = List.fold_left (fun b (x, y) -> Bbox.add_xy b x y) Bbox.empty pts in
  feq "hp" (3.0 +. 5.0) (Bbox.half_perimeter bb);
  match Bbox.to_rect bb with
  | None -> Alcotest.fail "expected rect"
  | Some r ->
    feq "lx" 1.0 r.Rect.lx;
    feq "hy" 5.0 r.Rect.hy

let test_scalars () =
  feq "clamp low" 1.0 (clamp ~lo:1.0 ~hi:2.0 0.0);
  feq "clamp high" 2.0 (clamp ~lo:1.0 ~hi:2.0 9.0);
  feq "clamp mid" 1.5 (clamp ~lo:1.0 ~hi:2.0 1.5)

let prop_bbox_contains_all =
  QCheck2.Test.make ~name:"bbox contains every point" ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) point_arb)
    (fun pts ->
      let add b (p : Point.t) = Bbox.add_xy b p.Point.x p.Point.y in
      match Bbox.to_rect (List.fold_left add Bbox.empty pts) with
      | None -> false
      | Some r ->
        List.for_all
          (fun (p : Point.t) ->
            p.Point.x >= r.Rect.lx && p.Point.x <= r.Rect.hx
            && p.Point.y >= r.Rect.ly && p.Point.y <= r.Rect.hy)
          pts)

let suite =
  [ Alcotest.test_case "rect basics" `Quick test_rect_basics;
    Alcotest.test_case "rect invalid" `Quick test_rect_invalid;
    Alcotest.test_case "rect of_center" `Quick test_rect_of_center;
    Alcotest.test_case "bbox" `Quick test_bbox;
    Alcotest.test_case "scalar helpers" `Quick test_scalars;
    QCheck_alcotest.to_alcotest prop_bbox_contains_all ]
