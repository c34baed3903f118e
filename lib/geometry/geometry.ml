let clamp ~lo ~hi (v : float) = if v < lo then lo else if v > hi then hi else v

module Point = struct
  type t = { x : float; y : float }

  let make x y = { x; y }
end

module Rect = struct
  type t = { lx : float; ly : float; hx : float; hy : float }

  let make ~lx ~ly ~hx ~hy =
    if hx < lx || hy < ly then invalid_arg "Geometry.Rect.make: inverted corners";
    { lx; ly; hx; hy }

  let of_center (c : Point.t) ~width ~height =
    if width < 0.0 || height < 0.0 then
      invalid_arg "Geometry.Rect.of_center: negative size";
    { lx = c.x -. (0.5 *. width);
      ly = c.y -. (0.5 *. height);
      hx = c.x +. (0.5 *. width);
      hy = c.y +. (0.5 *. height) }

  let width r = r.hx -. r.lx
  let height r = r.hy -. r.ly
  let area r = width r *. height r
  let center r = Point.make (0.5 *. (r.lx +. r.hx)) (0.5 *. (r.ly +. r.hy))
end

module Bbox = struct
  type t =
    | Empty
    | Box of Rect.t

  let empty = Empty

  let add_xy t x y =
    match t with
    | Empty -> Box { Rect.lx = x; ly = y; hx = x; hy = y }
    | Box r ->
      Box { Rect.lx = Float.min r.lx x;
            ly = Float.min r.ly y;
            hx = Float.max r.hx x;
            hy = Float.max r.hy y }

  let to_rect = function Empty -> None | Box r -> Some r

  let half_perimeter = function
    | Empty -> 0.0
    | Box r -> Rect.width r +. Rect.height r
end
