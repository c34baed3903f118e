let clamp ~lo ~hi v = if v < lo then lo else if v > hi then hi else v

let close ?(eps = 1e-9) a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= (eps *. scale)

module Point = struct
  type t = { x : float; y : float }

  let make x y = { x; y }
  let zero = { x = 0.0; y = 0.0 }
  let add a b = { x = a.x +. b.x; y = a.y +. b.y }
  let sub a b = { x = a.x -. b.x; y = a.y -. b.y }
  let scale k p = { x = k *. p.x; y = k *. p.y }
  let equal ?eps a b = close ?eps a.x b.x && close ?eps a.y b.y
  let pp ppf p = Format.fprintf ppf "(%g, %g)" p.x p.y
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

  let contains r (p : Point.t) =
    p.x >= r.lx && p.x <= r.hx && p.y >= r.ly && p.y <= r.hy

  let intersect a b =
    let lx = Float.max a.lx b.lx and ly = Float.max a.ly b.ly in
    let hx = Float.min a.hx b.hx and hy = Float.min a.hy b.hy in
    if hx >= lx && hy >= ly then Some { lx; ly; hx; hy } else None

  let half_perimeter r = width r +. height r

  let equal ?eps a b =
    close ?eps a.lx b.lx && close ?eps a.ly b.ly
    && close ?eps a.hx b.hx && close ?eps a.hy b.hy

  let pp ppf r =
    Format.fprintf ppf "[%g, %g] x [%g, %g]" r.lx r.hx r.ly r.hy
end

module Bbox = struct
  type t =
    | Empty
    | Box of Rect.t

  let empty = Empty
  let is_empty = function Empty -> true | Box _ -> false

  let add_xy t x y =
    match t with
    | Empty -> Box { Rect.lx = x; ly = y; hx = x; hy = y }
    | Box r ->
      Box { Rect.lx = Float.min r.lx x;
            ly = Float.min r.ly y;
            hx = Float.max r.hx x;
            hy = Float.max r.hy y }

  let add t (p : Point.t) = add_xy t p.x p.y
  let to_rect = function Empty -> None | Box r -> Some r

  let half_perimeter = function
    | Empty -> 0.0
    | Box r -> Rect.half_perimeter r
end
