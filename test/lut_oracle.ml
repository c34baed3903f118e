(* Test-only oracle: the NLDM query as it was before [Liberty.Lut.eval]
   and [eval_pair], kept verbatim (a recursive bisection closure and a
   tuple result) so the allocation-free queries can be checked bit for
   bit against an independent implementation. *)

open Liberty

(* Segment selection: the index [i] of the cell [axis.(i) .. axis.(i+1)]
   containing [v], clamped to boundary segments so that out-of-range
   queries extrapolate linearly.  A length-1 axis yields index -1,
   meaning "no variation along this axis". *)
let segment axis v =
  let n = Array.length axis in
  if n = 1 then -1
  else begin
    let rec bisect lo hi =
      (* invariant: axis.(lo) <= v < axis.(hi) conceptually *)
      if hi - lo <= 1 then lo
      else begin
        let mid = (lo + hi) / 2 in
        if v < axis.(mid) then bisect lo mid else bisect mid hi
      end
    in
    if v <= axis.(0) then 0
    else if v >= axis.(n - 1) then n - 2
    else bisect 0 (n - 1)
  end

(* [(value, d/dx, d/dy)] in one pass. *)
let lookup_with_gradient (t : Lut.t) x y =
  let nx = Array.length t.Lut.x_axis and ny = Array.length t.Lut.y_axis in
  let i = segment t.Lut.x_axis x and j = segment t.Lut.y_axis y in
  match i, j with
  | -1, -1 -> (t.Lut.values.(0), 0.0, 0.0)
  | -1, j ->
    let y0 = t.Lut.y_axis.(j) and y1 = t.Lut.y_axis.(j + 1) in
    let v0 = t.Lut.values.(j) and v1 = t.Lut.values.(j + 1) in
    let slope = (v1 -. v0) /. (y1 -. y0) in
    (v0 +. (slope *. (y -. y0)), 0.0, slope)
  | i, -1 ->
    let x0 = t.Lut.x_axis.(i) and x1 = t.Lut.x_axis.(i + 1) in
    let v0 = t.Lut.values.(i * ny) and v1 = t.Lut.values.((i + 1) * ny) in
    let slope = (v1 -. v0) /. (x1 -. x0) in
    (v0 +. (slope *. (x -. x0)), slope, 0.0)
  | i, j ->
    ignore nx;
    let x0 = t.Lut.x_axis.(i) and x1 = t.Lut.x_axis.(i + 1) in
    let y0 = t.Lut.y_axis.(j) and y1 = t.Lut.y_axis.(j + 1) in
    let v00 = t.Lut.values.((i * ny) + j) in
    let v01 = t.Lut.values.((i * ny) + j + 1) in
    let v10 = t.Lut.values.(((i + 1) * ny) + j) in
    let v11 = t.Lut.values.(((i + 1) * ny) + j + 1) in
    let tx = (x -. x0) /. (x1 -. x0) in
    let ty = (y -. y0) /. (y1 -. y0) in
    let v =
      (v00 *. (1.0 -. tx) *. (1.0 -. ty))
      +. (v10 *. tx *. (1.0 -. ty))
      +. (v01 *. (1.0 -. tx) *. ty)
      +. (v11 *. tx *. ty)
    in
    let dx =
      (((v10 -. v00) *. (1.0 -. ty)) +. ((v11 -. v01) *. ty)) /. (x1 -. x0)
    in
    let dy =
      (((v01 -. v00) *. (1.0 -. tx)) +. ((v11 -. v10) *. tx)) /. (y1 -. y0)
    in
    (v, dx, dy)

let lookup t x y =
  let v, _, _ = lookup_with_gradient t x y in
  v
