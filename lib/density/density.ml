let pi = 4.0 *. atan 1.0

type t = {
  design : Netlist.t;
  n : int;
  target_density : float;
  bin_w : float;
  bin_h : float;
  bin_area : float;
  total_movable_area : float;
  fixed_area : float array;    (* um^2 of fixed cells per bin *)
  movable_area : float array;  (* um^2 of movable cells per bin *)
  rho : float array;           (* normalised density *)
  psi : float array;           (* potential *)
  field_x : float array;       (* -d psi / d x_hat, bin units *)
  field_y : float array;
  coeff : float array;         (* scratch: spectral coefficients *)
  scratch : float array;
  (* Reusable per-chunk splat accumulators.  [parallel_for_reduce]'s
     default chunking is pool-independent, so the chunk count is known
     at create time; handing zero-filled grids out of this pool instead
     of allocating fresh ones kills the dominant per-iteration
     major-heap churn at 10^5+ cells (one n*n float array per chunk per
     update).  [splat_next] is the hand-out cursor, reset per update. *)
  splat_grids : float array array;
  splat_next : int Atomic.t;
}

let round_pow2 v =
  let rec up p = if p >= v then p else up (2 * p) in
  let p = up 1 in
  if p > 1 && (p - v) * 2 > p - (p / 2) then p / 2 else p

let default_bins design =
  let c = Netlist.num_cells design in
  let raw = int_of_float (Float.sqrt (float_of_int c)) in
  min 256 (max 16 (round_pow2 raw))

(* Splat a rectangle's area onto the grid. *)
let splat grid n region bin_w bin_h (r : Geometry.Rect.t) =
  let lx = region.Geometry.Rect.lx and ly = region.Geometry.Rect.ly in
  let bx0 = int_of_float (Float.floor ((r.Geometry.Rect.lx -. lx) /. bin_w)) in
  let bx1 = int_of_float (Float.floor ((r.Geometry.Rect.hx -. lx) /. bin_w)) in
  let by0 = int_of_float (Float.floor ((r.Geometry.Rect.ly -. ly) /. bin_h)) in
  let by1 = int_of_float (Float.floor ((r.Geometry.Rect.hy -. ly) /. bin_h)) in
  let clamp v = max 0 (min (n - 1) v) in
  let bx0 = clamp bx0 and bx1 = clamp bx1 in
  let by0 = clamp by0 and by1 = clamp by1 in
  for bx = bx0 to bx1 do
    for by = by0 to by1 do
      let cell_lx = lx +. (float_of_int bx *. bin_w) in
      let cell_ly = ly +. (float_of_int by *. bin_h) in
      let ox =
        Float.max 0.0
          (Float.min r.Geometry.Rect.hx (cell_lx +. bin_w)
           -. Float.max r.Geometry.Rect.lx cell_lx)
      in
      let oy =
        Float.max 0.0
          (Float.min r.Geometry.Rect.hy (cell_ly +. bin_h)
           -. Float.max r.Geometry.Rect.ly cell_ly)
      in
      grid.((bx * n) + by) <- grid.((bx * n) + by) +. (ox *. oy)
    done
  done

let cell_rect (c : Netlist.cell) =
  Geometry.Rect.of_center
    (Geometry.Point.make c.Netlist.x c.Netlist.y)
    ~width:c.Netlist.width ~height:c.Netlist.height

let create ?bins ?(target_density = 1.0) design =
  let n =
    match bins with
    | Some b -> max 4 (round_pow2 b)
    | None -> default_bins design
  in
  let region = design.Netlist.region in
  let bin_w = Geometry.Rect.width region /. float_of_int n in
  let bin_h = Geometry.Rect.height region /. float_of_int n in
  let fixed_area = Array.make (n * n) 0.0 in
  let total_movable_area = ref 0.0 in
  Array.iter
    (fun (c : Netlist.cell) ->
      if c.Netlist.fixed then
        splat fixed_area n region bin_w bin_h (cell_rect c)
      else
        total_movable_area :=
          !total_movable_area +. (c.Netlist.width *. c.Netlist.height))
    design.Netlist.cells;
  { design; n; target_density; bin_w; bin_h;
    bin_area = bin_w *. bin_h;
    total_movable_area = !total_movable_area;
    fixed_area;
    movable_area = Array.make (n * n) 0.0;
    rho = Array.make (n * n) 0.0;
    psi = Array.make (n * n) 0.0;
    field_x = Array.make (n * n) 0.0;
    field_y = Array.make (n * n) 0.0;
    coeff = Array.make (n * n) 0.0;
    scratch = Array.make (n * n) 0.0;
    splat_grids =
      (let ncells = Netlist.num_cells design in
       let grain = Parallel.reduce_grain ~cost:8.0 (max 1 ncells) in
       let chunks = max 1 ((max 1 ncells + grain - 1) / grain) in
       Array.init chunks (fun _ -> Array.make (n * n) 0.0));
    splat_next = Atomic.make 0 }

let bins t = t.n

let k_splat = Obs.kernel "density.splat"
let k_dct = Obs.kernel "density.dct"

let update ?pool ?(obs = Obs.disabled) t =
  let n = t.n in
  let cells = t.design.Netlist.cells in
  let ncells = Array.length cells in
  Obs.start obs k_splat;
  (* splat cells into per-chunk grids merged in chunk order; the chunk
     split depends only on the cell count, so pooled splats reproduce the
     sequential ones bit for bit *)
  let p = match pool with Some p -> p | None -> Parallel.sequential_pool in
  Atomic.set t.splat_next 0;
  let grid =
    Parallel.parallel_for_reduce p ~obs ~cost:8.0 ncells
      ~init:(fun () ->
        (* zeroed scratch from the preallocated pool; falls back to a
           fresh grid if a custom grain ever makes more chunks *)
        let k = Atomic.fetch_and_add t.splat_next 1 in
        if k < Array.length t.splat_grids then begin
          let g = t.splat_grids.(k) in
          Array.fill g 0 (n * n) 0.0;
          g
        end
        else Array.make (n * n) 0.0)
      ~body:(fun acc i ->
        let c = cells.(i) in
        if not c.Netlist.fixed then
          splat acc n t.design.Netlist.region t.bin_w t.bin_h (cell_rect c))
      ~merge:(fun a b ->
        for k = 0 to (n * n) - 1 do
          a.(k) <- a.(k) +. b.(k)
        done;
        a)
  in
  Array.blit grid 0 t.movable_area 0 (n * n);
  for b = 0 to (n * n) - 1 do
    t.rho.(b) <- (t.movable_area.(b) +. t.fixed_area.(b)) /. t.bin_area
  done;
  Obs.stop obs;
  Obs.start obs k_dct;
  (* spectral Poisson solve: coefficients of rho in the cosine basis *)
  let a = Transform.Grid.dct2 ?pool ~obs n t.rho in
  let scale k = if k = 0 then 1.0 /. float_of_int n else 2.0 /. float_of_int n in
  let w k = pi *. float_of_int k /. float_of_int n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let idx = (u * n) + v in
      if u = 0 && v = 0 then t.coeff.(idx) <- 0.0
      else begin
        let wu = w u and wv = w v in
        t.coeff.(idx) <-
          a.(idx) *. scale u *. scale v /. ((wu *. wu) +. (wv *. wv))
      end
    done
  done;
  let psi = Transform.Grid.cos_cos_synth ?pool ~obs n t.coeff in
  Array.blit psi 0 t.psi 0 (n * n);
  (* E_x = sum c_uv w_u sin(w_u x) cos(w_v y): rows carry the x index *)
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      t.scratch.((u * n) + v) <- t.coeff.((u * n) + v) *. w u
    done
  done;
  let ex = Transform.Grid.sin_cos_synth ?pool ~obs n t.scratch in
  Array.blit ex 0 t.field_x 0 (n * n);
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      t.scratch.((u * n) + v) <- t.coeff.((u * n) + v) *. w v
    done
  done;
  let ey = Transform.Grid.cos_sin_synth ?pool ~obs n t.scratch in
  Array.blit ey 0 t.field_y 0 (n * n);
  Obs.stop obs

let penalty t =
  let acc = ref 0.0 in
  for b = 0 to (t.n * t.n) - 1 do
    acc := !acc +. (t.rho.(b) *. t.psi.(b))
  done;
  0.5 *. !acc

let overflow t =
  if t.total_movable_area <= 0.0 then 0.0
  else begin
    let acc = ref 0.0 in
    for b = 0 to (t.n * t.n) - 1 do
      let capacity =
        t.target_density *. Float.max 0.0 (t.bin_area -. t.fixed_area.(b))
      in
      acc := !acc +. Float.max 0.0 (t.movable_area.(b) -. capacity)
    done;
    !acc /. t.total_movable_area
  end

(* Bilinear interpolation of a bin-center field at bin coordinates. *)
let interp t field bx by =
  let n = t.n in
  let fx = Geometry.clamp ~lo:0.0 ~hi:(float_of_int n -. 1.0) (bx -. 0.5) in
  let fy = Geometry.clamp ~lo:0.0 ~hi:(float_of_int n -. 1.0) (by -. 0.5) in
  let ix = min (n - 2) (int_of_float fx) and iy = min (n - 2) (int_of_float fy) in
  let ix = max 0 ix and iy = max 0 iy in
  let tx = fx -. float_of_int ix and ty = fy -. float_of_int iy in
  let g i j = field.((i * n) + j) in
  (g ix iy *. (1.0 -. tx) *. (1.0 -. ty))
  +. (g (ix + 1) iy *. tx *. (1.0 -. ty))
  +. (g ix (iy + 1) *. (1.0 -. tx) *. ty)
  +. (g (ix + 1) (iy + 1) *. tx *. ty)

let k_grad = Obs.kernel "density.grad"

let gradient ?pool ?(obs = Obs.disabled) t ~scale ~grad_x ~grad_y =
  let region = t.design.Netlist.region in
  let ncells = Netlist.num_cells t.design in
  if Array.length grad_x <> ncells || Array.length grad_y <> ncells then
    invalid_arg "Density.gradient: size mismatch";
  Obs.start obs k_grad;
  let p = match pool with Some p -> p | None -> Parallel.sequential_pool in
  let cells = t.design.Netlist.cells in
  (* each task writes only its own cell's gradient slot: race-free and
     bit-identical under the pool *)
  Parallel.parallel_for p ~obs ~cost:6.0 (Array.length cells) (fun k ->
    let c = cells.(k) in
    if not c.Netlist.fixed then begin
      let q = c.Netlist.width *. c.Netlist.height /. t.bin_area in
      let bx = (c.Netlist.x -. region.Geometry.Rect.lx) /. t.bin_w in
      let by = (c.Netlist.y -. region.Geometry.Rect.ly) /. t.bin_h in
      let ex = interp t t.field_x bx by in
      let ey = interp t t.field_y bx by in
      (* d(energy)/dx = -q * E_x, converted from bin to micron units *)
      let i = c.Netlist.cell_id in
      grad_x.(i) <- grad_x.(i) -. (scale *. q *. ex /. t.bin_w);
      grad_y.(i) <- grad_y.(i) -. (scale *. q *. ey /. t.bin_h)
    end);
  Obs.stop obs
