let pi = 4.0 *. atan 1.0

module Grid = struct
  type t = {
    n : int;
    lx : float;
    ly : float;
    bin_w : float;
    bin_h : float;
    bin_area : float;
    items : int;
    (* One accumulator per reduction chunk, kept across calls: the
       chunk split depends only on [items], so chunk k always gets
       [chunks.(k)] and an accumulation allocates nothing. *)
    chunks : float array array;
  }

  let round_pow2 v =
    let rec up p = if p >= v then p else up (2 * p) in
    let p = up 1 in
    if p > 1 && (p - v) * 2 > p - (p / 2) then p / 2 else p

  let side ?bins design =
    match bins with
    | Some b -> max 4 (round_pow2 b)
    | None ->
      let c = Netlist.num_cells design in
      min 256 (max 16 (round_pow2 (int_of_float (Float.sqrt (float_of_int c)))))

  let cost = 8.0

  let create ?bins ~items design =
    let n = side ?bins design in
    let region = design.Netlist.region in
    let bin_w = Geometry.Rect.width region /. float_of_int n in
    let bin_h = Geometry.Rect.height region /. float_of_int n in
    let grain = Parallel.reduce_grain ~cost (max 1 items) in
    { n; lx = region.Geometry.Rect.lx; ly = region.Geometry.Rect.ly;
      bin_w; bin_h; bin_area = bin_w *. bin_h; items;
      chunks =
        Array.init ((max 1 items + grain - 1) / grain) (fun _ ->
          Array.make (n * n) 0.0) }

  let n g = g.n
  let bin_w g = g.bin_w
  let bin_h g = g.bin_h
  let bin_area g = g.bin_area

  (* the bin index of a coordinate along one axis, clamped to the grid *)
  let[@inline] index g v lo w =
    Int.max 0 (Int.min (g.n - 1) (int_of_float (Float.floor ((v -. lo) /. w))))

  let bin_of g x y =
    (index g x g.lx g.bin_w * g.n) + index g y g.ly g.bin_h

  let splat g grid ~weight (r : Geometry.Rect.t) =
    let by0 = index g r.ly g.ly g.bin_h and by1 = index g r.hy g.ly g.bin_h in
    for bx = index g r.lx g.lx g.bin_w to index g r.hx g.lx g.bin_w do
      let blx = g.lx +. (float_of_int bx *. g.bin_w) in
      let ox =
        Float.max 0.0 (Float.min r.hx (blx +. g.bin_w) -. Float.max r.lx blx)
      in
      for by = by0 to by1 do
        let bly = g.ly +. (float_of_int by *. g.bin_h) in
        let oy =
          Float.max 0.0 (Float.min r.hy (bly +. g.bin_h) -. Float.max r.ly bly)
        in
        let b = (bx * g.n) + by in
        grid.(b) <- grid.(b) +. (weight *. ox *. oy)
      done
    done

  let accumulate ?pool ?obs g body =
    let nn = g.n * g.n in
    let p = match pool with Some p -> p | None -> Parallel.sequential_pool in
    Parallel.parallel_for_reduce p ?obs ~cost g.items
      ~init:(fun k ->
        let acc = g.chunks.(k) in
        Array.fill acc 0 nn 0.0;
        acc)
      ~body
      ~merge:(fun a b ->
        for k = 0 to nn - 1 do
          a.(k) <- a.(k) +. b.(k)
        done;
        a)
end

type t = {
  design : Netlist.t;
  grid : Grid.t;
  total_movable_area : float;
  fixed_area : float array;    (* um^2 of fixed cells per bin *)
  movable_area : float array;  (* um^2 of movable cells per bin *)
  rho : float array;           (* normalised density *)
  plan : Transform.Plan.t;
  scale : float array;         (* DCT normalisation per frequency index *)
  omega : float array;         (* pi k / n *)
  coeff : float array;         (* cosine coefficients of psi *)
  psi : float array;           (* potential, synthesised when read *)
  mutable psi_current : bool;  (* psi matches coeff *)
  field_x : float array;       (* -d psi / d x_hat, bin units *)
  field_y : float array;
}

let cell_rect (c : Netlist.cell) =
  Geometry.Rect.of_center
    (Geometry.Point.make c.Netlist.x c.Netlist.y)
    ~width:c.Netlist.width ~height:c.Netlist.height

let create ?bins design =
  let grid = Grid.create ?bins ~items:(Netlist.num_cells design) design in
  let n = Grid.n grid in
  let fixed_area = Array.make (n * n) 0.0 in
  let total_movable_area = ref 0.0 in
  Array.iter
    (fun (c : Netlist.cell) ->
      if c.Netlist.fixed then
        Grid.splat grid fixed_area ~weight:1.0 (cell_rect c)
      else
        total_movable_area :=
          !total_movable_area +. (c.Netlist.width *. c.Netlist.height))
    design.Netlist.cells;
  { design; grid;
    total_movable_area = !total_movable_area;
    fixed_area;
    movable_area = Array.make (n * n) 0.0;
    rho = Array.make (n * n) 0.0;
    plan = Transform.Plan.create n;
    scale = Array.init n (fun k -> (if k = 0 then 1.0 else 2.0) /. float_of_int n);
    omega = Array.init n (fun k -> pi *. float_of_int k /. float_of_int n);
    coeff = Array.make (n * n) 0.0;
    psi = Array.make (n * n) 0.0;
    psi_current = true;
    field_x = Array.make (n * n) 0.0;
    field_y = Array.make (n * n) 0.0 }

let bins t = Grid.n t.grid

let k_splat = Obs.kernel "density.splat"
let k_dct = Obs.kernel "density.dct"

let update ?pool ?(obs = Obs.disabled) t =
  let n = Grid.n t.grid in
  let cells = t.design.Netlist.cells in
  Obs.start obs k_splat;
  (* per-chunk grids merged in chunk order: the split depends only on
     the cell count, so pooled splats reproduce sequential ones bit for
     bit *)
  let grid =
    Grid.accumulate ?pool ~obs t.grid (fun acc i ->
      let c = cells.(i) in
      if not c.Netlist.fixed then
        Grid.splat t.grid acc ~weight:1.0 (cell_rect c))
  in
  Array.blit grid 0 t.movable_area 0 (n * n);
  let bin_area = Grid.bin_area t.grid in
  for b = 0 to (n * n) - 1 do
    t.rho.(b) <- (t.movable_area.(b) +. t.fixed_area.(b)) /. bin_area
  done;
  Obs.stop obs;
  Obs.start obs k_dct;
  (* spectral Poisson solve: coefficients of rho in the cosine basis *)
  Array.blit t.rho 0 t.coeff 0 (n * n);
  Transform.Grid.dct2 ?pool ~obs t.plan t.coeff;
  (* E_x = sum c_uv w_u sin(w_u x) cos(w_v y): rows carry the x index;
     E_y likewise with w_v along the columns *)
  for u = 0 to n - 1 do
    let su = t.scale.(u) and wu = t.omega.(u) in
    for v = 0 to n - 1 do
      let idx = (u * n) + v in
      let wv = t.omega.(v) in
      let c =
        if u = 0 && v = 0 then 0.0
        else t.coeff.(idx) *. su *. t.scale.(v) /. ((wu *. wu) +. (wv *. wv))
      in
      t.coeff.(idx) <- c;
      t.field_x.(idx) <- c *. wu;
      t.field_y.(idx) <- c *. wv
    done
  done;
  t.psi_current <- false;
  Transform.Grid.sin_cos_synth ?pool ~obs t.plan t.field_x;
  Transform.Grid.cos_sin_synth ?pool ~obs t.plan t.field_y;
  Obs.stop obs

let penalty t =
  if not t.psi_current then begin
    Array.blit t.coeff 0 t.psi 0 (Array.length t.psi);
    Transform.Grid.cos_cos_synth t.plan t.psi;
    t.psi_current <- true
  end;
  let acc = ref 0.0 in
  for b = 0 to Array.length t.rho - 1 do
    acc := !acc +. (t.rho.(b) *. t.psi.(b))
  done;
  0.5 *. !acc

let overflow t =
  if t.total_movable_area <= 0.0 then 0.0
  else begin
    let acc = ref 0.0 and bin_area = Grid.bin_area t.grid in
    for b = 0 to Array.length t.fixed_area - 1 do
      let capacity = Float.max 0.0 (bin_area -. t.fixed_area.(b)) in
      acc := !acc +. Float.max 0.0 (t.movable_area.(b) -. capacity)
    done;
    !acc /. t.total_movable_area
  end

let k_grad = Obs.kernel "density.grad"

let gradient ?pool ?(obs = Obs.disabled) t ~scale ~grad_x ~grad_y =
  let region = t.design.Netlist.region in
  let ncells = Netlist.num_cells t.design in
  if Array.length grad_x <> ncells || Array.length grad_y <> ncells then
    invalid_arg "Density.gradient: size mismatch";
  Obs.start obs k_grad;
  let p = match pool with Some p -> p | None -> Parallel.sequential_pool in
  let cells = t.design.Netlist.cells in
  let g = t.grid in
  let n = Grid.n g and bin_w = Grid.bin_w g and bin_h = Grid.bin_h g in
  let hi = float_of_int n -. 1.0 in
  let fx = t.field_x and fy = t.field_y in
  (* each task writes only its own cell's gradient slot: race-free and
     bit-identical under the pool *)
  Parallel.parallel_for p ~obs ~cost:6.0 (Array.length cells) (fun k ->
    let c = cells.(k) in
    if not c.Netlist.fixed then begin
      let q = c.Netlist.width *. c.Netlist.height /. Grid.bin_area g in
      (* bilinear interpolation between bin centers: one stencil, both
         fields *)
      let bx = (c.Netlist.x -. region.Geometry.Rect.lx) /. bin_w in
      let by = (c.Netlist.y -. region.Geometry.Rect.ly) /. bin_h in
      let px = Geometry.clamp ~lo:0.0 ~hi (bx -. 0.5) in
      let py = Geometry.clamp ~lo:0.0 ~hi (by -. 0.5) in
      let ix = max 0 (min (n - 2) (int_of_float px)) in
      let iy = max 0 (min (n - 2) (int_of_float py)) in
      let tx = px -. float_of_int ix and ty = py -. float_of_int iy in
      let sx = 1.0 -. tx and sy = 1.0 -. ty in
      let b = (ix * n) + iy in
      let ex =
        (fx.(b) *. sx *. sy) +. (fx.(b + n) *. tx *. sy)
        +. (fx.(b + 1) *. sx *. ty) +. (fx.(b + n + 1) *. tx *. ty)
      in
      let ey =
        (fy.(b) *. sx *. sy) +. (fy.(b + n) *. tx *. sy)
        +. (fy.(b + 1) *. sx *. ty) +. (fy.(b + n + 1) *. tx *. ty)
      in
      (* d(energy)/dx = -q * E_x, converted from bin to micron units *)
      let i = c.Netlist.cell_id in
      grad_x.(i) <- grad_x.(i) -. (scale *. q *. ex /. bin_w);
      grad_y.(i) <- grad_y.(i) -. (scale *. q *. ey /. bin_h)
    end);
  Obs.stop obs
