(* Per-worker slice state.  Each slice owns its pin-coordinate /
   exponential scratch (sized for the largest net, so the module is safe
   under the pool) and, when more than one slice is live, its own
   gradient accumulators merged in slice order. *)
type slice = {
  sc_coords : float array;  (* pin coordinates of the current net *)
  sc_ep : float array;      (* memoized max-shifted exponentials *)
  sc_em : float array;
  sl_gx : float array;      (* per-slice gradient accumulators *)
  sl_gy : float array;
  mutable sl_total : float;
}

type t = {
  design : Netlist.t;
  gamma_ : float;
  slices : slice array;
  px : float array;    (* pin coordinates of the current pass, by pin id *)
  py : float array;
  span : float array;  (* exact HPWL of each net at those coordinates *)
}

(* The net range is cut into slices as a pure function of the net and
   cell counts — never of the pool — so the slice partials and their
   in-order merge are identical at every domain count (bit-identical
   pooled runs).  The cell-count cap keeps the per-slice gradient
   accumulators within a ~2M-float budget: at 10^5+ cells a full 16-way
   split would pin 2 * 16 * ncells floats of scratch and spend more
   time zero-filling than evaluating (the cap only bites above ~131k
   cells, so smaller designs keep their historical slice split). *)
let net_slices ~ncells nnets =
  if nnets <= 0 then 1
  else begin
    let by_nets = min 16 ((nnets + 511) / 512) in
    let by_mem = max 1 (2_097_152 / max 1 ncells) in
    min by_nets by_mem
  end

let make_slice ncells cap =
  { sc_coords = Array.make cap 0.0;
    sc_ep = Array.make cap 0.0;
    sc_em = Array.make cap 0.0;
    sl_gx = Array.make ncells 0.0;
    sl_gy = Array.make ncells 0.0;
    sl_total = 0.0 }

let create ?(gamma = 4.0) design =
  let max_degree =
    Array.fold_left
      (fun acc (net : Netlist.net) -> max acc (Array.length net.Netlist.net_pins))
      1 design.Netlist.nets
  in
  let ncells = Netlist.num_cells design in
  let nslices = net_slices ~ncells (Netlist.num_nets design) in
  let npins = Netlist.num_pins design in
  { design; gamma_ = gamma;
    slices = Array.init nslices (fun _ -> make_slice ncells max_degree);
    px = Array.make npins 0.0;
    py = Array.make npins 0.0;
    span = Array.make (Netlist.num_nets design) 0.0 }

(* The same sum [Netlist.pin_x] makes, once per pin per pass, so the WA
   kernel reads plain float arrays instead of boxed results of a call. *)
let fill_pin_coords t =
  let cells = t.design.Netlist.cells and pins = t.design.Netlist.pins in
  for p = 0 to Array.length pins - 1 do
    let pin = pins.(p) in
    let c = cells.(pin.Netlist.cell) in
    t.px.(p) <- c.Netlist.x +. pin.Netlist.offset_x;
    t.py.(p) <- c.Netlist.y +. pin.Netlist.offset_y
  done

(* One axis of the WA model for one net.  Returns the smooth extent and
   accumulates d(extent)/d(coord_i) into [out] at the pins' cells.

   With the max-shifted exponentials, the positive (max-like) part is
     S+ = sum x_i e_i / sum e_i,   e_i = exp ((x_i - M) / g)
   and its partial derivative is
     dS+/dx_i = e_i (1 + (x_i - S+) / g) / sum e_i,
   symmetrically for the min-like part with negated exponents.  The
   exponentials are computed once and replayed for the gradient pass.
   The exact extent [hi - lo] is stored as net [i]'s span (the x axis)
   or added to it (the y axis).  On finite coordinates it is bit for
   bit the extent [Netlist.net_hpwl] folds with [Float.min]/[max]: a
   net of only zeros gives +0 either way. *)
let axis_wa t sl (pins : int array) (coord : float array) weight out i ~add =
  let n = Array.length pins in
  let g = t.gamma_ in
  let xs = sl.sc_coords and eps = sl.sc_ep and ems = sl.sc_em in
  let lo = ref infinity and hi = ref neg_infinity in
  for k = 0 to n - 1 do
    let v = coord.(pins.(k)) in
    xs.(k) <- v;
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  let sum_ep = ref 0.0 and sum_xep = ref 0.0 in
  let sum_em = ref 0.0 and sum_xem = ref 0.0 in
  for k = 0 to n - 1 do
    let ep = exp ((xs.(k) -. !hi) /. g) in
    let em = exp ((!lo -. xs.(k)) /. g) in
    eps.(k) <- ep;
    ems.(k) <- em;
    sum_ep := !sum_ep +. ep;
    sum_xep := !sum_xep +. (xs.(k) *. ep);
    sum_em := !sum_em +. em;
    sum_xem := !sum_xem +. (xs.(k) *. em)
  done;
  let s_plus = !sum_xep /. !sum_ep in
  let s_minus = !sum_xem /. !sum_em in
  for k = 0 to n - 1 do
    let ep = eps.(k) and em = ems.(k) in
    let d_plus = ep *. (1.0 +. ((xs.(k) -. s_plus) /. g)) /. !sum_ep in
    let d_minus = em *. (1.0 -. ((xs.(k) -. s_minus) /. g)) /. !sum_em in
    let cell = t.design.Netlist.pins.(pins.(k)).Netlist.cell in
    out.(cell) <- out.(cell) +. (weight *. (d_plus -. d_minus))
  done;
  let e = !hi -. !lo in
  t.span.(i) <- (if add then t.span.(i) +. e else e);
  s_plus -. s_minus

let eval_net t sl ~weighted gx gy i (net : Netlist.net) =
  let pins = net.Netlist.net_pins in
  if Array.length pins < 2 then begin
    t.span.(i) <- 0.0;
    0.0
  end
  else begin
    let w = if weighted then net.Netlist.weight else 1.0 in
    let wx = axis_wa t sl pins t.px w gx i ~add:false in
    let wy = axis_wa t sl pins t.py w gy i ~add:true in
    w *. (wx +. wy)
  end

let last_hpwl t =
  let acc = ref 0.0 in
  for i = 0 to Array.length t.span - 1 do
    acc := !acc +. t.span.(i)
  done;
  !acc

let k_wirelength = Obs.kernel "wirelength"

let evaluate t ?pool ?(obs = Obs.disabled) ?(weighted = true) ~grad_x
    ~grad_y () =
  let ncells = Netlist.num_cells t.design in
  if Array.length grad_x <> ncells || Array.length grad_y <> ncells then
    invalid_arg "Wirelength.evaluate: gradient size mismatch";
  Obs.start obs k_wirelength;
  fill_pin_coords t;
  let nets = t.design.Netlist.nets in
  let nnets = Array.length nets in
  let nslices = Array.length t.slices in
  let result =
  if nslices = 1 then begin
    let sl = t.slices.(0) in
    let total = ref 0.0 in
    for i = 0 to nnets - 1 do
      total := !total +. eval_net t sl ~weighted grad_x grad_y i nets.(i)
    done;
    !total
  end
  else begin
    let pool = match pool with Some p -> p | None -> Parallel.sequential_pool in
    (* one slice evaluates hundreds of nets' WA terms *)
    Parallel.parallel_for pool ~obs ~cost:512.0 nslices (fun s ->
      let sl = t.slices.(s) in
      Array.fill sl.sl_gx 0 ncells 0.0;
      Array.fill sl.sl_gy 0 ncells 0.0;
      let lo = s * nnets / nslices and hi = (s + 1) * nnets / nslices in
      (* a local sum: the record's float field would box every add *)
      let total = ref 0.0 in
      for i = lo to hi - 1 do
        total :=
          !total +. eval_net t sl ~weighted sl.sl_gx sl.sl_gy i nets.(i)
      done;
      sl.sl_total <- !total);
    (* merge in slice order: deterministic at every domain count *)
    let total = ref 0.0 in
    for s = 0 to nslices - 1 do
      let sl = t.slices.(s) in
      total := !total +. sl.sl_total;
      for c = 0 to ncells - 1 do
        grad_x.(c) <- grad_x.(c) +. sl.sl_gx.(c);
        grad_y.(c) <- grad_y.(c) +. sl.sl_gy.(c)
      done
    done;
    !total
  end
  in
  Obs.stop obs;
  result
