type stats = {
  passes_run : int;
  reorder_moves : int;
  swap_moves : int;
  hpwl_before : float;
  hpwl_after : float;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>passes: %d@,reorder moves: %d@,swap moves: %d@,hpwl: %.4e -> %.4e \
     (%+.2f%%)@]"
    s.passes_run s.reorder_moves s.swap_moves s.hpwl_before s.hpwl_after
    (100.0 *. (s.hpwl_after -. s.hpwl_before) /. Float.max 1e-9 s.hpwl_before)

let k_refine = Obs.kernel "detailed.refine"

(* The design as flat arrays, built once at entry; positions are written
   back to the cell records once at the end.  Pins are stored net by net:
   net [n]'s pins are the slots [net_start.(n) .. net_start.(n + 1) - 1]
   of [pin_cell]/[pin_ox]/[pin_oy], so a net walk reads them in order.
   Cell [c]'s pins are listed by their nets (-1: unconnected) in
   [cell_net.(cell_start.(c) .. cell_start.(c + 1) - 1)]. *)
type state = {
  xs : float array;
  ys : float array;
  widths : float array;
  net_start : int array;
  pin_cell : int array;
  pin_ox : float array;
  pin_oy : float array;
  cell_start : int array;
  cell_net : int array;
  (* rows *)
  ly : float;
  rh : float;
  nrows : int;
  rows : int array array;  (* movable cell ids of each row, x-sorted *)
  slot : int array;  (* a cell's index in its row array *)
  blocks : (float * float) array array;  (* per row: crossing fixed cells *)
  (* scratch of one try: the cells it moves ("movers") and their nets *)
  stamp : int array;  (* per net: the try that last collected it *)
  mutable tick : int;
  nets : int array;  (* the try's nets, in first-appearance order *)
  mutable n_nets : int;
  mover : int array;  (* per cell: its index among the movers, or -1 *)
  (* per try net: the box of its pins on other cells, and its movers'
     pins as (mover index, offsets) in [mstart.(t) .. mstart.(t + 1) - 1] *)
  out_lx : float array;
  out_hx : float array;
  out_ly : float array;
  out_hy : float array;
  mstart : int array;
  mcell : int array;
  mox : float array;
  moy : float array;
  cx : float array;  (* movers' position in the arrangement scored *)
  cy : float array;
  pair : int array;  (* the two cells a swap tries *)
  window : int;
  perms : int array;
      (* every permutation of 0..window-1, lexicographic; empty when no
         row holds a window *)
  want : float array;  (* desired position of the swap phase *)
}

(* Permutations of [0 .. w - 1] in lexicographic order, concatenated. *)
let permutation_table w =
  let rec fact k = if k <= 1 then 1 else k * fact (k - 1) in
  let table = Array.make (fact w * w) 0 in
  let cur = Array.make w 0 and used = Array.make w false in
  let next = ref 0 in
  let rec fill depth =
    if depth = w then begin
      Array.blit cur 0 table !next w;
      next := !next + w
    end
    else
      for j = 0 to w - 1 do
        if not used.(j) then begin
          used.(j) <- true;
          cur.(depth) <- j;
          fill (depth + 1);
          used.(j) <- false
        end
      done
  in
  fill 0;
  table

(* The row whose band holds [y], clamped to the rows of the region. *)
let[@inline] row_at ~ly ~rh ~nrows y =
  max 0 (min (nrows - 1) (int_of_float ((y -. ly) /. rh)))

(* Start offsets of the concatenation of [lists]. *)
let starts lists =
  let start = Array.make (Array.length lists + 1) 0 in
  Array.iteri (fun i l -> start.(i + 1) <- start.(i) + Array.length l) lists;
  start

let create (design : Netlist.t) window =
  let cells = design.Netlist.cells and pins = design.Netlist.pins in
  let ncells = Array.length cells in
  let net_pins = Array.map (fun (n : Netlist.net) -> n.Netlist.net_pins) design.Netlist.nets in
  let net_start = starts net_pins in
  let m = net_start.(Array.length net_pins) in
  let pin_cell = Array.make m 0 and pin_ox = Array.make m 0.0 in
  let pin_oy = Array.make m 0.0 in
  Array.iteri
    (fun n ps ->
      Array.iteri
        (fun k p ->
          let pin = pins.(p) and j = net_start.(n) + k in
          pin_cell.(j) <- pin.Netlist.cell;
          pin_ox.(j) <- pin.Netlist.offset_x;
          pin_oy.(j) <- pin.Netlist.offset_y)
        ps)
    net_pins;
  let cell_pins = Array.map (fun (c : Netlist.cell) -> c.Netlist.cell_pins) cells in
  let cell_start = starts cell_pins in
  let cell_net = Array.make cell_start.(ncells) 0 in
  Array.iteri
    (fun c ps ->
      Array.iteri (fun k p -> cell_net.(cell_start.(c) + k) <- pins.(p).Netlist.net) ps)
    cell_pins;
  let xs = Array.map (fun (c : Netlist.cell) -> c.Netlist.x) cells in
  let ys = Array.map (fun (c : Netlist.cell) -> c.Netlist.y) cells in
  let ly = design.Netlist.region.Geometry.Rect.ly in
  let rh = design.Netlist.row_height in
  let blocks = Legalize.row_blockages design in
  let nrows = Array.length blocks in
  let row_of c = row_at ~ly ~rh ~nrows ys.(c) in
  (* bucket movable cells by row in descending id order (ties in x keep
     the order the sort finds them in), then sort each row by x *)
  let movable c = not cells.(c).Netlist.fixed in
  let fill = Array.make nrows 0 in
  for c = 0 to ncells - 1 do
    if movable c then fill.(row_of c) <- fill.(row_of c) + 1
  done;
  let rows = Array.map (fun k -> Array.make k 0) fill in
  for c = ncells - 1 downto 0 do
    if movable c then begin
      let r = row_of c in
      fill.(r) <- fill.(r) - 1;
      rows.(r).(Array.length rows.(r) - 1 - fill.(r)) <- c
    end
  done;
  Array.iter (Array.sort (fun a b -> Float.compare xs.(a) xs.(b))) rows;
  let slot = Array.make ncells (-1) in
  Array.iter (Array.iteri (fun i c -> slot.(c) <- i)) rows;
  let max_cell_pins =
    Array.fold_left (fun m ps -> max m (Array.length ps)) 1 cell_pins
  in
  let buf = max window 2 * max_cell_pins in
  { xs;
    ys;
    widths = Array.map (fun (c : Netlist.cell) -> c.Netlist.width) cells;
    net_start;
    pin_cell;
    pin_ox;
    pin_oy;
    cell_start;
    cell_net;
    ly;
    rh;
    nrows;
    rows;
    slot;
    blocks;
    stamp = Array.make (Array.length design.Netlist.nets) 0;
    tick = 0;
    nets = Array.make buf 0;
    n_nets = 0;
    mover = Array.make ncells (-1);
    out_lx = Array.make buf 0.0;
    out_hx = Array.make buf 0.0;
    out_ly = Array.make buf 0.0;
    out_hy = Array.make buf 0.0;
    mstart = Array.make (buf + 1) 0;
    mcell = Array.make buf 0;
    mox = Array.make buf 0.0;
    moy = Array.make buf 0.0;
    cx = Array.make (max window 2) 0.0;
    cy = Array.make (max window 2) 0.0;
    pair = Array.make 2 0;
    window;
    perms =
      (if Array.exists (fun row -> Array.length row >= window) rows then
         permutation_table window
       else [||]);
    want = Array.make 2 0.0 }

let row_of_cell st c = row_at ~ly:st.ly ~rh:st.rh ~nrows:st.nrows st.ys.(c)

(* Start a try that moves [cells] (from their current positions): mark
   them as movers, collect their nets with two or more pins, each once
   (a one-pin net has HPWL 0 and adds nothing), and split every net in
   one walk into the box of its other pins and its movers' pins. *)
let begin_try st cells first count =
  st.tick <- st.tick + 1;
  st.n_nets <- 0;
  for k = 0 to count - 1 do
    let c = cells.(first + k) in
    st.mover.(c) <- k;
    st.cx.(k) <- st.xs.(c);
    st.cy.(k) <- st.ys.(c);
    for q = st.cell_start.(c) to st.cell_start.(c + 1) - 1 do
      let n = st.cell_net.(q) in
      if n >= 0 && st.stamp.(n) <> st.tick
         && st.net_start.(n + 1) - st.net_start.(n) >= 2
      then begin
        st.stamp.(n) <- st.tick;
        st.nets.(st.n_nets) <- n;
        st.n_nets <- st.n_nets + 1
      end
    done
  done;
  let m = ref 0 in
  for t = 0 to st.n_nets - 1 do
    let n = st.nets.(t) in
    let lx = ref infinity and hx = ref neg_infinity in
    let ly = ref infinity and hy = ref neg_infinity in
    st.mstart.(t) <- !m;
    for j = st.net_start.(n) to st.net_start.(n + 1) - 1 do
      let c = st.pin_cell.(j) in
      let k = st.mover.(c) in
      if k < 0 then begin
        let x = st.xs.(c) +. st.pin_ox.(j) and y = st.ys.(c) +. st.pin_oy.(j) in
        lx := Float.min !lx x;
        ly := Float.min !ly y;
        hx := Float.max !hx x;
        hy := Float.max !hy y
      end
      else begin
        st.mcell.(!m) <- k;
        st.mox.(!m) <- st.pin_ox.(j);
        st.moy.(!m) <- st.pin_oy.(j);
        incr m
      end
    done;
    st.out_lx.(t) <- !lx;
    st.out_hx.(t) <- !hx;
    st.out_ly.(t) <- !ly;
    st.out_hy.(t) <- !hy
  done;
  st.mstart.(st.n_nets) <- !m;
  for k = 0 to count - 1 do
    st.mover.(cells.(first + k)) <- -1
  done

(* Summed HPWL of the try's nets with the movers at [st.cx]/[st.cy]:
   each net is its other pins' box widened by its movers' pins.  Min
   and max are exact, so every net's value equals [Netlist.net_hpwl]
   bit for bit; the sum runs in first-appearance order.  Stops once the
   partial sum reaches [limit]: the terms are non-negative, so the full
   sum would not be below it either. *)
let[@inline] moved_hpwl st limit =
  let h = ref 0.0 and t = ref 0 in
  while !t < st.n_nets && !h < limit do
    let lx = ref st.out_lx.(!t) and hx = ref st.out_hx.(!t) in
    let ly = ref st.out_ly.(!t) and hy = ref st.out_hy.(!t) in
    for q = st.mstart.(!t) to st.mstart.(!t + 1) - 1 do
      let k = st.mcell.(q) in
      let x = st.cx.(k) +. st.mox.(q) and y = st.cy.(k) +. st.moy.(q) in
      lx := Float.min !lx x;
      ly := Float.min !ly y;
      hx := Float.max !hx x;
      hy := Float.max !hy y
    done;
    h := !h +. (!hx -. !lx +. (!hy -. !ly));
    incr t
  done;
  !h

(* Does [lo, hi] meet a fixed cell crossing row [r]? *)
let[@inline] blocked st r lo hi =
  let b = st.blocks.(r) in
  let hit = ref false and k = ref 0 in
  while (not !hit) && !k < Array.length b do
    let b_lo, b_hi = b.(!k) in
    if b_lo < hi -. 1e-9 && b_hi > lo +. 1e-9 then hit := true;
    incr k
  done;
  !hit

(* ---- window reordering within one row ---- *)

(* [slots] are the cell ids of row [r] sorted by x; try every
   permutation of the cells in [slots.(i .. i+w-1)], left-packed inside
   their original span, and keep the best.  A window whose packed extent
   meets a fixed cell is skipped.  Returns true when a strictly better
   arrangement was applied. *)
let try_window st r slots i =
  let w = st.window in
  let first = slots.(i) in
  let left = st.xs.(first) -. (st.widths.(first) /. 2.0) in
  let right = ref left in
  for k = 0 to w - 1 do
    right := !right +. st.widths.(slots.(i + k))
  done;
  if blocked st r left !right then false
  else begin
    begin_try st slots i w;
    (* score the current positions (pi = -1), then every permutation
       left-packed from [left] *)
    let best = ref infinity and best_perm = ref (-1) in
    for pi = -1 to (Array.length st.perms / w) - 1 do
      if pi >= 0 then begin
        let cursor = ref left in
        for k = 0 to w - 1 do
          let j = st.perms.((pi * w) + k) in
          let wd = st.widths.(slots.(i + j)) in
          st.cx.(j) <- !cursor +. (wd /. 2.0);
          cursor := !cursor +. wd
        done
      end;
      let limit = if pi < 0 then infinity else !best -. 1e-9 in
      let h = moved_hpwl st limit in
      if h < limit then begin
        best := h;
        best_perm := pi
      end
    done;
    if !best_perm < 0 then false
    else begin
      let cursor = ref left in
      for k = 0 to w - 1 do
        let c = slots.(i + st.perms.((!best_perm * w) + k)) in
        st.xs.(c) <- !cursor +. (st.widths.(c) /. 2.0);
        cursor := !cursor +. st.widths.(c)
      done;
      (* keep the slot array sorted by x *)
      let slice = Array.sub slots i w in
      Array.sort (fun a b -> Float.compare st.xs.(a) st.xs.(b)) slice;
      Array.blit slice 0 slots i w;
      for k = i to i + w - 1 do
        st.slot.(slots.(k)) <- k
      done;
      true
    end
  end

(* ---- equal-width global swap ---- *)

(* Exchange the positions of [a] and [b] when that shortens their nets. *)
let try_swap st a b =
  st.pair.(0) <- a;
  st.pair.(1) <- b;
  begin_try st st.pair 0 2;
  let before = moved_hpwl st infinity in
  let ax = st.cx.(0) and ay = st.cy.(0) in
  st.cx.(0) <- st.cx.(1);
  st.cy.(0) <- st.cy.(1);
  st.cx.(1) <- ax;
  st.cy.(1) <- ay;
  let limit = before -. 1e-9 in
  if moved_hpwl st limit < limit then begin
    st.xs.(a) <- st.cx.(0);
    st.ys.(a) <- st.cy.(0);
    st.xs.(b) <- ax;
    st.ys.(b) <- ay;
    true
  end
  else false

(* Where the incident nets would like cell [c] to be: the center of the
   bounding box of its nets' other pins, written to [st.want].  False
   when the cell has no other pin on any net. *)
let desired_position st c =
  let lx = ref infinity and hx = ref neg_infinity in
  let ly = ref infinity and hy = ref neg_infinity in
  for k = st.cell_start.(c) to st.cell_start.(c + 1) - 1 do
    let n = st.cell_net.(k) in
    if n >= 0 then
      for j = st.net_start.(n) to st.net_start.(n + 1) - 1 do
        let cq = st.pin_cell.(j) in
        if cq <> c then begin
          let x = st.xs.(cq) +. st.pin_ox.(j) and y = st.ys.(cq) +. st.pin_oy.(j) in
          lx := Float.min !lx x;
          ly := Float.min !ly y;
          hx := Float.max !hx x;
          hy := Float.max !hy y
        end
      done
  done;
  if !lx > !hx then false
  else begin
    st.want.(0) <- 0.5 *. (!lx +. !hx);
    st.want.(1) <- 0.5 *. (!ly +. !hy);
    true
  end

(* The equal-width cell of row [r] nearest to x = [st.want.(0)], the
   first in row order on a tie; -1 when there is none. *)
let nearest_equal_width st r a =
  let row = st.rows.(r) in
  let wx = st.want.(0) and wa = st.widths.(a) in
  let best = ref (-1) and bd = ref infinity in
  for j = 0 to Array.length row - 1 do
    let b = row.(j) in
    if b <> a && Float.abs (st.widths.(b) -. wa) < 1e-9 then begin
      let d = Float.abs (st.xs.(b) -. wx) in
      if d < !bd then begin
        bd := d;
        best := b
      end
    end
  done;
  !best

let refine ?(obs = Obs.disabled) ?(passes = 3) ?(window = 3) design =
  if window < 2 then invalid_arg "Detailed.refine: window must be >= 2";
  Obs.start obs k_refine;
  let hpwl_before = Netlist.total_hpwl design in
  let st = create design window in
  let reorder_moves = ref 0 and swap_moves = ref 0 in
  let passes_run = ref 0 in
  let improved = ref true in
  while !improved && !passes_run < passes do
    improved := false;
    incr passes_run;
    (* phase 1: window reordering *)
    for r = 0 to st.nrows - 1 do
      let slots = st.rows.(r) in
      for i = 0 to Array.length slots - window do
        if try_window st r slots i then begin
          incr reorder_moves;
          improved := true
        end
      done
    done;
    (* phase 2: equal-width swaps toward each cell's desired position.
       The two cells exchange their exact slots, so each replaces the
       other in its row array and x-sortedness is preserved. *)
    for a_row = 0 to st.nrows - 1 do
      let order = Array.copy st.rows.(a_row) in
      for k = 0 to Array.length order - 1 do
        let a = order.(k) in
        if row_of_cell st a = a_row && desired_position st a then begin
          let target_row = row_at ~ly:st.ly ~rh:st.rh ~nrows:st.nrows st.want.(1) in
          let b = nearest_equal_width st target_row a in
          if b >= 0 && try_swap st a b then begin
            incr swap_moves;
            improved := true;
            let ia = st.slot.(a) and ib = st.slot.(b) in
            st.rows.(a_row).(ia) <- b;
            st.rows.(target_row).(ib) <- a;
            st.slot.(a) <- ib;
            st.slot.(b) <- ia
          end
        end
      done
    done
  done;
  Array.iteri
    (fun c (cell : Netlist.cell) ->
      if not cell.Netlist.fixed then begin
        cell.Netlist.x <- st.xs.(c);
        cell.Netlist.y <- st.ys.(c)
      end)
    design.Netlist.cells;
  Obs.add obs "detailed.reorder_moves" (float_of_int !reorder_moves);
  Obs.add obs "detailed.swap_moves" (float_of_int !swap_moves);
  Obs.stop obs;
  { passes_run = !passes_run;
    reorder_moves = !reorder_moves;
    swap_moves = !swap_moves;
    hpwl_before;
    hpwl_after = Netlist.total_hpwl design }
