type config = {
  rt_check_overflow : float;
  rt_check_period : int;
  rt_target : float;
  rt_capacity : float;
  rt_inflation_coef : float;
  rt_max_ratio : float;
  rt_max_rounds : int;
}

let default_config =
  { rt_check_overflow = 0.20;
    rt_check_period = 5;
    rt_target = 1.0;
    rt_capacity = 1.0;
    rt_inflation_coef = 2.5;
    rt_max_ratio = 2.5;
    rt_max_rounds = 4 }

module G = Density.Grid

module Rudy = struct
  type t = {
    design : Netlist.t;
    grid : G.t;
    capacity : float;
    pin_weight : float;
    dem : float array;   (* routing demand per bin *)
    util : float array;  (* dem / (capacity * bin_area) *)
  }

  let create ?bins ?capacity ?(pin_weight = 0.05) design =
    let grid = G.create ?bins ~items:(Netlist.num_nets design) design in
    let n = G.n grid in
    { design; grid;
      capacity =
        (match capacity with Some c -> c | None -> default_config.rt_capacity);
      pin_weight;
      dem = Array.make (n * n) 0.0;
      util = Array.make (n * n) 0.0 }

  let bins t = G.n t.grid

  (* Splat one net into [grid]: its wire demand smeared uniformly over
     the bins its bbox overlaps, plus [pin_weight] into each pin's bin.
     The bbox is clamped below at one bin per axis so flat (single-row
     or single-column) nets still register demand. *)
  let splat_net t grid net_id =
    let d = t.design in
    let pins = d.Netlist.nets.(net_id).Netlist.net_pins in
    if t.pin_weight > 0.0 then
      Array.iter
        (fun p ->
          let b = G.bin_of t.grid (Netlist.pin_x d p) (Netlist.pin_y d p) in
          grid.(b) <- grid.(b) +. t.pin_weight)
        pins;
    if Array.length pins >= 2 then begin
      let bb = ref Geometry.Bbox.empty in
      Array.iter
        (fun p ->
          bb := Geometry.Bbox.add_xy !bb (Netlist.pin_x d p) (Netlist.pin_y d p))
        pins;
      match Geometry.Bbox.to_rect !bb with
      | None -> ()
      | Some r ->
        let ew = Float.max (Geometry.Rect.width r) (G.bin_w t.grid) in
        let eh = Float.max (Geometry.Rect.height r) (G.bin_h t.grid) in
        let demand = ew *. eh /. (ew +. eh) in
        (* expand symmetrically around the original bbox center, then
           shift the box back inside the region so a net on its edge
           keeps all its demand *)
        let region = d.Netlist.region in
        let shift c half lo hi =
          if c -. half < lo then lo +. half
          else if c +. half > hi then hi -. half
          else c
        in
        let cx =
          shift (0.5 *. (r.Geometry.Rect.lx +. r.Geometry.Rect.hx)) (0.5 *. ew)
            region.Geometry.Rect.lx region.Geometry.Rect.hx
        in
        let cy =
          shift (0.5 *. (r.Geometry.Rect.ly +. r.Geometry.Rect.hy)) (0.5 *. eh)
            region.Geometry.Rect.ly region.Geometry.Rect.hy
        in
        G.splat t.grid grid ~weight:(demand /. (ew *. eh))
          { Geometry.Rect.lx = cx -. (0.5 *. ew); hx = cx +. (0.5 *. ew);
            ly = cy -. (0.5 *. eh); hy = cy +. (0.5 *. eh) }
    end

  let k_rudy = Obs.kernel "route.rudy"

  let update ?pool ?(obs = Obs.disabled) t =
    Obs.start obs k_rudy;
    (* per-chunk grids merged in chunk order: the split depends only on
       the net count, so pooled maps reproduce sequential ones bit for
       bit *)
    let grid = G.accumulate ?pool ~obs t.grid (splat_net t) in
    Array.blit grid 0 t.dem 0 (Array.length t.dem);
    let cap = t.capacity *. G.bin_area t.grid in
    Array.iteri (fun b dem -> t.util.(b) <- dem /. cap) t.dem;
    Obs.stop obs

  let demand t = t.dem
  let utilization t = t.util
end

type summary = {
  ov_peak : float;
  ov_rc : float;
  ov_congested : int;
  ov_total : float;
}

let k_overflow = Obs.kernel "route.overflow"

let overflow ?(obs = Obs.disabled) ?(percentile = 0.02) rudy =
  Obs.span obs k_overflow (fun () ->
    let util = Rudy.utilization rudy in
    let nb = Array.length util in
    let peak = ref 0.0 and congested = ref 0 and total = ref 0.0 in
    for b = 0 to nb - 1 do
      let u = util.(b) in
      if u > !peak then peak := u;
      if u > 1.0 then begin
        incr congested;
        total := !total +. (u -. 1.0)
      end
    done;
    let sorted = Array.copy util in
    Array.sort (fun a b -> compare (b : float) a) sorted;
    let k = max 1 (int_of_float (Float.ceil (percentile *. float_of_int nb))) in
    let k = min k nb in
    let acc = ref 0.0 in
    for i = 0 to k - 1 do
      acc := !acc +. sorted.(i)
    done;
    { ov_peak = !peak;
      ov_rc = !acc /. float_of_int k;
      ov_congested = !congested;
      ov_total = !total })

let pp_summary ppf s =
  Format.fprintf ppf
    "@[peak %.3f, rc %.3f, congested bins %d, total overflow %.3f@]"
    s.ov_peak s.ov_rc s.ov_congested s.ov_total

module Inflate = struct
  type t = {
    design : Netlist.t;
    orig_w : float array;
    orig_h : float array;
    mutable n_rounds : int;
  }

  let create design =
    { design;
      orig_w = Array.map (fun c -> c.Netlist.width) design.Netlist.cells;
      orig_h = Array.map (fun c -> c.Netlist.height) design.Netlist.cells;
      n_rounds = 0 }

  let rounds t = t.n_rounds

  let k_inflate = Obs.kernel "route.inflate"

  let step ?(obs = Obs.disabled) cfg t rudy =
    if t.n_rounds >= cfg.rt_max_rounds then 0
    else
      Obs.span obs k_inflate (fun () ->
        t.n_rounds <- t.n_rounds + 1;
        let d = t.design in
        let util = Rudy.utilization rudy and grid = rudy.Rudy.grid in
        let count = ref 0 in
        Array.iteri
          (fun i (c : Netlist.cell) ->
            if not c.Netlist.fixed then begin
              let u = util.(G.bin_of grid c.Netlist.x c.Netlist.y) in
              if u > cfg.rt_target then begin
                let orig_area = t.orig_w.(i) *. t.orig_h.(i) in
                let cur_ratio =
                  if orig_area > 0.0 then
                    c.Netlist.width *. c.Netlist.height /. orig_area
                  else cfg.rt_max_ratio
                in
                if cur_ratio < cfg.rt_max_ratio then begin
                  let want =
                    Float.pow (u /. cfg.rt_target) cfg.rt_inflation_coef
                  in
                  let m = Float.min want (cfg.rt_max_ratio /. cur_ratio) in
                  if m > 1.0 then begin
                    let s = Float.sqrt m in
                    c.Netlist.width <- c.Netlist.width *. s;
                    c.Netlist.height <- c.Netlist.height *. s;
                    incr count
                  end
                end
              end
            end)
          d.Netlist.cells;
        Obs.add obs "route.inflated_cells" (float_of_int !count);
        !count)

  (* Deflation hysteresis: a bin must fall below this fraction of the
     target before its cells start shrinking back, so a bin hovering at
     the threshold does not ping-pong between inflate and deflate. *)
  let deflate_hysteresis = 0.95

  let deflate ?(obs = Obs.disabled) cfg t rudy =
    if t.n_rounds = 0 then 0
    else
      Obs.span obs k_inflate (fun () ->
        let d = t.design in
        let util = Rudy.utilization rudy and grid = rudy.Rudy.grid in
        let count = ref 0 in
        Array.iteri
          (fun i (c : Netlist.cell) ->
            if not c.Netlist.fixed then begin
              let orig_area = t.orig_w.(i) *. t.orig_h.(i) in
              let cur_ratio =
                if orig_area > 0.0 then
                  c.Netlist.width *. c.Netlist.height /. orig_area
                else 1.0
              in
              if cur_ratio > 1.0 then begin
                let u = util.(G.bin_of grid c.Netlist.x c.Netlist.y) in
                if u < deflate_hysteresis *. cfg.rt_target then begin
                  (* geometric relaxation toward the original footprint:
                     halve the log-excess each pass rather than snapping
                     back, damping inflate/deflate oscillation; the last
                     4% snaps exactly so the pass terminates instead of
                     asymptoting *)
                  if cur_ratio <= 1.04 then begin
                    c.Netlist.width <- t.orig_w.(i);
                    c.Netlist.height <- t.orig_h.(i);
                    incr count
                  end
                  else begin
                    let new_ratio = Float.sqrt cur_ratio in
                    let s = Float.sqrt (new_ratio /. cur_ratio) in
                    c.Netlist.width <- c.Netlist.width *. s;
                    c.Netlist.height <- c.Netlist.height *. s;
                    incr count
                  end
                end
              end
            end)
          d.Netlist.cells;
        Obs.add obs "route.deflated_cells" (float_of_int !count);
        !count)

  let restore t =
    Array.iteri
      (fun i (c : Netlist.cell) ->
        c.Netlist.width <- t.orig_w.(i);
        c.Netlist.height <- t.orig_h.(i))
      t.design.Netlist.cells
end
