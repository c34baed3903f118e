type timing_config = {
  t1 : float;
  t2 : float;
  gamma : float;
  activation_overflow : float;
  steiner_period : int;
  steiner_dirty : float option;
}

(* The paper sets t1 ~ 1e-2, t2 ~ 1e-4 and gamma ~ 100 ps for ~10 ns-scale
   industrial designs.  Our synthetic designs run at ~1 ns clocks with a
   smaller wirelength term, so the equivalents rescale: gamma is ~2% of
   the clock period and t1/t2 are calibrated so the timing gradient is a
   comparable fraction of the wirelength gradient (see EXPERIMENTS.md). *)
let default_timing =
  { t1 = 0.10; t2 = 0.10; gamma = 20.0; activation_overflow = 0.45;
    steiner_period = 10; steiner_dirty = Some 0.25 }

type mode =
  | Wirelength_only
  | Net_weighting of Netweight.config
  | Differentiable_timing of timing_config

type config = {
  mode : mode;
  max_iterations : int;
  min_iterations : int;
  stop_overflow : float;
  init : [ `Center | `Keep ];
  trace_timing_period : int;
  routability : Route.config option;
  verbose : bool;
}

let default_config =
  { mode = Wirelength_only;
    max_iterations = 600;
    min_iterations = 80;
    stop_overflow = 0.08;
    init = `Center;
    trace_timing_period = 0;
    routability = None;
    verbose = false }

(* The engine's constants: the paper's 1.01 per-iteration timing-weight
   growth; the step size decay; the initial density weight as a
   fraction of the wirelength gradient norm, and its per-iteration
   growth. *)
let timing_growth = 1.01
let lr_decay = 0.999
let lambda_relative = 0.05
let lambda_growth = 1.035

type trace_point = {
  tp_iteration : int;
  tp_hpwl : float;
  tp_overflow : float;
  tp_wns : float option;
  tp_tns : float option;
  tp_lambda : float;
}

type result = {
  res_hpwl : float;
  res_overflow : float;
  res_iterations : int;
  res_runtime : float;
  res_timing_active_at : int option;
  res_trace : trace_point list;
  res_route : Route.summary option;
  res_inflation_rounds : int;
  res_stop : [ `Converged | `Capped | `Diverged of int ];
}

let l1_norm mask g =
  let acc = ref 0.0 in
  Array.iteri (fun i v -> if mask.(i) then acc := !acc +. Float.abs v) g;
  !acc

let init_positions design =
  let region = design.Netlist.region in
  let c = Geometry.Rect.center region in
  let w = Geometry.Rect.width region and h = Geometry.Rect.height region in
  Array.iter
    (fun (cell : Netlist.cell) ->
      if not cell.Netlist.fixed then begin
        let id = cell.Netlist.cell_id in
        cell.Netlist.x <-
          c.Geometry.Point.x
          +. (0.12 *. w *. (Cluster.hash_float id 17 -. 0.5));
        cell.Netlist.y <-
          c.Geometry.Point.y
          +. (0.12 *. h *. (Cluster.hash_float id 43 -. 0.5))
      end)
    design.Netlist.cells

type multilevel = {
  ml_levels : int;
  ml_cluster_ratio : float;
  ml_min_cells : int;
}

let default_multilevel =
  { ml_levels = 2; ml_cluster_ratio = 4.0; ml_min_cells = 1000 }

(* The V-cycle's constants: the net-degree cap passed to
   [Cluster.build]; the refine iteration cap's decay per level and its
   floor; the refines' initial density weight boost and step scale. *)
let ml_max_net_degree = 16
let refine_fraction = 0.4
let refine_min_iterations = 20
let refine_lambda_boost = 20.0
let refine_lr_scale = 2.5

(* Which placement a run is: the flat engine, or one level of the
   V-cycle.  The level fixes the step size, the initial density weight
   and its growth, the density grid side, the grid relaxation and
   whether the run keeps a trace. *)
type level =
  | Flat
  | Coarsest  (* cold start on the fewest, fattest clusters *)
  | Refine    (* warm-started intermediate level *)
  | Finest    (* warm-started original design *)

(* Levels below the finest place plain wirelength+density problems
   whose traces nobody reads.  Their fat cluster cells spread on half
   the flat grid resolution, which halves the DCT cost per iteration
   while still resolving multi-cell bins. *)
let coarse = function Coarsest | Refine -> true | Flat | Finest -> false

let score ?(obs = Obs.disabled) graph =
  let timer = Sta.Timer.create graph in
  let report = Sta.Timer.run ~obs timer in
  (report, Netlist.total_hpwl graph.Sta.Graph.design)

let region_side (design : Netlist.t) =
  let r = design.Netlist.region in
  Float.max (Geometry.Rect.width r) (Geometry.Rect.height r)

(* The initial step size: the region side / 350 for the flat engine.
   The coarsest level takes double steps: cluster cells are few and
   fat, so the anneal tolerates double-size steps (and double-speed
   lambda growth) that would wreck the flat engine's quality at full
   resolution.  Warm-started refines are step-limited, not
   schedule-limited: the remaining work is short-range untangling
   against a strong boosted density force, and the flat engine's
   conservative cold-start step makes cells crawl through it.  Larger
   steps traverse the tail in far fewer of the expensive finest-level
   iterations, and measurably improve HPWL as well (each lambda value
   is annealed closer to its equilibrium before the weight grows
   again). *)
let step_size level design =
  let base = region_side design /. 350.0 in
  match level with
  | Flat -> base
  | Coarsest -> 2.0 *. base
  | Refine | Finest -> base *. refine_lr_scale

(* The initial density weight, as a fraction of the wirelength gradient
   norm.  Warm-started refines resume an almost-spread placement, but
   [run] recalibrates lambda from scratch; boosting the initial weight
   skips the dozens of iterations the flat schedule spends growing it
   back to where the coarser level left off. *)
let lambda_start = function
  | Flat | Coarsest -> lambda_relative
  | Refine | Finest -> lambda_relative *. refine_lambda_boost

let lambda_step = function
  | Coarsest -> lambda_growth ** 2.0
  | Flat | Refine | Finest -> lambda_growth

(* y += a x *)
let axpy a x y =
  for k = 0 to Array.length y - 1 do
    y.(k) <- y.(k) +. (a *. x.(k))
  done

(* true when every movable cell's gradient is finite *)
let all_finite mask gx gy =
  let rec from i =
    i < 0
    || ((not mask.(i) || (Float.is_finite gx.(i) && Float.is_finite gy.(i)))
        && from (i - 1))
  in
  from (Array.length gx - 1)

(* Clamp the movable cells into the region and write them back. *)
let sync_to_design (design : Netlist.t) mask xs ys =
  let region = design.Netlist.region in
  Array.iteri
    (fun i (c : Netlist.cell) ->
      if mask.(i) then begin
        let hw = c.Netlist.width /. 2.0 and hh = c.Netlist.height /. 2.0 in
        xs.(i) <-
          Geometry.clamp ~lo:(region.Geometry.Rect.lx +. hw)
            ~hi:(region.Geometry.Rect.hx -. hw) xs.(i);
        ys.(i) <-
          Geometry.clamp ~lo:(region.Geometry.Rect.ly +. hh)
            ~hi:(region.Geometry.Rect.hy -. hh) ys.(i);
        c.Netlist.x <- xs.(i);
        c.Netlist.y <- ys.(i)
      end)
    design.Netlist.cells

(* ---- The placement term: WL + lambda D (the driver owns lambda). ---- *)

(* The density model on the default grid, halved (never below 16) for
   the relaxed phase and the coarse V-cycle levels.  Rebuilt when the
   relaxation ends and after every change of cell footprints:
   routability inflation invalidates the area totals the model caches
   at creation. *)
let density_model level design ~relaxed =
  let bins = Density.Grid.side design in
  let bins = if relaxed || coarse level then max 16 (bins / 2) else bins in
  Density.create ~bins design

type placement = {
  level : level;
  wl : Wirelength.t;
  mutable dens : Density.t;
  mutable relaxed : bool;  (* still on the half-resolution grid *)
  dgx : float array;       (* unit-weight density gradient *)
  dgy : float array;
  route : (Route.config * Route.Inflate.t * Route.Rudy.t) option;
}

(* The finest V-cycle level starts relaxed: a warm start does not need
   the full-resolution density grid (whose DCT dominates the iteration
   cost) until the overflow is within striking distance of the target.
   The flat engine keeps full resolution throughout — its cold start
   has to resolve the center-init blob from iteration one. *)
let placement_term level config design =
  let n = Netlist.num_cells design in
  let relaxed = level = Finest in
  { level;
    wl = Wirelength.create ~gamma:(0.01 *. region_side design) design;
    dens = density_model level design ~relaxed;
    relaxed;
    dgx = Array.make n 0.0;
    dgy = Array.make n 0.0;
    route =
      Option.map
        (fun (rc : Route.config) ->
          ( rc, Route.Inflate.create design,
            Route.Rudy.create ~capacity:rc.rt_capacity design ))
        config.routability }

let density_norm mask p =
  Float.max 1e-12 (l1_norm mask p.dgx +. l1_norm mask p.dgy)

(* The net-weighted WL gradient into [gx]/[gy], the unit-weight density
   gradient into [p.dgx]/[p.dgy].  Returns the overflow and, when the
   relaxed grid ends, the half grid's density-gradient L1 norm.  Half
   grids under-report overflow, so the full grid takes over once the
   half grid meets the stop target and its overflow counts from then. *)
let placement_gradient ?pool ~obs config design mask p ~gx ~gy =
  let n = Array.length gx in
  Array.fill gx 0 n 0.0;
  Array.fill gy 0 n 0.0;
  ignore
    (Wirelength.evaluate p.wl ?pool ~obs ~weighted:true ~grad_x:gx ~grad_y:gy
       ());
  let density () =
    Density.update ?pool ~obs p.dens;
    let overflow = Density.overflow p.dens in
    Array.fill p.dgx 0 n 0.0;
    Array.fill p.dgy 0 n 0.0;
    Density.gradient ?pool ~obs p.dens ~scale:1.0 ~grad_x:p.dgx ~grad_y:p.dgy;
    overflow
  in
  let overflow = density () in
  if p.relaxed && overflow <= config.stop_overflow then begin
    p.relaxed <- false;
    let d_old = l1_norm mask p.dgx +. l1_norm mask p.dgy in
    p.dens <- density_model p.level design ~relaxed:false;
    (density (), Some d_old)
  end
  else (overflow, None)

(* The routability hook: once cells have spread enough for bin demand to
   be meaningful, periodically measure RUDY congestion, deflate cells
   whose bins fell back below target (freeing area first), then bloat
   cells in over-utilized bins.  Uncongested runs only read, so they stay
   bit-identical to routability-off ones. *)
let route_step ?pool ~obs config design p i overflow =
  match p.route with
  | Some (rc, infl, rd)
    when overflow < rc.Route.rt_check_overflow
         && rc.Route.rt_check_period > 0
         && i mod rc.Route.rt_check_period = 0
         && (Route.Inflate.rounds infl < rc.Route.rt_max_rounds
             || Route.Inflate.rounds infl > 0) ->
    Route.Rudy.update ?pool ~obs rd;
    let s = Route.overflow ~obs rd in
    let deflated = Route.Inflate.deflate ~obs rc infl rd in
    let inflated =
      if s.Route.ov_peak > rc.Route.rt_target then
        Route.Inflate.step ~obs rc infl rd
      else 0
    in
    if inflated > 0 || deflated > 0 then begin
      p.dens <- density_model p.level design ~relaxed:p.relaxed;
      if config.verbose then
        Format.eprintf
          "[core] it %4d  routability: peak %.2f rc %.2f, inflated %d / \
           deflated %d cells (round %d)@."
          i s.Route.ov_peak s.Route.ov_rc inflated deflated
          (Route.Inflate.rounds infl)
    end
  | _ -> ()

(* Inflation is temporary: restore the true footprints, then measure the
   final overflow and congestion on them.  Returns (overflow, congestion
   summary, inflation rounds). *)
let placement_finish ?pool ~obs design p =
  let summary, rounds =
    match p.route with
    | None -> (None, 0)
    | Some (_, infl, rd) ->
      let rounds = Route.Inflate.rounds infl in
      if rounds > 0 then begin
        Route.Inflate.restore infl;
        p.dens <- density_model p.level design ~relaxed:p.relaxed
      end;
      Route.Rudy.update ?pool ~obs rd;
      (Some (Route.overflow ~obs rd), rounds)
  in
  Density.update ~obs p.dens;
  (Density.overflow p.dens, summary, rounds)

(* ---- The timing term, by mode. ---- *)

(* One iteration of the timing term: [step ~sample i overflow ~gx ~gy]
   adds its gradient into [gx]/[gy] (after WL and lambda D) and returns
   the (WNS, TNS) it measured, if any; [sample] marks a trace point.
   [active_at] is the iteration the timing objective switched on. *)
type timing_term = {
  step :
    sample:bool -> int -> float -> gx:float array -> gy:float array ->
    (float * float) option;
  active_at : unit -> int option;
}

let no_timing =
  { step = (fun ~sample:_ _ _ ~gx:_ ~gy:_ -> None);
    active_at = (fun () -> None) }

let measured (r : Sta.Timer.report) =
  Some (r.Sta.Timer.setup_wns, r.Sta.Timer.setup_tns)

(* An exact timer whose [update] runs when [due] — a net-weighting
   update (criticality from one full STA run, folded into the net
   weights the WL term reads), or wirelength-only mode's one full run
   at iteration 0.  Trace points in between re-time the same timer on
   its frozen Steiner topologies.  Adds no gradient. *)
let exact ?pool ~obs timer due update =
  let step ~sample i _ ~gx:_ ~gy:_ =
    if due i then measured (update ())
    else if sample then
      measured (Sta.Timer.run ~rebuild_trees:false ?pool ~obs timer)
    else None
  in
  { step; active_at = (fun () -> None) }

(* The differentiable timer, active from the first iteration whose
   overflow is below [activation_overflow] (timing means nothing before
   cells spread).  Once active it adds the gradient of
   w_tns (-TNS_gamma) + w_wns (-WNS_gamma), grows both weights by
   [timing_growth] and returns the timer's (WNS, TNS). *)
let smooth ?pool ~obs ~verbose c graph =
  let dt = Difftimer.create ~gamma:c.gamma graph in
  let n = Netlist.num_cells graph.Sta.Graph.design in
  let tgx = Array.make n 0.0 and tgy = Array.make n 0.0 in
  let active_at = ref None and w_tns = ref c.t1 and w_wns = ref c.t2 in
  (* the dirty threshold scales with gamma: pin motion small relative
     to the LSE smoothing width cannot change which topology matters *)
  let dirty_threshold =
    match c.steiner_dirty with
    | Some g when g >= 0.0 -> Some (g *. c.gamma)
    | _ -> None
  in
  let step ~sample:_ i overflow ~gx ~gy =
    if !active_at = None && overflow < c.activation_overflow then begin
      active_at := Some i;
      if verbose then
        Format.eprintf "[core] timing objective active at iteration %d@." i
    end;
    match !active_at with
    | None -> None
    | Some t0 ->
      let nets = Difftimer.nets dt in
      if (i - t0) mod max 1 c.steiner_period = 0 then
        Sta.Nets.rebuild ?dirty_threshold ?pool ~obs nets
      else Sta.Nets.refresh ?pool ~obs nets;
      let m = Difftimer.forward ?pool ~obs dt in
      Array.fill tgx 0 n 0.0;
      Array.fill tgy 0 n 0.0;
      Difftimer.backward ?pool ~obs dt ~w_tns:!w_tns ~w_wns:!w_wns
        ~grad_x:tgx ~grad_y:tgy;
      w_tns := !w_tns *. timing_growth;
      w_wns := !w_wns *. timing_growth;
      axpy 1.0 tgx gx;
      axpy 1.0 tgy gy;
      Some (m.Difftimer.wns, m.Difftimer.tns)
  in
  { step; active_at = (fun () -> !active_at) }

let timing_term ?pool ~obs config graph =
  match config.mode with
  | Net_weighting cfg ->
    let nw = Netweight.create ~config:cfg graph in
    exact ?pool ~obs (Netweight.timer nw) (Netweight.should_update nw)
      (fun () -> Netweight.update ?pool ~obs nw)
  | Wirelength_only when config.trace_timing_period > 0 ->
    let timer = Sta.Timer.create graph in
    exact ?pool ~obs timer (fun i -> i = 0) (fun () ->
      Sta.Timer.run ?pool ~obs timer)
  | Wirelength_only -> no_timing
  | Differentiable_timing c ->
    smooth ?pool ~obs ~verbose:config.verbose c graph

(* ---- The driver. ---- *)

let k_run = Obs.kernel "core.run"
let k_step = Obs.kernel "optim.step"
let k_trace = Obs.kernel "core.trace"

let run_level ?pool ~obs level config graph =
  let design = graph.Sta.Graph.design in
  let start_time = Obs.Clock.now () in
  Obs.start obs k_run;
  (match config.init with
   | `Center -> init_positions design
   | `Keep -> ());
  Netlist.reset_weights design;
  let ncells = Netlist.num_cells design in
  let cells = design.Netlist.cells in
  let mask = Array.map (fun (c : Netlist.cell) -> not c.Netlist.fixed) cells in
  let placement = placement_term level config design in
  let opt_x = Optim.create ~n:ncells in
  let opt_y = Optim.create ~n:ncells in
  let xs = Array.map (fun (c : Netlist.cell) -> c.Netlist.x) cells in
  let ys = Array.map (fun (c : Netlist.cell) -> c.Netlist.y) cells in
  let gx = Array.make ncells 0.0 and gy = Array.make ncells 0.0 in
  sync_to_design design mask xs ys;
  let timing = timing_term ?pool ~obs config graph in
  let lambda = ref 0.0 and lr = ref (step_size level design) in
  (* the last measured (WNS, TNS), carried forward so trace points
     between measurements repeat it; [None] until the first *)
  let last = ref None in
  let trace = ref [] in
  (* The newest trace point waits for its HPWL: the next iteration's WA
     pass reads the very positions it was taken at (only [route_step]
     runs in between, and it changes sizes only), and
     [Wirelength.last_hpwl] is then the walk [Netlist.total_hpwl] would
     make, bit for bit. *)
  let pending = ref None in
  let settle hpwl =
    match !pending with
    | Some p ->
      trace := { p with tp_hpwl = hpwl () } :: !trace;
      pending := None
    | None -> ()
  in
  (* Returns the iterations run and why the run stopped. *)
  let rec iterate i =
    if i >= config.max_iterations then (i, `Capped)
    else begin
      Obs.set_iteration obs i;
      let overflow, relaxed_norm =
        placement_gradient ?pool ~obs config design mask placement ~gx ~gy
      in
      (* lambda starts as a fixed fraction of the WL gradient norm, and
         is rescaled across a change of density grid so the density
         force stays continuous (coarser grids give smaller
         gradients) *)
      if i = 0 then
        lambda :=
          lambda_start level *. (l1_norm mask gx +. l1_norm mask gy)
          /. density_norm mask placement
      else
        Option.iter
          (fun d_old ->
            lambda := !lambda *. d_old /. density_norm mask placement)
          relaxed_norm;
      axpy !lambda placement.dgx gx;
      axpy !lambda placement.dgy gy;
      let sample =
        config.trace_timing_period > 0 && i mod config.trace_timing_period = 0
      in
      let measured = timing.step ~sample i overflow ~gx ~gy in
      if measured <> None then last := measured;
      if not (all_finite mask gx gy) then begin
        if config.verbose then
          Format.eprintf "[core] it %4d  non-finite gradient: stopped@." i;
        (i, `Diverged i)
      end
      else begin
        Obs.start obs k_step;
        Optim.step opt_x ~lr:!lr ~params:xs ~grads:gx ~mask ();
        Optim.step opt_y ~lr:!lr ~params:ys ~grads:gy ~mask ();
        Obs.stop obs;
        Obs.start obs k_trace;
        sync_to_design design mask xs ys;
        (* The density weight anneals only while the placement is still
           too dense.  Flat runs never notice (meeting the target is the
           exit condition), but a warm-started refine held past the
           target by [min_iterations] polishes wirelength at frozen
           pressure instead of over-spreading. *)
        if overflow > config.stop_overflow then
          lambda := !lambda *. lambda_step level;
        lr := !lr *. lr_decay;
        (* coarse V-cycle levels keep no trace: the caller discards it *)
        if not (coarse level) then begin
          settle (fun () -> Wirelength.last_hpwl placement.wl);
          pending :=
            Some
              { tp_iteration = i; tp_hpwl = Float.nan;
                tp_overflow = overflow; tp_wns = Option.map fst !last;
                tp_tns = Option.map snd !last; tp_lambda = !lambda }
        end;
        Obs.stop obs;
        route_step ?pool ~obs config design placement i overflow;
        if config.verbose && i mod 50 = 0 then
          Format.eprintf "[core] it %4d  hpwl %.3e  ovf %.3f  %s@." i
            (Netlist.total_hpwl design) overflow
            (match !last with
             | Some (wns, tns) -> Printf.sprintf "wns %.1f  tns %.1f" wns tns
             | None -> "wns -  tns -");
        if overflow <= config.stop_overflow && i >= config.min_iterations
        then (i + 1, `Converged)
        else iterate (i + 1)
      end
    end
  in
  let iterations, stop = iterate 0 in
  let overflow, route, inflation_rounds =
    placement_finish ?pool ~obs design placement
  in
  Obs.stop obs;
  (* the final positions: no WA pass read them unless the run diverged *)
  let hpwl = Netlist.total_hpwl design in
  settle (fun () -> hpwl);
  { res_hpwl = hpwl;
    res_overflow = overflow;
    res_iterations = iterations;
    res_runtime = Obs.Clock.now () -. start_time;
    res_timing_active_at = timing.active_at ();
    res_trace = List.rev !trace;
    res_route = route;
    res_inflation_rounds = inflation_rounds;
    res_stop = stop }

let run ?pool ?(obs = Obs.disabled) config graph =
  run_level ?pool ~obs Flat config graph

let k_refine = Obs.kernel "cluster.refine"

(* The coarsen/uncoarsen V-cycle.  Coarse levels are placed as plain
   wirelength+density problems (cluster cells are [lib_cell = -1], so
   their timing graphs carry no arcs); the configured mode, routability
   loop and trace cadence apply only to the finest level.  The finest
   run starts from the interpolated positions ([`Keep]) with a decayed
   iteration cap and a small floor, so a warm-started level stops as
   soon as it meets the same overflow target the flat engine uses —
   that early exit is where the wall-clock win comes from. *)
let run_multilevel ?pool ?(obs = Obs.disabled) ?(ml = default_multilevel)
    config graph =
  if ml.ml_levels <= 1 then run ?pool ~obs config graph
  else begin
    let t_start = Obs.Clock.now () in
    let design = graph.Sta.Graph.design in
    let lvls =
      Cluster.build ~levels:(ml.ml_levels - 1)
        ~cluster_ratio:ml.ml_cluster_ratio ~max_net_degree:ml_max_net_degree
        ~min_cells:ml.ml_min_cells ~obs design
    in
    match lvls with
    | [] -> run ?pool ~obs config graph
    | _ ->
      let nlevels = List.length lvls in
      let coarse_graph nl =
        Sta.Graph.build nl graph.Sta.Graph.lib graph.Sta.Graph.constraints
      in
      (* iteration cap for the refine at [depth] coarsening steps below
         the coarsest run (1 = first refine, nlevels = finest) *)
      let budget depth =
        max refine_min_iterations
          (int_of_float
             (Float.round
                (float_of_int config.max_iterations
                 *. (refine_fraction ** float_of_int depth))))
      in
      let coarse_config =
        { config with mode = Wirelength_only; trace_timing_period = 0;
          routability = None }
      in
      let coarsest = (List.nth lvls (nlevels - 1)).Cluster.coarse in
      let r0 =
        Obs.span obs k_refine (fun () ->
          run_level ?pool ~obs Coarsest
            { coarse_config with init = `Center }
            (coarse_graph coarsest))
      in
      Obs.add obs "multilevel.coarse_iters"
        (float_of_int r0.res_iterations);
      let iters = ref r0.res_iterations in
      let last = ref r0 in
      List.iteri
        (fun k lvl ->
          let depth = k + 1 in
          let finest = depth = nlevels in
          Cluster.interpolate ~obs lvl;
          let level, cfg =
            if finest then
              ( Finest,
                { config with init = `Keep;
                  max_iterations = budget depth;
                  min_iterations =
                    min config.min_iterations refine_min_iterations } )
            else
              (* Intermediate refines stop slightly tighter than the
                 flat target: one of their cheap iterations saves
                 several at the next (4x more expensive) level. *)
              ( Refine,
                { coarse_config with init = `Keep;
                  stop_overflow = 0.85 *. config.stop_overflow;
                  max_iterations = budget depth;
                  min_iterations = refine_min_iterations } )
          in
          let g = if finest then graph else coarse_graph lvl.Cluster.fine in
          let r =
            Obs.span obs k_refine (fun () -> run_level ?pool ~obs level cfg g)
          in
          Obs.add obs
            (Printf.sprintf "multilevel.refine%d_iters" depth)
            (float_of_int r.res_iterations);
          iters := !iters + r.res_iterations;
          last := r)
        (List.rev lvls);
      Obs.gauge obs "multilevel.levels" (float_of_int (nlevels + 1));
      { !last with
        res_iterations = !iters;
        res_runtime = Obs.Clock.now () -. t_start }
  end
