(** Differentiable-timing-driven global placement (the paper's
    contribution, §3.6, Fig. 7).

    The engine minimises Eq. 6:

    [sum_e WL(e; x, y) + lambda D(x, y)
       + t1 (-TNS_gamma(x, y)) + t2 (-WNS_gamma(x, y))]

    by first-order updates on all movable cell centers.  Three modes
    share the identical wirelength + density machinery and stop
    criterion, matching how Table 3 compares placers:

    - {!Wirelength_only}: the plain DREAMPlace-style baseline [16];
    - {!Net_weighting}: exact STA + per-net weight escalation
      ({!Netweight}), with criticality from net slack (the
      state-of-the-art baseline [24], {!Netweight.default_config}) or
      from the top-K worst violating paths (the critical-path-extraction
      successor line, Shi et al., arXiv 2503.11674,
      {!Netweight.path_config});
    - {!Differentiable_timing}: this paper — gradients of the smoothed
      TNS/WNS flow through the differentiable STA engine into cell
      coordinates, activated once cells have spread (the paper starts
      timing around iteration 100), with [t1], [t2] grown 1% per
      iteration and Steiner trees rebuilt every 10 iterations.

    Each mode is one timing term that the driver adds after the
    wirelength and lambda D gradients: nothing for wirelength-only, net
    weights (and no gradient) for net weighting, and the smoothed
    TNS/WNS gradient for the differentiable timer.

    Every mode steps the cell coordinates with {!Optim} (Adam) from an
    initial step of 1/350 of the region side, decayed by 0.999 per
    iteration, on a wirelength model smoothed at 1% of the region side.
    The density weight lambda starts at 0.05 times the ratio of the
    wirelength to the density gradient norm and grows by 1.035 per
    iteration while the overflow is above [stop_overflow]; a bin's
    capacity is its whole free area (target density 1.0). *)

(** The differentiable timer's knobs.  Once active, the timing term
    adds the gradient of [t1 (-TNS_gamma) + t2 (-WNS_gamma)] after the
    wirelength and density gradients, then multiplies both weights by
    1.01 (the paper's published schedule). *)
type timing_config = {
  t1 : float;                   (** initial TNS weight (paper ~1e-2). *)
  t2 : float;                   (** initial WNS weight (paper ~1e-4). *)
  gamma : float;                (** LSE smoothing width (paper ~100 ps). *)
  activation_overflow : float;  (** start timing once overflow drops below. *)
  steiner_period : int;         (** FLUTE call cadence (paper 10). *)
  steiner_dirty : float option;
      (** dirty-net rebuild threshold in gamma units: on a rebuild tick,
          only nets with a pin displaced more than
          [steiner_dirty *. gamma] (L-inf) since their last
          topologisation are re-topologised; the rest take the O(1)
          provenance refresh.  [None] rebuilds every net each tick;
          [Some 0.] is bit-identical to [None] (pin-level tracking). *)
}

val default_timing : timing_config

type mode =
  | Wirelength_only
  | Net_weighting of Netweight.config
  | Differentiable_timing of timing_config

type config = {
  mode : mode;
  max_iterations : int;
  min_iterations : int;
  stop_overflow : float;        (** shared stop criterion (Table 3). *)
  init : [ `Center | `Keep ];
      (** [`Center]: start all movable cells near the region center
          (standard analytical-placement warm start); [`Keep]: use the
          positions already in the design. *)
  trace_timing_period : int;
      (** measure exact WNS/TNS for the trace every k iterations (0 =
          never).  Net weighting measures with its own exact timer,
          fully run at every weight update; wirelength-only
          mode runs one full STA at iteration 0.  Trace points between
          those full runs re-time the same timer on its frozen Steiner
          topologies ([Sta.Timer.run ~rebuild_trees:false]).
          Differentiable timing traces from its own metrics.  Powers
          Figure 8's baseline curves. *)
  routability : Route.config option;
      (** when set, run the RUDY + cell-inflation loop between
          placement rounds: once density overflow drops below
          [rt_check_overflow], every [rt_check_period] iterations the
          RUDY congestion map is measured and, if any bin exceeds
          [rt_target] utilization, cells in congested bins are
          temporarily bloated (bounded by [rt_max_rounds] rounds and a
          [rt_max_ratio] per-cell area cap) so the density penalty
          spreads them apart.  Original cell sizes are restored before
          the final metrics.  On designs that never congest the hook
          only reads, leaving positions bit-identical to
          [routability = None].  [None] (the default) disables the
          loop entirely. *)
  verbose : bool;
}

val default_config : config

type trace_point = {
  tp_iteration : int;
  tp_hpwl : float;
      (** exact HPWL ({!Netlist.total_hpwl}, bit for bit) at the
          positions after this iteration's step.  It is read from the
          next iteration's WA pass ({!Wirelength.last_hpwl}), which
          evaluates those same positions; the last point shares the
          final walk with [res_hpwl]. *)
  tp_overflow : float;
  tp_wns : float option;
      (** last measured WNS, carried forward between STA calls; [None]
          only before the first measurement. *)
  tp_tns : float option;
  tp_lambda : float;
}

type result = {
  res_hpwl : float;
  res_overflow : float;
  res_iterations : int;
  res_runtime : float;           (** wall-clock seconds (monotonic). *)
  res_timing_active_at : int option;
      (** iteration at which the timing objective switched on. *)
  res_trace : trace_point list;  (** chronological. *)
  res_route : Route.summary option;
      (** final congestion summary (RUDY on the finished placement,
          original cell sizes); [None] unless routability was on. *)
  res_inflation_rounds : int;
      (** inflation rounds actually executed (0 when routability is
          off or the design never congested). *)
  res_stop : [ `Converged | `Capped | `Diverged of int ];
      (** why the run stopped: [`Converged] met [stop_overflow] after
          [min_iterations]; [`Capped] ran [max_iterations] without
          converging; [`Diverged i]: the summed gradient went non-finite
          on a movable cell at iteration [i], and the run stopped there
          without stepping, leaving the last finite positions.  A
          V-cycle reports its finest level's reason. *)
}

val run : ?pool:Parallel.pool -> ?obs:Obs.t -> config -> Sta.Graph.t -> result
(** Optimise the placement in place (the design inside [graph] is
    mutated).  Returns final metrics and the per-iteration trace.
    [pool] parallelises every per-iteration kernel — wirelength,
    density, Steiner/RC maintenance, STA and the differentiable timer —
    and pooled runs are bit-identical to sequential ones (all parallel
    reductions split work independently of the pool and merge partials
    in a fixed order).

    [obs] (default {!Obs.disabled}) threads a span through every one of
    those kernels plus the optimizer step and the per-iteration
    bookkeeping, all under one [core.run] root span with iteration
    tags; with it disabled the run is bit-identical to an
    un-instrumented one. *)

(** Multilevel (coarsen/uncoarsen V-cycle) placement.  [ml_levels] is
    the total number of placement levels: 1 means flat ({!run_multilevel}
    is then exactly {!run}, bit for bit), [k > 1] requests up to [k - 1]
    {!Cluster} coarsening steps (fewer when the design stops reducing
    or drops below [ml_min_cells] movable cells).  [ml_cluster_ratio]
    is passed to {!Cluster.build}, with a net-degree cap of 16. *)
type multilevel = {
  ml_levels : int;
  ml_cluster_ratio : float;
  ml_min_cells : int;
}

val default_multilevel : multilevel
(** 2 levels, ratio 4.0, 1000-cell floor. *)

val run_multilevel :
  ?pool:Parallel.pool ->
  ?obs:Obs.t ->
  ?ml:multilevel ->
  config ->
  Sta.Graph.t ->
  result
(** V-cycle driver: coarsen ({!Cluster.build}, [cluster.coarsen] span),
    place the coarsest level (wirelength mode, center init, no trace,
    half-resolution grid, double steps and lambda growth [1.035 ** 2]),
    then alternately prolongate positions ([cluster.interp]) and refine
    until the finest level.  Every refine runs from the prolongated
    positions ([`Keep]) with 20 times the initial density weight and
    2.5 times the initial step; the refine at [d] coarsening steps below
    the coarsest placement is capped at [max_iterations *. 0.4 ** d]
    iterations (rounded, at least 20), so warm-started levels exit as
    soon as they meet their overflow target.  Intermediate refines
    place wirelength-only on the half-resolution grid without a trace,
    stop at [0.85 *. stop_overflow] and run at least 20 iterations.
    The finest refine applies the configured [mode], [routability]
    loop and trace cadence and the [config]'s stop criterion with a
    minimum of [min min_iterations 20] iterations; its density grid
    starts at half resolution and switches to the full grid once the
    overflow first meets [stop_overflow] (the lambda schedule, step
    size and optimizer state carry straight over, so only the final
    approach pays the full-resolution DCT).
    Each placement runs in a [cluster.refine] span and reuses the same
    [pool] and [obs].  The returned [result] is the finest run's, with
    [res_iterations] summed over all levels and [res_runtime] covering
    the whole V-cycle (coarsening included).  Deterministic: coarsening
    is sequential and {!run} is bit-identical at any domain count, so
    the full V-cycle is too. *)

val score : ?obs:Obs.t -> Sta.Graph.t -> Sta.Timer.report * float
(** Convenience: exact STA report and HPWL of the current placement
    (used to fill Table 3 after legalisation). *)
