(** The differentiable STA engine (paper §3).

    Forward: arrival times and slews propagate level by level exactly as
    in exact STA, except that every [max]/[min] aggregation is replaced
    by Log-Sum-Exp smoothing with width [gamma] (Eq. 5, 11), making
    [TNS_gamma(x, y)] and [WNS_gamma(x, y)] differentiable in every cell
    coordinate.

    Backward: gradients of [w_tns * (-TNS_gamma) + w_wns * (-WNS_gamma)]
    flow in reverse level order (the blue edges of Fig. 3): through the
    endpoint slack smoothing, the LSE aggregations (whose weights
    [exp ((x_i - LSE) / gamma)] sum to 1), the NLDM look-up-table queries
    (Fig. 6), the net slew/arrival recurrences (Eq. 10), the Elmore
    passes (Eq. 8) and finally the Steiner-point provenance (Fig. 4),
    producing d/d(cell center) for every movable cell.

    The forward pass is the kernel shared with the exact timer,
    {!Sta.Forward} at this engine's [gamma] (the exact timer runs it at
    [gamma = 0]); this module adds the endpoint slack smoothing and the
    backward pass.  The kernel only reads strictly lower levels, so it is
    dispatched data-parallel over the pins of a level (the CPU stand-in
    for the paper's CUDA kernels), and it records every NLDM LUT
    evaluation (value and partials) in a flat tape indexed by timing arc
    and transition pair, so each LUT is queried exactly once per
    forward/backward round trip.  The backward pass {e gathers}:
    each pin's adjoints are accumulated by that pin's own task from its
    fan-out state, which makes the reverse level sweep race-free and
    dispatchable through the same worker pool; the per-net Elmore adjoint
    is likewise sliced across workers with per-slice scratch. *)

type metrics = {
  wns : float;         (** hard min endpoint slack (may be positive). *)
  tns : float;         (** hard [sum (min 0 slack)]. *)
  wns_smooth : float;  (** the LSE-smoothed objective values. *)
  tns_smooth : float;
  endpoint_count : int;
}

type t

val create : ?gamma:float -> Sta.Graph.t -> t
(** [gamma] defaults to 100.0 ps (the paper's setting). *)

val nets : t -> Sta.Nets.t
(** The shared Steiner/RC state.  The caller controls the FLUTE cadence:
    call [Sta.Nets.rebuild] every k-th iteration and [Sta.Nets.refresh]
    otherwise, before {!forward}. *)

val forward : ?pool:Parallel.pool -> ?obs:Obs.t -> t -> metrics
(** Propagate on the current RC state (callers must have refreshed
    {!nets} after moving cells).  [obs] records a [difftimer.fwd]
    span. *)

val backward :
  ?pool:Parallel.pool ->
  ?obs:Obs.t ->
  t ->
  w_tns:float ->
  w_wns:float ->
  grad_x:float array ->
  grad_y:float array ->
  unit
(** Accumulate d[w_tns * (-TNS_g) + w_wns * (-WNS_g)]/d(cell center) into
    [grad_x]/[grad_y] (length [num_cells]).  Must follow a {!forward} on
    the same placement (the backward gather replays the forward LUT tape).
    With [pool], the reverse level sweep and the per-net Elmore adjoint
    run data-parallel; the Elmore slice split depends only on the net
    count and partials merge in slice order, so pooled gradients are
    bit-identical to sequential ones.  Gradients also accrue on fixed
    cells; callers mask them. *)

val at : t -> int -> Sta.transition -> float
(** Smoothed late arrival time after {!forward} ([neg_infinity] if
    unreachable). *)

val slew : t -> int -> Sta.transition -> float

val endpoint_slack : t -> int -> float
(** Smoothed slack of an endpoint pin after {!forward}; [infinity] for
    non-endpoints or unreachable endpoints. *)

val softmin0 : gamma:float -> float -> float
(** Exposed for tests: smoothed [min 0 s] (equals [-gamma * log (1 +
    exp (-s / gamma))]). *)
