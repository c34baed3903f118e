(** Momentum net weighting: the state-of-the-art baseline [24]
    (DREAMPlace 4.0, DATE 2022) that the paper compares against (§2.3),
    and the path-criticality variant of Shi et al., "Timing-Driven
    Global Placement by Efficient Critical Path Extraction" (arXiv
    2503.11674).  Both are one engine; only the criticality source
    differs.

    Every [period] placement iterations the exact STA engine runs on the
    current placement and each net gets a criticality [c] in [0, 1]:

    - {!Net_slack} ([24]): [min 1 (-net_slack / max 1 |WNS|)], 0 for a
      net with non-negative slack;
    - {!Top_paths} [k]: {!Paths.net_criticality} over the [k] globally
      worst violating paths ({!Paths.enumerate} with [slack_limit 0]),
      divided by its maximum over nets.

    The criticality is smoothed with momentum, [m <- beta m + (1 - beta) c],
    and folded into the net's wirelength weight (Eq. 4): the excess
    [w - 1] is first kept at factor [decay + (1 - decay) min 1 m], then
    a net with [m > 0] is escalated to [w (1 + alpha m)], capped at
    [max_weight].  With [decay = 1] the relaxation is the identity and
    weights only ever grow — the cumulative weighting of [24]; with
    [decay < 1] a net that leaves every violating path sheds its
    inflated weight geometrically. *)

type criticality =
  | Net_slack          (** worst pin slack over the net, as in [24]. *)
  | Top_paths of int   (** the [k] worst violating paths. *)

type config = {
  criticality : criticality;
  alpha : float;      (** multiplicative strength per update. *)
  beta : float;       (** momentum on criticality. *)
  max_weight : float; (** weight cap. *)
  decay : float;      (** relaxation of the excess weight; 1 never relaxes. *)
  period : int;       (** placement iterations between STA calls. *)
}

val default_config : config
(** [24]: [Net_slack], [alpha = 0.12], [beta = 0.5], [max_weight = 16],
    [decay = 1], [period = 3]. *)

val path_config : config
(** Path weighting: [Top_paths 32], [alpha = 0.15], [beta = 0.5],
    [max_weight = 16], [decay = 0.85], [period = 3]. *)

type t

val create : ?config:config -> Sta.Graph.t -> t

val timer : t -> Sta.Timer.t
(** The engine's exact timer (reusable for trace sampling). *)

val update : ?pool:Parallel.pool -> ?obs:Obs.t -> t -> Sta.Timer.report
(** Run exact STA on the current placement (Steiner trees rebuilt) and
    update the weights of the nets in the underlying design.  Returns
    the timing report so callers can trace WNS/TNS.  [pool] parallelises
    the STA run and, for [Top_paths], the path enumeration.  [obs]
    records the whole update as a [netweight.update] span (the nested
    STA and path searches report their own spans). *)

val should_update : t -> int -> bool
(** [should_update t iter] is true when [iter] is a scheduled STA
    iteration. *)
