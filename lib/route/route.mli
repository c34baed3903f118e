(** Routability estimation and cell inflation (RUDY + bloat loop).

    The placer's density penalty spreads cell {e area} but is blind to
    routing demand: a region can satisfy the density target while far
    more wires want to cross it than the routing layers can carry.
    This module adds the missing axis in three parts:

    - {!Rudy}: a RUDY-style (Rectangular Uniform wire DensitY) routing
      demand map.  Each net contributes a total demand of
      [w*h / (w + h)] (its bbox dimensions, clamped below at one bin so
      flat nets still count) smeared uniformly over the bins its
      bounding box overlaps; a box the clamp pushed across the region's
      edge is shifted back inside, so edge nets keep their whole
      demand.  A fixed per-pin term is added, splatted into
      the pin's bin.  The map lives on the placement bin grid
      ([Density.Grid]: same sizing, bin lookup, rectangle splat and
      pooled chunk-order reduction as the density map), so it is
      bit-identical at every domain count.
    - {!overflow}: a congestion summary over the demand map — peak bin
      utilization, an RC-style mean of the top-percentile bins, and
      overflow totals.
    - {!Inflate}: a bounded cell-inflation loop.  Cells sitting in
      congested bins get their footprint bloated (area ratio
      [(u / target) ** coef], cumulatively capped), which makes the
      density penalty push neighbours away and thins the hotspot.
      Inflation is temporary: {!Inflate.restore} puts every original
      width/height back.

    [Core.run] drives the loop between placement rounds when its
    [routability] config block is set; everything here is also usable
    standalone on a finished placement (reporting, viz overlays). *)

(** Knobs for the routability loop, mirroring the [-routability_*]
    family of RePlAce/OpenROAD options. *)
type config = {
  rt_check_overflow : float;
      (** start congestion checks once density overflow drops below
          this (the placement must be spread enough for bin demand to
          be meaningful); RePlAce uses 0.20. *)
  rt_check_period : int;
      (** placement iterations between congestion checks. *)
  rt_target : float;
      (** bin utilization above which a bin counts as congested and
          its cells are inflated. *)
  rt_capacity : float;
      (** routing capacity per unit bin area; utilization is
          [demand / (rt_capacity * bin_area)], so the summary is
          invariant under grid-resolution changes. *)
  rt_inflation_coef : float;
      (** area ratio exponent: a cell in a bin at utilization [u]
          bloats by [(u / rt_target) ** rt_inflation_coef]. *)
  rt_max_ratio : float;
      (** cumulative per-cell area inflation cap (2.5 in RePlAce). *)
  rt_max_rounds : int;
      (** hard bound on inflation rounds per placement run. *)
}

val default_config : config

(** The RUDY demand map. *)
module Rudy : sig
  type t

  val create :
    ?bins:int -> ?capacity:float -> ?pin_weight:float -> Netlist.t -> t
  (** [bins] is sized by [Density.Grid.side].  [capacity] defaults to
      the {!default_config} value; [pin_weight], the demand added to a
      bin per pin it contains, to 0.05. *)

  val bins : t -> int

  val update : ?pool:Parallel.pool -> ?obs:Obs.t -> t -> unit
  (** Recompute the demand map from current pin positions.  Nets splat
      into per-chunk grids merged in chunk order ([route.rudy] span);
      the chunk split depends only on the net count, so pooled results
      are bit-identical to sequential ones. *)

  val demand : t -> float array
  (** Raw demand per bin, row-major [(bx * n) + by].  Owned by [t]; do
      not mutate. *)

  val utilization : t -> float array
  (** [demand / (capacity * bin_area)] per bin.  Owned by [t]. *)
end

(** Congestion summary of one demand map. *)
type summary = {
  ov_peak : float;  (** highest bin utilization *)
  ov_rc : float;  (** mean utilization of the top-percentile bins *)
  ov_congested : int;  (** bins with utilization above 1.0 *)
  ov_total : float;  (** sum of per-bin utilization excess above 1.0 *)
}

val overflow : ?obs:Obs.t -> ?percentile:float -> Rudy.t -> summary
(** Summarise the current map (call {!Rudy.update} first).
    [percentile] (default [0.02]) selects the top fraction of bins
    averaged into [ov_rc] (at least one bin).  Recorded as a
    [route.overflow] span; deterministic (sorted copy, no sampling). *)

val pp_summary : Format.formatter -> summary -> unit

(** Temporary cell inflation driven by the demand map. *)
module Inflate : sig
  type t

  val create : Netlist.t -> t
  (** Snapshot every cell's original width/height. *)

  val rounds : t -> int
  (** Inflation rounds executed so far. *)

  val step : ?obs:Obs.t -> config -> t -> Rudy.t -> int
  (** One inflation round ([route.inflate] span): every movable cell
      whose center bin has utilization above [rt_target] has its area
      multiplied by [(u / rt_target) ** rt_inflation_coef], capped so
      the cumulative ratio against the snapshot never exceeds
      [rt_max_ratio].  Cells are visited in id order (deterministic).
      Returns the number of cells inflated; returns [0] without
      touching anything once [rt_max_rounds] rounds have run. *)

  val deflate : ?obs:Obs.t -> config -> t -> Rudy.t -> int
  (** The inverse pass: every movable cell still carrying inflation
      (cumulative area ratio above 1) whose center bin has fallen back
      below [0.95 *. rt_target] (hysteresis, so threshold-hovering bins
      do not ping-pong) has its log-excess halved — the area ratio
      relaxes to [sqrt ratio], snapping exactly back to the original
      footprint once the remaining excess is under 4% (so repeated
      passes terminate).
      Cells are visited in id order (deterministic); shares the
      [route.inflate] span and counts into [route.deflated_cells].
      Returns the number of cells shrunk; [0] (touching nothing) when
      no inflation round has run — so zero-congestion runs stay
      bit-identical to routability-off ones.  Does not count against
      [rt_max_rounds]. *)

  val restore : t -> unit
  (** Put every cell's original width/height back.  Idempotent. *)
end
