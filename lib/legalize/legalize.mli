(** Row-based Tetris legalisation.

    Global placement leaves small overlaps; before final timing scoring
    the cells are snapped into non-overlapping row sites.  The classic
    Tetris sweep processes cells left to right and greedily packs each
    one into the row that minimises its displacement.  This is the "LG"
    step of the GP -> LG -> DP pipeline described in the paper's
    introduction (the paper's contribution itself is in GP; legalisation
    is shared by all compared placers). *)

type stats = {
  moved_cells : int;
  total_displacement : float;  (** sum of rectilinear moves, um. *)
  max_displacement : float;
  average_displacement : float;
  overfull_cells : int;
      (** cells for which no free interval was wide enough; placed on
          the minimum-overflow interval instead (they may overlap). *)
  total_overflow : float;
      (** summed width overflow of the overfull cells, um. *)
  warnings : string list;
      (** one message per overfull cell, in processing order; empty on
          a fully successful legalisation. *)
}

val legalize : ?obs:Obs.t -> Netlist.t -> stats
(** Snap every movable cell into rows of height [row_height] within the
    region, removing overlaps.  Cell positions are updated in place.
    Fixed cells are treated as blockages.

    Never raises on over-full designs: a cell that fits nowhere
    degrades gracefully onto the minimum-overflow free interval (ties
    broken by displacement, then row order — deterministic), with the
    overflow recorded in [overfull_cells]/[total_overflow]/[warnings]
    and, when [obs] is live, as [legalize.overfull_cells] /
    [legalize.total_overflow] counters under a [legalize] span. *)

val row_blockages : Netlist.t -> (float * float) array array
(** Per row of height [row_height] (bottom row first), the x-intervals
    [(lo, hi)] of the fixed cells whose extent crosses the row, sorted.
    These are the blockages [legalize] carves free intervals around and
    [Detailed.refine] packs no window across. *)

val pp_stats : Format.formatter -> stats -> unit
