(** Detailed placement: legality-preserving local refinement.

    The paper's pipeline is GP -> LG -> DP (§1); its contribution is in
    GP, but a complete flow needs the refinement step, so this module
    implements the two classic wirelength-driven local moves on a
    legalised placement:

    - {b window reordering}: permute [window] consecutive cells of a row
      inside their combined span, left-packed from the first cell's left
      edge (widths are preserved, so any permutation re-packs without
      overlap), keeping the best HPWL;
    - {b global swap}: exchange a cell with the equal-width cell nearest
      to the center of its nets' other pins, when that shortens the nets
      incident to either.

    Both moves are greedy and deterministic; passes repeat until no move
    improves or [passes] is exhausted.  A move is taken only when it
    lowers the HPWL of the nets it touches by more than 1e-9.

    {b Cost model.}  [refine] copies positions, pin offsets and the
    net/cell pin lists into flat arrays at entry and writes positions
    back once at the end.  A try (a window, or a swap of two cells)
    walks each net of the cells it moves once, splitting it into the box
    of its pins on other cells and the moved cells' own pins; the
    current arrangement and every candidate (each permutation, or the
    swapped pair) are then scored from those alone.  A swap's candidate
    is the nearest equal-width cell in one scan of the target row.
    Evaluating a move allocates nothing.

    {b Fixed cells} are blockages: a window whose packed extent meets a
    fixed cell crossing its row ([Legalize.row_blockages], the intervals
    the legaliser carves around) is skipped, so a legal placement stays
    legal.
    Swapped cells exchange their exact slots.

    {b Bit-identity.}  Per-net HPWLs are exact (min/max fold in any
    order) and only the order in which a try sums its nets differs, so
    the flat-array code takes the decisions of the earlier list-based
    implementation.  That one is kept as a test oracle
    ([test/detailed_oracle.ml]) and the tests compare the two bit for
    bit. *)

type stats = {
  passes_run : int;
  reorder_moves : int;
  swap_moves : int;
  hpwl_before : float;
  hpwl_after : float;
}

val refine : ?obs:Obs.t -> ?passes:int -> ?window:int -> Netlist.t -> stats
(** [refine design] improves a {e legalised} placement in place.
    [passes] defaults to 3, [window] to 3 (window sizes above 4 get
    expensive: all [window!] permutations are tried per window, and
    their index table, [window! * window] ints, is built when some row
    holds at least [window] cells).  With
    a live [obs] the run is one [detailed.refine] span, with
    [detailed.reorder_moves] / [detailed.swap_moves] counters.
    @raise Invalid_argument if [window < 2]. *)

val pp_stats : Format.formatter -> stats -> unit
