(** Top-K worst-slack path enumeration over the exact timer.

    The engine works on the timer's post-{!Sta.Timer.run} state over
    timing nodes (a node is a [(pin, transition)] pair, stored at
    [2 * pin + transition_index]).  A node's in-edges are read in place
    from the timing graph's fan-in CSR, the net driver with its Elmore
    delay, and the timer's arc-delay tape; the view holds one
    back-pointer per node, recorded by the timer's forward kernel: the
    in-edge whose [at(source) + delay] realises the node's arrival time
    (the net edge when present, otherwise the first strict minimum of
    [|at(source) + delay - at|] in (arc, transition) order, which is the
    first maximal [at(source) + delay]).  The back-pointer tree is
    the "worst path" tree; the K worst paths per endpoint are then
    enumerated by deviation-based branch-and-bound (Yen/Eppstein
    adapted to the max-plus DAG).  Because the timer's arrival times are exact
    max-prefix arrivals, every candidate's priority {e is} its final
    path slack, so the best-first search pops paths in slack order and
    pruning against a slack limit is exact — no candidate is ever
    expanded and later discarded.

    Deviations are generated {e lazily} (REA/Eppstein-style): a popped
    candidate pushes at most two successors — its next sibling in the
    parent's slack-sorted deviation list and its own first child —
    instead of every deviation of the whole backbone, so the heap stays
    O(pops) instead of O(pops × path length × fan-in).  The global
    enumeration orders endpoints worst-slack-first and threads a
    tightening k-th-best slack bound through the scan, so endpoints that
    cannot contribute to the global top-K are pruned before their
    branch-and-bound starts, and paths are materialised (step lists,
    at/slew lookups, net/arc lists) only after the global top-K cut.
    The output — paths, ranks, slacks, bit patterns — is identical to
    the eager implementation that pushes every deviation of a popped
    candidate's backbone (kept as the tests' oracle); only the work is
    smaller.

    Determinism: per-endpoint enumeration never looks outside its own
    endpoint, the endpoint fan-out goes through
    {!Parallel.parallel_for_reduce} (chunk-order merge), the global
    ranking is a total order, and the shared bound only ever prunes
    candidates that cannot survive that total-order cut, so pooled runs
    are bit-identical to sequential ones at any domain count. *)

type t
(** A path-search view of one timer.  Valid for the placement at which
    it was built; rebuild after the next {!Sta.Timer.run} or
    {!Sta.Incremental.update}. *)

val analyze : ?obs:Obs.t -> Sta.Timer.t -> t
(** A view of the timer's current state: a copy of the arrival
    back-pointers its forward kernel recorded
    ({!Sta.Timer.arrival_edges}), so the view's back-pointer tree stays
    that of this placement, and every endpoint's required time pulled
    current, so {!enumerate}'s pool tasks only read the timer.  Costs
    one array copy plus the endpoints' RAT pull, no walk over the
    in-edges.  The timer must have been {!Sta.Timer.run} first. *)

val pred : t -> int -> int
(** The in-edge realising timing node [n = 2 * v + tr_out]'s arrival
    (its back-pointer): the cell arc's tape slot
    [4 * a + 2 * tr_out + tr_in], [-2] for the net arc into [v], or [-1]
    when it has none. *)

(** One enumerated path, startpoint first.  [pt_rank] is the path's
    0-based rank within its endpoint's enumeration; [pt_nets] and
    [pt_arcs] list the net ids and cell-arc ids traversed, in path
    order. *)
type path = {
  pt_endpoint : int;
  pt_rank : int;
  pt_slack : float;
  pt_steps : Sta.Timer.path_step list;
  pt_nets : int list;
  pt_arcs : int list;
}

val enumerate_endpoint : ?slack_limit:float -> k:int -> t -> int -> path list
(** The [k] worst-slack paths ending at one endpoint pin, worst first;
    fewer when the endpoint has fewer distinct paths (none when it is
    unreachable).  Slacks are non-decreasing in rank, and the rank-0
    path is the endpoint's arrival-time retrace: back-pointers from its
    worse-slack transition (rise on a tie) to a startpoint.  With
    [slack_limit], only paths with slack strictly below the limit are
    returned (exact pruning, e.g. [0.0] for violating paths only). *)

val enumerate :
  ?pool:Parallel.pool -> ?obs:Obs.t -> ?slack_limit:float -> k:int -> t ->
  path list
(** The [k] globally worst paths across all endpoints, worst first.
    Endpoints enumerate in parallel under [pool] (worst-endpoint-first,
    pruned by the running k-th-best slack bound); results are merged
    under the total order (slack, endpoint position, rank), so the
    output is bit-identical across domain counts and the first path is
    the rank-0 path of the worst-slack endpoint (the first in endpoint
    order on a tie), the design's critical path.  With
    [obs], records the [paths.pushed] / [paths.popped] / [paths.pruned]
    / [paths.endpoints_skipped] candidate counters (work tallies, not
    outputs: their values may vary with scheduling). *)

val enumerate_grain : k:int -> int -> int
(** The chunk grain [enumerate] uses for its endpoint fan-out over [n]
    endpoints: a pure function of [(k, n)] that splits finer as [k]
    grows, because per-endpoint branch-and-bound cost scales with [k].
    Exposed so benchmarks can report the chunking. *)

val net_criticality : t -> path list -> float array
(** Per-net criticality accumulated over a path list: each path adds
    its severity — [0] when its slack is non-negative, otherwise
    [min 1 (-slack / max 1 (-worst slack))] — to every net it crosses.
    Indexed by net id. *)
