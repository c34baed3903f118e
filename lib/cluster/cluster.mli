(** Bottom-up netlist clustering for multilevel (V-cycle) placement.

    The flat engine does O(cells) wirelength/density work per iteration
    at full resolution from iteration 0; at 10⁵–10⁶ cells that is the
    whole runtime.  Multilevel placement (mPL, DG-RePlAce) coarsens the
    netlist bottom-up, places the coarse design with the same engine,
    then interpolates positions back down and refines briefly at each
    finer level.

    Coarsening is {e first-choice / edge coarsening} on net
    connectivity with clique-model affinities: two cells sharing a net
    of degree [d] attract with weight [1 / (d - 1)], summed over shared
    nets.  Cells are visited in ascending id order and merged into
    their strongest neighbouring cluster, subject to a cluster area
    cap; ties break toward the lowest cluster id.  Fixed cells never
    cluster (they pass through 1:1), and nets above [max_net_degree]
    contribute no affinity (clock/reset-like nets would otherwise glue
    the design into one blob) though they are still contracted into the
    coarse netlist.  The pass is sequential and id-ordered, so its
    output is bit-identical regardless of domain count.

    Net contraction keeps one coarse pin per (net, cluster) — the pin
    is a driver iff the cluster contains the fine driver — and drops
    nets whose pins collapse into a single cluster (self-loops) or that
    lose all but one pin.  Cluster cells use [lib_cell = -1] (pad
    semantics: no cell arcs, so the coarse netlist always builds an
    acyclic timing graph) with a square footprint conserving total
    member area. *)

(** One coarsening step.  [fine] is the input netlist, [coarse] the
    clustered one; [parent.(i)] is the coarse cell id of fine cell [i]
    (every cell, fixed ones included, has exactly one parent — the
    prolongation map is a partition). *)
type level = {
  fine : Netlist.t;
  coarse : Netlist.t;
  parent : int array;
}

val coarsen :
  ?cluster_ratio:float ->
  ?max_net_degree:int ->
  ?obs:Obs.t ->
  Netlist.t ->
  level option
(** One level of coarsening.  [cluster_ratio] (default 4.0) is the
    target fine-to-coarse movable-cell ratio; it also sets the cluster
    area cap ([2 * ratio *] mean movable area).  [max_net_degree]
    (default 16) excludes larger nets from affinity scoring.  Returns
    [None] when the pass cannot reduce the movable cell count by at
    least 10% (nothing clusterable). *)

val build :
  ?levels:int ->
  ?cluster_ratio:float ->
  ?max_net_degree:int ->
  ?min_cells:int ->
  ?obs:Obs.t ->
  Netlist.t ->
  level list
(** Repeated {!coarsen}: up to [levels] (default 2) coarsening steps,
    stopping early when a level would drop below [min_cells] (default
    1000) movable cells or stops reducing.  Result is ordered finest
    first: [(List.hd l).fine] is the input netlist, and each
    [level.fine] is physically the previous level's [coarse].  Wrapped
    in one [cluster.coarsen] Obs span with [cluster.levels] /
    [cluster.coarse_cells] counters. *)

val interpolate : ?obs:Obs.t -> level -> unit
(** Prolongate positions one level down: place every movable fine cell
    of [level.fine] at its parent cluster's center plus a deterministic
    area-weighted offset — members jitter within the cluster footprint,
    then the whole group is shifted so the {e area-weighted centroid}
    of each cluster's members lands exactly on the cluster center.
    Fixed cells are untouched.  Mutates [level.fine] cell coordinates
    in place; [cluster.interp] Obs span. *)

val hash_float : int -> int -> float
(** [hash_float id salt] is a deterministic pseudo-random value in
    [[0, 1)] for a cell id and a salt: the jitter that separates
    coincident cells here and in [Core]'s initial placement. *)
