(** Rectilinear Steiner minimal tree (RSMT) construction with
    differentiability support (paper §3.4.1, Fig. 4).

    This is the FLUTE analogue: nets of degree 2 and 3 are built
    directly; degrees 4 to [Lut.max_degree] get an {e optimal} RSMT from
    a topology lookup table keyed by the pin-permutation class (the
    POWV/POST idea of Chu & Wong's FLUTE), with per-class candidate sets
    generated exactly on first use by a Dreyfus-Wagner Steiner DP on the
    Hanan grid; larger nets use a rectilinear Prim MST refined by greedy
    local Steinerisation (inserting the median point of two adjacent
    tree edges while it shortens the tree).  The pre-LUT exhaustive
    Hanan-subset search survives behind [?exact_limit] as an independent
    test oracle.

    Every Steiner point's coordinates equal coordinates of specific pins
    of the net (Hanan's theorem): point [s] takes its x from pin
    [x_source s] and its y from pin [y_source s].  This {e provenance} is
    what the paper's Figure 4 exploits: gradients landing on a Steiner
    point are forwarded to the pins that determine it, and when pins move
    slightly, Steiner points are updated in O(1) without re-running the
    tree algorithm (the "reuse FLUTE results for 9 iterations" trick of
    §3.6). *)

(** A rooted tree over the net's pins plus inserted Steiner points.
    Nodes [0 .. pin_count - 1] are the pins in the caller's order (driver
    first); the remaining nodes are Steiner points.  The root is node 0.
    [parent.(0) = -1]; every other node's edge to its parent is an
    abstract rectilinear connection of length
    [|dx| + |dy|] (corner bends do not affect Elmore delay, so they are
    not materialised). *)
type t = {
  pin_count : int;
  xs : float array;  (** mutable coordinates of all nodes. *)
  ys : float array;
  parent : int array;
  x_source : int array;  (** pin index providing x; identity for pins. *)
  y_source : int array;
  order : int array;  (** topological order, root first. *)
}

val node_count : t -> int
val is_steiner : t -> int -> bool

val edge_length : t -> int -> float
(** [edge_length t v] is the rectilinear length of the edge
    [(parent v, v)]; 0 for the root. *)

val total_length : t -> float

module Lut : sig
  (** FLUTE-style topology lookup tables: per pin-permutation class
      (reduced by the 8 dihedral symmetries of the plane), a small set
      of candidate topologies whose per-instance shortest member is the
      exact RSMT.  Classes are generated on first use by an exact
      Dreyfus-Wagner Steiner DP over a probe family of coordinate-span
      vectors, then verified (and patched) against randomized draws.
      Generation is deterministic, keyed only by the class, so tables
      are identical across runs and domain counts. *)

  val max_degree : int
  (** Largest net degree served by the tables (8). *)

  val try_build : xs:float array -> ys:float array -> t option
  (** Read-only lookup: [None] when the degree is out of range or the
      class has not been generated yet.  Never mutates the tables, so it
      is safe to call from parallel workers while no generator runs. *)

  val ensure : xs:float array -> ys:float array -> unit
  (** Generate (and publish) the class covering this net if missing.
      Mutates the shared tables: call only from sequential code. *)

  val build : xs:float array -> ys:float array -> t
  (** [ensure] followed by [try_build], for sequential callers. *)

  val class_count : int -> int
  (** Number of generated classes for a given degree (observability). *)

  val optimal_length : xs:float array -> ys:float array -> float
  (** Exact RSMT length by Dreyfus-Wagner on the net's own Hanan grid,
      bypassing the tables (test oracle; exponential in degree). *)
end

val build : ?exact_limit:int -> xs:float array -> ys:float array -> unit -> t
(** [build ~xs ~ys ()] constructs a tree over pins at [(xs, ys)] (driver
    at index 0).  The default path is: direct construction for degree
    <= 3, the topology LUT (exact RSMT) for degree <= [Lut.max_degree],
    and Prim + Steinerisation beyond.  Passing [?exact_limit] instead
    selects the legacy oracle path: exhaustive Hanan-subset search up to
    that degree (clamped to [2, 6] — the subset enumeration is
    O(2^[n^2]) and unusable beyond), Prim + Steinerisation above it.
    @raise Invalid_argument on empty input or mismatched lengths. *)

val update_coordinates : t -> xs:float array -> ys:float array -> unit
(** Refresh pin coordinates in place and recompute Steiner point
    coordinates from their provenance, keeping the topology (the paper's
    incremental update between FLUTE calls). *)

val accumulate_pin_gradient :
  t ->
  node_gx:float array ->
  node_gy:float array ->
  pin_gx:float array ->
  pin_gy:float array ->
  unit
(** Fold per-node gradients into per-pin gradients: each pin receives its
    own gradient plus the gradients of every Steiner point whose x (resp.
    y) it determines.  [pin_gx]/[pin_gy] are {b accumulated into} (callers
    zero them).  All four arrays may be longer than needed
    ([node_count] / [pin_count] entries are used), so callers can reuse
    one large buffer across nets without [Array.sub] copies. *)

val mst_length : xs:float array -> ys:float array -> float
(** Length of the rectilinear minimum spanning tree over the pins only
    (upper bound reference for tests). *)

val hpwl : xs:float array -> ys:float array -> float
(** Net bounding-box half-perimeter (lower bound reference for tests). *)
