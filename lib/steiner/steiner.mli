(** Rectilinear Steiner minimal tree (RSMT) construction with
    differentiability support (paper §3.4.1, Fig. 4).

    This is the FLUTE analogue: nets of degree 2 and 3 are built
    directly; degrees 4 to [Lut.max_degree] get an {e optimal} RSMT from
    a topology lookup table keyed by the pin-permutation class (the
    POWV/POST idea of Chu & Wong's FLUTE), whose per-class candidate
    sets were generated offline by a Dreyfus-Wagner Steiner DP on the
    Hanan grid and ship precomputed with the library; larger nets use a
    rectilinear Prim MST refined by greedy local Steinerisation
    (inserting the median point of two adjacent tree edges while it
    shortens the tree).

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

val edge_length : t -> int -> float
(** [edge_length t v] is the rectilinear length of the edge
    [(parent v, v)]; 0 for the root. *)

val total_length : t -> float

module Lut : sig
  (** FLUTE-style topology lookup tables: per pin-permutation class
      (reduced by the 8 dihedral symmetries of the plane), a small set
      of candidate topologies whose per-instance shortest member is the
      exact RSMT.  Every class of degree 2 to [max_degree] is generated
      offline by [tools/steiner_gen] (an exact Dreyfus-Wagner Steiner DP
      over probe and randomized span vectors, keyed only by the class)
      and shipped as one versioned byte table compiled into this
      library, so lookups are pure reads of constant data: identical
      across runs, hosts and domain counts, and safe from any number of
      parallel workers. *)

  val max_degree : int
  (** Largest net degree served by the tables (8). *)

  val try_build : xs:float array -> ys:float array -> t option
  (** Table lookup: [None] only when the degree is outside
      [2 .. max_degree].  Allocates nothing but the returned tree. *)

  val class_count : int -> int
  (** Number of classes the shipped table holds for a degree
      (constant; 0 outside [2 .. max_degree]). *)

  val canonical : int array -> int * int array
  (** [canonical pi] is the class key and canonical representative of
      the rank permutation [pi] ([pi.(i)] = y-rank of the pin at x-rank
      [i]): the dihedral image with the smallest base-n encoding.
      @raise Invalid_argument if [pi] is not a permutation. *)

  (** The byte table: little-endian header (magic, version, length,
      per-degree class counts and section offsets), per-degree sorted
      class keys with entry offsets, and each class's candidate
      topologies in generation order, two 4-bit indices per byte (the
      layout is documented in steiner.ml). *)
  module Table : sig
    type t

    val magic : string
    val version : int

    val embedded : t
    (** The table compiled into the library
        (lib/steiner/steiner_table.bin). *)

    val of_string : name:string -> string -> (t, string) result
    (** Validate a whole table (header, bounds of every section, class
        run and entry).  The error names the table ([name]) and what is
        wrong; a table that passes can be read without any
        out-of-bounds access. *)

    val to_string : t -> string

    val encode_entry :
      Buffer.t -> sx:int array -> sy:int array -> ea:int array ->
      eb:int array -> unit
    (** Append one candidate topology: Steiner point [k] at canonical
        ranks [(sx.(k), sy.(k))], edge [k] joining nodes [ea.(k) <
        eb.(k)] (pins [0 .. n-1], then the Steiner points).
        @raise Invalid_argument if an index or a count exceeds 15. *)

    val assemble :
      name:string -> (int * string) array array -> (t, string) result
    (** [assemble ~name degrees]: the table whose degree [d] holds the
        classes [degrees.(d)] (ascending keys, each with its
        [encode_entry] bytes), validated as by [of_string]. *)

    val class_count : t -> int -> int

    val class_bytes : t -> int -> int -> string option
    (** [class_bytes t degree key]: the class's encoded candidate
        entries, in order, or [None] if the table lacks the class. *)
  end
end

val build : xs:float array -> ys:float array -> unit -> t
(** [build ~xs ~ys ()] constructs a tree over pins at [(xs, ys)] (driver
    at index 0): direct construction for degree <= 3, the topology LUT
    (exact RSMT) for degree <= [Lut.max_degree], and Prim +
    Steinerisation beyond.
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

val hpwl : xs:float array -> ys:float array -> float
(** Net bounding-box half-perimeter (lower bound reference for tests). *)
