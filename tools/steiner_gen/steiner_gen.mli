(** Offline generator of the Steiner topology table ([Steiner.Lut]).

    Degrees <= 7 use a Pareto Dreyfus-Wagner DP that yields every
    topology optimal for some span assignment (a complete candidate
    set); degree 8 is sampled: a fixed probe family plus seeded
    randomized span draws checked against the scalar DW oracle.  A class
    depends only on its key and canonical permutation, so the output is
    bitwise the same in any order, process or domain count. *)

val optimal_length : xs:float array -> ys:float array -> float
(** Exact RSMT length by Dreyfus-Wagner on the net's own Hanan grid,
    bypassing the table (test oracle; exponential in degree). *)

val classes : int -> (int * int array) array
(** Every class of a degree: key and canonical permutation, in
    ascending key order (none below degree 2). *)

val class_bytes : int -> int * int array -> string
(** [class_bytes degree (key, pic)] generates one class and encodes its
    candidate entries, in generation order, as the table stores them. *)

val generate_degree : ?pool:Parallel.pool -> int -> (int * string) array
(** Every class of a degree, class-parallel over [pool]: ascending keys
    with their encoded entries. *)

val check : regenerate_upto:int -> Steiner.Lut.Table.t -> string list
(** Problems found in a table: per-degree class counts and keys against
    the enumeration of every permutation, and for degrees up to
    [regenerate_upto] the bytes of every class against a fresh
    generation.  Empty when the table is good. *)
