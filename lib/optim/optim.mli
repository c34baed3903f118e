(** The Adam optimiser for the placement objective (paper §3.6).

    The placer treats cell coordinates as trainable parameters of the
    "neural network" that is the design (Table 1's analogy), so the
    update is the standard deep-learning one: Adam with the customary
    moments (beta1 0.9, beta2 0.999, epsilon 1e-8).  One optimiser
    instance owns the state for one parameter vector (e.g. all cell x
    coordinates). *)

type t

val create : n:int -> t
(** Fresh moment estimates for [n] parameters.
    @raise Invalid_argument when [n] is negative. *)

val step :
  t -> lr:float -> params:float array -> grads:float array ->
  ?mask:bool array -> unit -> unit
(** Apply one update in place.  Entries where [mask] is false (e.g.
    fixed cells) are left untouched.
    @raise Invalid_argument on any length mismatch. *)
