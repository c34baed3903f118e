(** Trigonometric transforms used by the electrostatic density solver.

    The density system expands the bin-density map in a cosine basis
    (Neumann boundary: cells cannot leave the placement region), solves the
    Poisson equation spectrally, and synthesises the potential and its
    field.  Sample points are bin centers, i.e. half-integer grid points
    [(j + 1/2)].

    Conventions (all unnormalised; callers apply scaling):
    - analysis   [dct x]       : [C.(k) = sum_j x.(j) * cos (pi k (j+1/2) / n)]
    - synthesis  [cos_synth c] : [f.(j) = sum_k c.(k) * cos (pi k (j+1/2) / n)]
    - synthesis  [sin_synth c] : [f.(j) = sum_k c.(k) * sin (pi k (j+1/2) / n)]

    Power-of-two sizes run through a {!Plan} (a radix-2 FFT with
    Makhoul's reordering); any other size falls back to the direct
    O(n^2) evaluation, also exported as the test oracle.  Both paths
    agree to floating-point accuracy (property-tested). *)

(** The tables and scratch of one power-of-two size [n], built once: the
    bit-reversal sequence, each FFT stage's twiddles for both signs, the
    cosine transforms' twiddles [exp (-/+ i pi k / 2n)], and one re/im
    scratch pair per line of an [n] x [n] grid, so a transform through
    the plan allocates nothing. *)
module Plan : sig
  type t

  val create : int -> t
  (** @raise Invalid_argument if the size is not a power of two. *)
end

module Fft : sig
  val transform : re:float array -> im:float array -> unit
  (** In-place forward DFT: [X.(k) = sum_j x.(j) exp (-2 pi i k j / n)].
      @raise Invalid_argument if the length is not a power of two or the
      two arrays differ in length. *)

  val inverse : re:float array -> im:float array -> unit
  (** In-place unnormalised inverse DFT:
      [x.(m) = sum_k X.(k) exp (+2 pi i k m / n)] (no 1/n factor). *)
end

(** One-dimensional transforms returning a fresh array, each the line
    kernel the grid passes run.
    @raise Invalid_argument if the length is not a power of two. *)
module Dct : sig
  val dct : float array -> float array
  val cos_synth : float array -> float array
  val sin_synth : float array -> float array
end

(** In-place transforms of a square [n] x [n] grid ([n] the plan's size)
    stored row-major in a flat array of length [n * n]; index
    [(row, col)] is [row * n + col].  The [row] axis is the first
    subscript in the docs below.  Every row, then every column, is
    transformed and written back where it was read.  With [pool], the
    lines are dispatched through the worker pool; line [i] uses only
    the plan's scratch slot [i], so pooled results are bit-identical to
    sequential ones.  [obs] records the executor's dispatch/wait spans.
    @raise Invalid_argument if the grid is not [n * n] long. *)
module Grid : sig
  val dct2 : ?pool:Parallel.pool -> ?obs:Obs.t -> Plan.t -> float array -> unit
  (** 2D analysis: DCT along rows then along columns. *)

  val cos_cos_synth :
    ?pool:Parallel.pool -> ?obs:Obs.t -> Plan.t -> float array -> unit

  val sin_cos_synth :
    ?pool:Parallel.pool -> ?obs:Obs.t -> Plan.t -> float array -> unit
  (** [sin] along the row axis, [cos] along the column axis. *)

  val cos_sin_synth :
    ?pool:Parallel.pool -> ?obs:Obs.t -> Plan.t -> float array -> unit
end
