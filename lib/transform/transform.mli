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

    Power-of-two sizes use an FFT-based O(n log n) path; any other size
    falls back to the direct O(n^2) evaluation.  Both paths agree to
    floating-point accuracy (property-tested). *)

module Fft : sig
  val transform : re:float array -> im:float array -> unit
  (** In-place forward DFT: [X.(k) = sum_j x.(j) exp (-2 pi i k j / n)].
      @raise Invalid_argument if the length is not a power of two or the
      two arrays differ in length. *)

  val inverse : re:float array -> im:float array -> unit
  (** In-place unnormalised inverse DFT:
      [x.(m) = sum_k X.(k) exp (+2 pi i k m / n)] (no 1/n factor). *)
end

module Dct : sig
  val dct : float array -> float array
  val cos_synth : float array -> float array
  val sin_synth : float array -> float array

  val dct_naive : float array -> float array
  (** Direct O(n^2) references, exported for testing. *)

  val cos_synth_naive : float array -> float array
  val sin_synth_naive : float array -> float array
end

(** Transforms over a square [n] x [n] grid stored row-major in a flat
    array of length [n * n]; index [(row, col)] is [row * n + col].  The
    [row] axis is the first subscript in the docs below.  With [pool],
    rows and then columns are dispatched through the worker pool; each
    task writes a disjoint stripe with fresh scratch, so pooled results
    are bit-identical to sequential ones.  [obs] records the executor's
    dispatch/wait spans. *)
module Grid : sig
  val dct2 :
    ?pool:Parallel.pool -> ?obs:Obs.t -> int -> float array -> float array
  (** 2D analysis: DCT along rows then along columns. *)

  val cos_cos_synth :
    ?pool:Parallel.pool -> ?obs:Obs.t -> int -> float array -> float array

  val sin_cos_synth :
    ?pool:Parallel.pool -> ?obs:Obs.t -> int -> float array -> float array
  (** [sin] along the row axis, [cos] along the column axis. *)

  val cos_sin_synth :
    ?pool:Parallel.pool -> ?obs:Obs.t -> int -> float array -> float array
end
