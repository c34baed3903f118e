(** Electrostatic density penalty (ePlace-style; paper §2.2, Eq. 3).

    Movable and fixed cell areas are splatted onto an [n] x [n] bin grid;
    the density map is treated as a charge distribution and the Poisson
    equation [laplacian psi = -rho] is solved spectrally with cosine
    transforms (Neumann boundary).  The resulting electric field [-grad
    psi] pushes cells out of over-dense regions; the penalty value is the
    system's electrostatic energy, and a cell's gradient is
    [- area * field] at its location.

    The bin grid is {!Grid}, which the RUDY routing-demand map in
    [Route] shares. *)

(** The placement bin grid: an [n] x [n] tiling of the design region,
    stored row-major as [(bx * n) + by]. *)
module Grid : sig
  type t

  val side : ?bins:int -> Netlist.t -> int
  (** The sizing rule: [bins] rounded to the nearest power of two (ties
      towards the larger), at least 4; without [bins], roughly
      [sqrt cells] rounded the same way and clamped to [16, 256]. *)

  val create : ?bins:int -> items:int -> Netlist.t -> t
  (** A grid of side {!side} over the design region whose
      {!accumulate} folds over [items] items. *)

  val n : t -> int
  val bin_w : t -> float
  val bin_h : t -> float
  val bin_area : t -> float

  val bin_of : t -> float -> float -> int
  (** Index of the bin holding the point [(x, y)]; points outside the
      region clamp to the nearest edge bin. *)

  val splat : t -> float array -> weight:float -> Geometry.Rect.t -> unit
  (** Add [weight *. ox *. oy] to every bin the rectangle overlaps,
      where [ox] / [oy] are the overlap's width and height; the part of
      the rectangle outside the region is dropped. *)

  val accumulate :
    ?pool:Parallel.pool -> ?obs:Obs.t -> t -> (float array -> int -> unit) ->
    float array
  (** [accumulate g body] zeroes a per-chunk grid, folds [body grid i]
      over the items of each chunk and sums the chunk grids in chunk
      order.  The chunk split ([Parallel.reduce_grain ~cost:8.0 items])
      depends only on [items], so pooled results are bit-identical to
      sequential ones.  The chunk grids are kept in [g] across calls;
      the returned grid is one of them, valid until the next call. *)
end

type t

val create : ?bins:int -> Netlist.t -> t
(** [bins] overrides the automatic grid sizing ({!Grid.side}). *)

val bins : t -> int

val update : ?pool:Parallel.pool -> ?obs:Obs.t -> t -> unit
(** Re-splat densities from current cell positions and solve for the
    field: a 2-D DCT of the density, the Poisson coefficients, and one
    synthesis per field component, all in place on the grid's
    {!Transform.Plan}.  The potential is not synthesised here (see
    {!penalty}).  [obs] records the two phases as [density.splat] and
    [density.dct] spans.  Call once per placement iteration, before
    {!penalty}, {!overflow} or {!gradient}.  With [pool], cells splat
    into per-chunk grids merged in chunk order and the transforms
    parallelise over rows/columns; the chunk split depends only on the
    cell count, so pooled results are bit-identical to sequential
    ones. *)

val penalty : t -> float
(** Electrostatic energy [0.5 * sum rho * psi] (after {!update}).  The
    potential [psi] is synthesised from the last update's coefficients
    on the first call after that update and reused by later calls, so
    a run that never reads the energy never pays for it. *)

val overflow : t -> float
(** Total density overflow ratio:
    [sum_b max 0 (area_b - capacity_b) / total movable area], where a
    bin's capacity is its area not covered by fixed cells.  This is
    the placer's stop criterion (paper Table 3 uses the same stop
    criterion on density overflow for all placers). *)

val gradient :
  ?pool:Parallel.pool -> ?obs:Obs.t ->
  t -> scale:float -> grad_x:float array -> grad_y:float array -> unit
(** Accumulate [scale * d(penalty)/d(cell center)] for every movable
    cell into [grad_x]/[grad_y] (length [num_cells]).  The field is
    bilinearly interpolated between bin centers for smoothness.  Each
    cell's task writes only its own slot, so pooled evaluation is
    race-free and bit-identical to sequential. *)
