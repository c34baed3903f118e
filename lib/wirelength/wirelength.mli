(** Smooth wirelength models for analytical placement (paper §2.2).

    The optimiser needs a differentiable stand-in for the half-perimeter
    wirelength (HPWL).  We implement the weighted-average (WA) model used
    by DREAMPlace: for one net and one axis,

    [WA = (sum x_i e^(x_i/g)) / (sum e^(x_i/g))
        - (sum x_i e^(-x_i/g)) / (sum e^(-x_i/g))]

    which tends to [max x - min x] as the smoothing width [g] goes to 0.
    Each net contributes [weight * (WA_x + WA_y)]; per-net weights are the
    hook used by the net-weighting baseline (Eq. 4).

    One {!evaluate} first reads every pin's coordinates into two
    pin-indexed float arrays (cell center + offset, the sum
    {!Netlist.pin_x} makes), then runs the WA kernel over plain float
    reads.  While it finds each net's extent per axis it also keeps the
    net's exact span [(hx - lx) + (hy - ly)]; {!last_hpwl} sums those, so
    a caller gets the exact HPWL of the positions the pass read without
    a second walk over the pins. *)

type t

val create : ?gamma:float -> Netlist.t -> t
(** [gamma] is the smoothing width in microns (default 4.0; smaller is
    sharper).  Scratch buffers are per worker slice, sized at creation
    for the design's largest net. *)

val evaluate :
  t ->
  ?pool:Parallel.pool ->
  ?obs:Obs.t ->
  ?weighted:bool ->
  grad_x:float array ->
  grad_y:float array ->
  unit ->
  float
(** Smooth weighted wirelength of the design at its current positions.
    [obs] (default {!Obs.disabled}) records the whole call as a
    [wirelength] span.
    Gradients with respect to {e cell centers} are {b accumulated} into
    [grad_x]/[grad_y] (length [num_cells]; gradients also accrue on fixed
    cells — callers mask them).  [weighted] (default true) applies net
    weights.  With [pool], nets are processed in parallel slices, each
    with its own coordinate scratch and gradient accumulator; the slice
    split depends only on the net count and partials merge in slice
    order, so pooled results are bit-identical to sequential ones. *)

val last_hpwl : t -> float
(** Exact (non-smooth, unweighted) HPWL at the positions the last
    {!evaluate} read: the nets' spans summed in net order, the same adds
    {!Netlist.total_hpwl} makes, so the two agree bit for bit on finite
    coordinates, at any domain count.  [0.0] before the first
    {!evaluate}. *)
