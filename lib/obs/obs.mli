(** Per-kernel observability for the placement stack.

    A single [t] is threaded (as [?obs], defaulting to {!disabled})
    through every kernel of the placement loop — wirelength, density
    splat/DCT, Steiner/RC maintenance, exact STA, the differentiable
    timer, net/path weighting, the optimizer step — plus path
    enumeration and the legalizer.  It records:

    - {b scoped spans} per kernel: call count, cumulative (inclusive)
      and self (exclusive of nested spans) time, per-call min/max;
    - {b counters/gauges}: named scalar facts (cold path only);
    - a {b JSONL trace}: every span begin/end with its iteration tag,
      plus counters, gauges and optional GC deltas.

    All timestamps come from {!Clock}, a raw [CLOCK_MONOTONIC] reader,
    so NTP steps cannot produce negative or skewed durations.

    The disabled path is allocation-free: {!start}/{!stop} test one
    boolean and return.  Spans record into pre-sized per-worker buffers
    (grown geometrically when full) and are merged in worker order at
    report time, so instrumentation never perturbs the deterministic
    chunk-order reductions of [Parallel] — with profiling off, outputs
    are bit-identical to an un-instrumented build. *)

module Clock : sig
  val now_ns : unit -> int64
  (** Nanoseconds on [CLOCK_MONOTONIC].  Arbitrary origin; only
      differences are meaningful. *)

  val now : unit -> float
  (** {!now_ns} in seconds, for drop-in replacement of
      [Unix.gettimeofday] deltas. *)
end

val peak_rss_bytes : unit -> float
(** Peak resident set size of this process in bytes, from
    [getrusage(RUSAGE_SELF)] (with a [/proc/self/status] [VmHWM]
    fallback); [0.0] when neither source is available.  Recorded as the
    [peak_rss_mb] gauge in [--profile] output and perfbench's
    [peak_rss_mb] metric. *)

(** The fixed set of instrumented kernels.  A closed enum keeps the hot
    recording path integer-indexed and allocation-free. *)
type kernel =
  | Core_run  (** one whole [Core.run] invocation *)
  | Core_trace  (** per-iteration sync + HPWL + trace-point STA *)
  | Wirelength  (** WA wirelength forward + backward *)
  | Density_splat  (** bin splat (charge accumulation) *)
  | Density_dct  (** spectral Poisson solve (DCT forward + synthesis) *)
  | Density_grad  (** field gather to per-cell gradients *)
  | Steiner_rebuild  (** Steiner topology (re)construction + RC build *)
  | Steiner_refresh  (** RC refresh on frozen topologies *)
  | Sta_exact  (** exact timer propagation (arrival/required/slack) *)
  | Diff_forward  (** differentiable timer forward (LSE) pass *)
  | Diff_backward  (** differentiable timer reverse pass *)
  | Netweight_update  (** momentum net-weight update (incl. its STA) *)
  | Pathweight_update  (** path-weight update (incl. STA + enumeration) *)
  | Optim_step  (** optimizer step, x and y *)
  | Paths_analyze  (** path-engine snapshot build *)
  | Paths_enumerate  (** top-K path branch-and-bound *)
  | Legalize  (** row legalization *)
  | Par_dispatch  (** executor: job publication + worker wake-up *)
  | Par_wait  (** executor: caller waiting on lagging chunk claims *)
  | Steiner_lut  (** rebuild sub-kernel: topology-LUT net builds *)
  | Steiner_dirty  (** rebuild sub-kernel: clean-net provenance refresh *)
  | Steiner_full  (** rebuild sub-kernel: heuristic builds (large nets) *)
  | Sta_incremental  (** incremental STA cone re-propagation (one update) *)
  | Serve_parse  (** daemon: request line parsing *)
  | Serve_update  (** daemon: state mutation (move/commit/place) *)
  | Serve_query  (** daemon: read-only queries (slack/paths/stats) *)
  | Route_rudy  (** RUDY routing-demand splat over the congestion grid *)
  | Route_overflow  (** congestion summary (peak / RC top-percentile) *)
  | Route_inflate  (** cell inflation pass over congested bins *)
  | Cluster_coarsen  (** multilevel V-cycle: netlist coarsening, all levels *)
  | Cluster_interp  (** V-cycle: position prolongation to one finer level *)
  | Cluster_refine  (** V-cycle: placement run at one level (wraps core.run) *)

val kernel_name : kernel -> string
(** Stable dotted name used in reports and traces, e.g.
    ["density.dct"]. *)

val all_kernels : kernel list
(** Every kernel, in report order. *)

type t

val disabled : t
(** The no-op instance: [enabled] is [false], every operation returns
    immediately without allocating.  This is the default everywhere. *)

val create : ?gc:bool -> ?workers:int -> unit -> t
(** A live recorder.  [workers] sizes the per-worker buffer table
    (default 1: the placement loop opens spans from the orchestrating
    domain only).  [gc] (default [false]) additionally samples
    [Gc.quick_stat] at creation and report time and emits the deltas as
    gauges. *)

val enabled : t -> bool

val set_iteration : t -> int -> unit
(** Tag subsequent span events with the given placement iteration
    (events before the first call are tagged [-1]). *)

val start : ?worker:int -> t -> kernel -> unit
(** Open a span.  Spans nest; a nested span's time is excluded from the
    parent's self time. *)

val stop : ?worker:int -> t -> kernel -> unit
(** Close the innermost open span.  Unbalanced calls are forgiven (a
    stray [stop] on an empty stack is ignored). *)

val span : ?worker:int -> t -> kernel -> (unit -> 'a) -> 'a
(** [span t k f] = [start t k; f ()] with a guaranteed [stop] on both
    return and exception.  Convenience for cold call sites; hot loops
    should pair {!start}/{!stop} directly to avoid the closure. *)

val add : t -> string -> float -> unit
(** Add to a named counter (created at first use, insertion-ordered).
    Cold path: string-keyed. *)

val gauge : t -> string -> float -> unit
(** Overwrite a named gauge (last write wins). *)

(** Aggregated per-kernel timings, merged across workers. *)
type stat = {
  st_kernel : kernel;
  st_calls : int;
  st_cum : float;  (** cumulative (inclusive) seconds *)
  st_self : float;  (** self seconds: cum minus nested spans *)
  st_min : float;  (** fastest single call, inclusive seconds *)
  st_max : float;  (** slowest single call, inclusive seconds *)
}

val stats : t -> stat list
(** Kernels with at least one completed span, in {!all_kernels} order. *)

val counters : t -> (string * float) list
(** Counters then gauges, each in insertion order. *)

val pp_report : Format.formatter -> t -> unit
(** The [--profile] table: per-kernel calls / self / cum / min / max /
    self%%, a coverage line (accounted self time vs [core.run] wall
    time), then counters and gauges. *)

val write_trace : t -> string -> unit
(** Write the JSONL trace: one [meta] line, then every span event in
    worker order ([{"ev":"b"|"e","k":...,"w":...,"iter":...,"t":...}],
    [t] in seconds relative to recorder creation), then counters
    ([{"ev":"c",...}]) and gauges ([{"ev":"g",...}]). *)
