(** Per-kernel observability for the placement stack.

    A single [t] is threaded (as [?obs], defaulting to {!disabled})
    through every kernel of the placement loop and the tools around
    it.  It records:

    - {b scoped spans} per kernel: call count, cumulative (inclusive)
      and self (exclusive of nested spans) time, per-call min/max;
    - {b counters/gauges}: named scalar facts (cold path only);
    - a {b JSONL trace}: every span begin/end with its iteration tag,
      plus counters, gauges and optional GC deltas.

    All timestamps come from {!Clock}, a raw [CLOCK_MONOTONIC] reader,
    so NTP steps cannot produce negative or skewed durations.

    A kernel is an interned name: each library declares its handles at
    toplevel, next to the code that opens the spans
    ([let k_solve = Obs.kernel "mylib.solve"]), so [Obs] knows none of
    them.

    The disabled path is allocation-free: {!start}/{!stop} test one
    boolean and return.  Spans record into int arrays indexed by the
    kernel handle (grown geometrically when full) and never touch the
    values being computed, so with profiling off — or on — outputs are
    bit-identical to an un-instrumented build. *)

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

type kernel
(** A span name interned by {!kernel}.  Handles are dense ints, so the
    hot recording path stays integer-indexed and allocation-free. *)

val kernel : string -> kernel
(** [kernel name] returns the handle of [name], interning it on first
    use: the same name always gives the same handle.  Intern at module
    initialisation (a toplevel [let]), not from worker domains. *)

val kernel_name : kernel -> string
(** The dotted name the handle was interned from, used in reports and
    traces. *)

type t

val disabled : t
(** The no-op instance: [enabled] is [false], every operation returns
    immediately without allocating.  This is the default everywhere. *)

val create : ?gc:bool -> unit -> t
(** A live recorder.  Spans are opened from the orchestrating domain
    only.  [gc] (default [false]) additionally samples
    [Gc.quick_stat] at creation and report time and emits the deltas as
    gauges. *)

val enabled : t -> bool

val set_iteration : t -> int -> unit
(** Tag subsequent span events with the given placement iteration
    (events before the first call are tagged [-1]). *)

val start : t -> kernel -> unit
(** Open a span.  Spans nest; a nested span's time is excluded from the
    parent's self time. *)

val stop : t -> unit
(** Close the innermost open span.  A stray [stop] on an empty stack is
    ignored. *)

val span : t -> kernel -> (unit -> 'a) -> 'a
(** [span t k f] = [start t k; f ()] with a guaranteed [stop] on both
    return and exception.  Convenience for cold call sites; hot loops
    should pair {!start}/{!stop} directly to avoid the closure. *)

val add : t -> string -> float -> unit
(** Add to a named counter (created at first use, insertion-ordered).
    Cold path: string-keyed. *)

val gauge : t -> string -> float -> unit
(** Overwrite a named gauge (last write wins). *)

(** Aggregated per-kernel timings. *)
type stat = {
  st_kernel : kernel;
  st_calls : int;
  st_cum : float;  (** cumulative (inclusive) seconds *)
  st_self : float;  (** self seconds: cum minus nested spans *)
  st_min : float;  (** fastest single call, inclusive seconds *)
  st_max : float;  (** slowest single call, inclusive seconds *)
}

val stats : t -> stat list
(** Kernels with at least one completed span, in interning order (fixed
    for a given binary). *)

val counters : t -> (string * float) list
(** Counters then gauges, each in insertion order. *)

val pp_report : Format.formatter -> t -> unit
(** The [--profile] table: per-kernel calls / self / cum / min / max /
    self%%, a coverage line (the share of [core.run]'s wall time spent
    in nested spans, its (cum − self) / cum), then counters and
    gauges. *)

val write_trace : t -> string -> unit
(** Write the JSONL trace: one [meta] line listing every interned
    kernel, then every span event
    ([{"ev":"b"|"e","k":...,"w":0,"iter":...,"t":...}],
    [t] in seconds relative to recorder creation), then counters
    ([{"ev":"c",...}]) and gauges ([{"ev":"g",...}]). *)
