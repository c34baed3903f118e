(** Data-parallel kernels over index ranges.

    This module is the CPU stand-in for the paper's CUDA kernels: the
    differentiable timer processes every pin of a logic level with the
    same arithmetic, so each level is dispatched as a [parallel_for]
    over the pins in that level.

    The executor is a lock-free fork-join core: each call publishes a
    single job descriptor through an [Atomic]; persistent worker
    domains claim chunk indices with [Atomic.fetch_and_add] and count
    completion down through a second padded atomic.  The hot path
    (publish / claim / finish) takes no lock and allocates one small
    record per {e job} — never per chunk — and workers spin briefly
    between jobs before parking, so bursts of tiny level-synchronous
    dispatches never touch a futex.

    {b Determinism.}  The chunk split is a pure function of
    [(n, grain)], and reduce partials are merged in chunk order, so
    results are bit-identical at every domain count.  This also holds
    when a call degrades to inline execution (nested call, contended
    submit slot, or no effective parallelism): the inline path folds
    the same chunks in the same order. *)

type pool

val create : ?domains:int -> ?oversubscribe:bool -> unit -> pool
(** [create ~domains ()] spawns a worker pool.  [domains] defaults to
    [recommended_domain_count - 1], at least 1 (meaning: run
    sequentially).  When the requested domain count exceeds the
    hardware's available parallelism, the pool degrades gracefully:
    only [min domains cores - 1] worker domains are spawned (zero on a
    single-core machine — even parked workers tax stop-the-world
    collections), {!auto_grain} sizes chunks for the parallelism that
    actually exists, and spin budgets drop to zero so time-sliced
    workers park instead of burning the shared core.  [oversubscribe]
    (default [false]) disables that degradation and treats the
    requested domain count as real — tests use it to exercise the
    concurrent machinery on any machine. *)

val shutdown : pool -> unit
(** Terminate the pool's domains.  The pool must not be used
    afterwards, and no [parallel_for] may be in flight. *)

val domain_count : pool -> int
(** Workers + the calling domain (1 for {!sequential_pool}). *)

val effective_parallelism : pool -> int
(** The parallelism {!auto_grain} plans for:
    [min domains available_cores], or [domains] when the pool was
    created with [~oversubscribe:true]. *)

val auto_grain : pool -> ?cost:float -> int -> int
(** [auto_grain pool ~cost n] is the chunk size used when
    [parallel_for]'s [?grain] is omitted.  [cost] is a per-index work
    hint in arbitrary units where [1.0] is a handful of float
    operations (default [1.0]).  The policy targets ~4 chunks per
    effective domain for load balance, but never splits finer than
    ~256 cost units per chunk so dispatch overhead stays amortised;
    with one effective domain it returns [n] (inline).  Because the
    result depends on the pool's effective parallelism, use it only
    for loops whose outcome does not depend on the split (disjoint
    writes); reductions use {!reduce_grain}. *)

val reduce_grain : ?cost:float -> int -> int
(** Grain used when [parallel_for_reduce]'s [?grain] is omitted.
    Unlike {!auto_grain} this is {e pool-independent} (a fixed 16-way
    split target with the same per-chunk cost floor), so the chunk
    split — and therefore the merge order and the bit pattern of the
    result — is identical at every domain count. *)

val parallel_for :
  pool -> ?obs:Obs.t -> ?grain:int -> ?cost:float -> int -> (int -> unit) ->
  unit
(** [parallel_for pool n f] evaluates [f i] for every [0 <= i < n].
    Work is split into chunks of [grain] indices ({!auto_grain} of [n]
    and [cost] when omitted); single-chunk ranges run on the calling
    domain.  [f] must be safe to run concurrently on disjoint indices.
    If [f] raises, every chunk still runs and the first exception is
    re-raised in the caller once the job has quiesced.  [obs] records
    [Par_dispatch]/[Par_wait] spans (from the calling domain, worker
    slot 0) around the publish and completion-wait phases of pooled
    dispatches, so executor overhead shows up in [--profile] output;
    inline executions record nothing, leaving their time attributed to
    the enclosing kernel span. *)

val parallel_for_reduce :
  pool ->
  ?obs:Obs.t ->
  ?grain:int ->
  ?cost:float ->
  int ->
  init:(int -> 'a) ->
  body:('a -> int -> unit) ->
  merge:('a -> 'a -> 'a) ->
  'a
(** [parallel_for_reduce pool n ~init ~body ~merge] folds [body] over
    [0 .. n - 1] with per-chunk partial accumulators.  [init k] makes
    chunk [k]'s (typically mutable) accumulator — it must be a neutral
    element, and is called once per chunk in chunk order on the calling
    domain ([init 0] alone when [n <= 0]), so a caller may hand chunk
    [k] a preallocated buffer of its own; each chunk folds into its
    own accumulator via [body acc i]; after the barrier the partials
    are combined with [merge] in {e chunk order}.  The chunk split
    depends only on [n] and the grain ({!reduce_grain} when omitted —
    never on the pool or worker scheduling), so the result is
    {e bit-identical} across domain counts: inline execution folds the
    same per-chunk partials in the same order.  [merge] may mutate and
    return its first argument. *)

val sequential_pool : pool
(** A pool with zero workers: every call runs inline on the calling
    domain.  Useful for tests and deterministic debugging. *)
