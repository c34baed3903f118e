(* Lock-free fork-join executor over OCaml 5 domains.

   One [parallel_for] publishes a single immutable job descriptor
   through [pool.cur]; persistent workers claim chunk indices with
   [Atomic.fetch_and_add job.next] and completion is a padded atomic
   countdown ([job.remaining]).  The hot path — publish, claim, finish
   — takes no lock and allocates one descriptor per job, never per
   chunk.  Workers spin briefly between jobs before parking on a
   condition variable, so bursts of tiny level-synchronous dispatches
   (the differentiable timer's levels) never touch a futex.

   Every cross-domain communication goes through [Atomic]: there are
   no plain mutable reads outside a mutex anywhere on the worker path,
   which is what the OCaml 5 memory model requires (the previous
   work-queue executor peeked at a mutating [Queue.t] without the
   lock).  The two mutexes that remain guard only the two parking
   lots (idle workers, a caller waiting out a straggler) and are
   touched only after a spin budget has expired. *)

type job = {
  run : int -> int -> unit;  (* execute indices [lo, hi) *)
  jn : int;
  jgrain : int;
  jchunks : int;
  next : int Atomic.t;  (* next unclaimed chunk *)
  remaining : int Atomic.t;  (* chunks not yet finished *)
  waiter : bool Atomic.t;  (* the caller has parked on done_cond *)
  failed : exn option Atomic.t;  (* first exception raised by a chunk *)
}

type pool = {
  cur : job Atomic.t;  (* last published job; workers compare physically *)
  busy : bool Atomic.t;  (* submit slot: one job in flight at a time *)
  idlers : int Atomic.t;  (* workers parked on [wake] *)
  stopping : bool Atomic.t;
  sleep_mutex : Mutex.t;
  wake : Condition.t;
  done_mutex : Mutex.t;
  done_cond : Condition.t;
  worker_spin : int;  (* relax iterations before a worker parks *)
  caller_spin : int;  (* relax iterations before the caller parks *)
  eff : int;  (* effective parallelism for auto-grain *)
  mutable domains : unit Domain.t array;
}

(* Best-effort cache-line padding: a dead block allocated right after
   the atomic keeps the next minor-heap allocation off its line, so the
   claim counter and the countdown are not falsely shared. *)
let padded_atomic v =
  let a = Atomic.make v in
  ignore (Sys.opaque_identity (Bytes.create 128));
  a

let sentinel =
  { run = (fun _ _ -> ());
    jn = 0;
    jgrain = 1;
    jchunks = 0;
    next = Atomic.make 0;
    remaining = Atomic.make 0;
    waiter = Atomic.make false;
    failed = Atomic.make None }

(* ---- chunk execution (workers and the caller share this path) ---- *)

let exec_chunk job c =
  let lo = c * job.jgrain in
  let hi = min job.jn (lo + job.jgrain) in
  try job.run lo hi
  with e ->
    (* keep the countdown exact even on failure; the caller re-raises
       the first exception after the job quiesces *)
    ignore (Atomic.compare_and_set job.failed None (Some e))

let finish_chunk pool job =
  if Atomic.fetch_and_add job.remaining (-1) = 1 then
    if Atomic.get job.waiter then begin
      Mutex.lock pool.done_mutex;
      Condition.broadcast pool.done_cond;
      Mutex.unlock pool.done_mutex
    end

let help pool job =
  let rec claim () =
    let c = Atomic.fetch_and_add job.next 1 in
    if c < job.jchunks then begin
      exec_chunk job c;
      finish_chunk pool job;
      claim ()
    end
  in
  claim ()

(* ---- workers: spin for the next published job, then park ---- *)

let worker pool =
  let last = ref sentinel in
  let rec loop spin =
    if not (Atomic.get pool.stopping) then begin
      let j = Atomic.get pool.cur in
      if j != !last then begin
        last := j;
        help pool j;
        loop pool.worker_spin
      end
      else if spin > 0 then begin
        Domain.cpu_relax ();
        loop (spin - 1)
      end
      else begin
        Atomic.incr pool.idlers;
        Mutex.lock pool.sleep_mutex;
        (* recheck after raising [idlers]: a publisher that misses the
           increment must have published first, and this read would see
           it (both are SC atomics) *)
        if Atomic.get pool.cur == !last && not (Atomic.get pool.stopping)
        then Condition.wait pool.wake pool.sleep_mutex;
        Mutex.unlock pool.sleep_mutex;
        Atomic.decr pool.idlers;
        loop pool.worker_spin
      end
    end
  in
  loop pool.worker_spin

(* ---- pool construction ---- *)

let worker_spin_iters = 4096
let caller_spin_iters = 1024

let make_pool ~worker_spin ~caller_spin ~eff =
  { cur = Atomic.make sentinel;
    busy = padded_atomic false;
    idlers = padded_atomic 0;
    stopping = Atomic.make false;
    sleep_mutex = Mutex.create ();
    wake = Condition.create ();
    done_mutex = Mutex.create ();
    done_cond = Condition.create ();
    worker_spin;
    caller_spin;
    eff;
    domains = [||] }

let create ?domains ?(oversubscribe = false) () =
  let cores = Domain.recommended_domain_count () in
  let default = max 1 (cores - 1) in
  let requested = match domains with None -> default | Some d -> max 1 d in
  let eff = if oversubscribe then requested else min requested cores in
  (* time-sliced workers must park immediately: spinning on a core the
     caller needs only delays the job they are waiting to claim *)
  let spin_ok = requested <= cores && not oversubscribe in
  let pool =
    make_pool
      ~worker_spin:(if spin_ok then worker_spin_iters else 0)
      ~caller_spin:(if spin_ok then caller_spin_iters else 0)
      ~eff
  in
  (* spawn only workers that can actually run concurrently: eff <= 1
     keeps zero domains, because even parked workers tax every
     stop-the-world collection of a run they cannot speed up *)
  pool.domains <-
    Array.init (eff - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let sequential_pool = make_pool ~worker_spin:0 ~caller_spin:0 ~eff:1

let shutdown pool =
  Atomic.set pool.stopping true;
  Mutex.lock pool.sleep_mutex;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.sleep_mutex;
  Array.iter Domain.join pool.domains;
  pool.domains <- [||]

let domain_count pool = Array.length pool.domains + 1
let effective_parallelism pool = pool.eff

(* ---- auto-grain policy ---- *)

let oversplit = 4  (* chunks per effective domain: slack for balance *)
let min_chunk_cost = 256.0  (* unit-cost items per chunk, at least *)
let reduce_ways = 16  (* pool-independent split target for reductions *)

let cost_floor cost =
  max 1 (int_of_float (Float.ceil (min_chunk_cost /. Float.max 0.001 cost)))

let auto_grain pool ?(cost = 1.0) n =
  if n <= 1 then 1
  else if pool.eff <= 1 then n
  else
    let ways = oversplit * pool.eff in
    max ((n + ways - 1) / ways) (cost_floor cost)

let reduce_grain ?(cost = 1.0) n =
  if n <= 1 then 1
  else max ((n + reduce_ways - 1) / reduce_ways) (cost_floor cost)

(* ---- dispatch ---- *)

(* The inline fallback iterates chunk by chunk with the same split as
   the pooled path, so reductions fold identical partials in identical
   order: execution strategy never changes the bit pattern. *)
let run_chunks_inline run n grain chunks =
  for c = 0 to chunks - 1 do
    let lo = c * grain in
    run lo (min n (lo + grain))
  done

let k_dispatch = Obs.kernel "parallel.dispatch"
let k_wait = Obs.kernel "parallel.wait"

let dispatch pool obs run n grain =
  let chunks = (n + grain - 1) / grain in
  if chunks <= 1 then run 0 n
  else if Array.length pool.domains = 0 || pool.eff <= 1 then
    run_chunks_inline run n grain chunks
  else if not (Atomic.compare_and_set pool.busy false true) then
    (* contended submit slot: a concurrent or nested call owns the
       workers; degrade to inline rather than queue (and never deadlock
       on nested calls from inside a chunk) *)
    run_chunks_inline run n grain chunks
  else begin
    Obs.start obs k_dispatch;
    let job =
      { run;
        jn = n;
        jgrain = grain;
        jchunks = chunks;
        next = padded_atomic 0;
        remaining = padded_atomic chunks;
        waiter = Atomic.make false;
        failed = Atomic.make None }
    in
    Atomic.set pool.cur job;
    if Atomic.get pool.idlers > 0 then begin
      Mutex.lock pool.sleep_mutex;
      Condition.broadcast pool.wake;
      Mutex.unlock pool.sleep_mutex
    end;
    Obs.stop obs;
    help pool job;
    (* the caller ran out of chunks to claim; wait out the stragglers *)
    Obs.start obs k_wait;
    let rec wait spin =
      if Atomic.get job.remaining > 0 then
        if spin > 0 then begin
          Domain.cpu_relax ();
          wait (spin - 1)
        end
        else begin
          Atomic.set job.waiter true;
          Mutex.lock pool.done_mutex;
          while Atomic.get job.remaining > 0 do
            Condition.wait pool.done_cond pool.done_mutex
          done;
          Mutex.unlock pool.done_mutex
        end
    in
    wait pool.caller_spin;
    Obs.stop obs;
    Atomic.set pool.busy false;
    match Atomic.get job.failed with None -> () | Some e -> raise e
  end

let parallel_for pool ?(obs = Obs.disabled) ?grain ?cost n f =
  if n > 0 then begin
    let grain =
      match grain with Some g -> max 1 g | None -> auto_grain pool ?cost n
    in
    let run lo hi =
      for i = lo to hi - 1 do
        f i
      done
    in
    dispatch pool obs run n grain
  end

let parallel_for_reduce pool ?(obs = Obs.disabled) ?grain ?cost n ~init ~body
    ~merge =
  if n <= 0 then init 0
  else begin
    let grain =
      match grain with Some g -> max 1 g | None -> reduce_grain ?cost n
    in
    let chunks = (n + grain - 1) / grain in
    let partials = Array.init chunks init in
    let run lo hi =
      let acc = partials.(lo / grain) in
      for i = lo to hi - 1 do
        body acc i
      done
    in
    dispatch pool obs run n grain;
    let acc = ref partials.(0) in
    for c = 1 to chunks - 1 do
      acc := merge !acc partials.(c)
    done;
    !acc
  end
