(* Tests for the lock-free fork-join executor ("GPU kernel"
   substitute).  Pools are created with [~oversubscribe:true] so the
   concurrent claim/park machinery is exercised even on single-core CI
   machines (without it, a pool whose domains exceed the hardware
   degrades to inline execution by design). *)

(* CI runs the whole suite twice: once with DGP_TEST_DOMAINS=1 (every
   knob-respecting pool collapses to a single domain) and once with
   DGP_TEST_DOMAINS=4.  Tests that want a multi-domain pool read the
   knob through this helper. *)
let env_domains ?(default = 4) () =
  match Sys.getenv_opt "DGP_TEST_DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> default)
  | None -> default

let with_pool ?(domains = env_domains ()) f =
  let pool = Parallel.create ~domains ~oversubscribe:true () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)

let test_sequential_covers () =
  let n = 1000 in
  let hits = Array.make n 0 in
  Parallel.parallel_for Parallel.sequential_pool n (fun i ->
    hits.(i) <- hits.(i) + 1);
  Array.iteri
    (fun i h -> if h <> 1 then Alcotest.failf "index %d hit %d times" i h)
    hits

let test_pool_covers_exactly_once () =
  with_pool ~domains:4 (fun pool ->
    let n = 100_000 in
    let hits = Array.make n 0 in
    (* disjoint indices: no synchronisation needed *)
    Parallel.parallel_for pool ~grain:64 n (fun i -> hits.(i) <- hits.(i) + 1);
    let bad = ref 0 in
    Array.iter (fun h -> if h <> 1 then incr bad) hits;
    Alcotest.(check int) "all indices exactly once" 0 !bad)

let test_pool_sum () =
  with_pool ~domains:3 (fun pool ->
    let n = 50_000 in
    let acc = Atomic.make 0 in
    Parallel.parallel_for pool ~grain:128 n (fun i ->
      ignore (Atomic.fetch_and_add acc i));
    Alcotest.(check int) "sum" (n * (n - 1) / 2) (Atomic.get acc))

let test_empty_and_small () =
  with_pool ~domains:2 (fun pool ->
    Parallel.parallel_for pool 0 (fun _ -> Alcotest.fail "called on empty");
    let count = ref 0 in
    (* below grain: runs inline *)
    Parallel.parallel_for pool ~grain:100 7 (fun _ -> incr count);
    Alcotest.(check int) "small range" 7 !count)

let test_domain_count () =
  Alcotest.(check int) "sequential" 1 (Parallel.domain_count Parallel.sequential_pool);
  let pool = Parallel.create ~domains:3 ~oversubscribe:true () in
  Alcotest.(check int) "three domains" 3 (Parallel.domain_count pool);
  Parallel.shutdown pool;
  Alcotest.(check int) "after shutdown" 1 (Parallel.domain_count pool);
  (* without oversubscription the pool never spawns beyond the machine *)
  let cores = Domain.recommended_domain_count () in
  let pool = Parallel.create ~domains:((2 * cores) + 4) () in
  Alcotest.(check bool) "capped at cores" true
    (Parallel.domain_count pool <= max 1 cores);
  Parallel.shutdown pool

let test_repeated_use () =
  with_pool ~domains:2 (fun pool ->
    for round = 1 to 20 do
      let n = 5000 in
      let out = Array.make n 0 in
      Parallel.parallel_for pool ~grain:37 n (fun i -> out.(i) <- i * round);
      Alcotest.(check int) "spot check" (1234 * round) out.(1234)
    done)

type isum = { mutable total : int; mutable count : int }

let reduce_sum pool ?grain n =
  let acc =
    Parallel.parallel_for_reduce pool ?grain n
      ~init:(fun _ -> { total = 0; count = 0 })
      ~body:(fun acc i ->
        acc.total <- acc.total + i;
        acc.count <- acc.count + 1)
      ~merge:(fun a b ->
        a.total <- a.total + b.total;
        a.count <- a.count + b.count;
        a)
  in
  (acc.total, acc.count)

let test_reduce_sequential () =
  let n = 10_000 in
  let total, count = reduce_sum Parallel.sequential_pool ~grain:64 n in
  Alcotest.(check int) "total" (n * (n - 1) / 2) total;
  Alcotest.(check int) "count" n count;
  let total0, count0 = reduce_sum Parallel.sequential_pool ~grain:64 0 in
  Alcotest.(check int) "empty total" 0 total0;
  Alcotest.(check int) "empty count" 0 count0

let test_reduce_pool () =
  with_pool ~domains:4 (fun pool ->
    List.iter
      (fun (n, grain) ->
        let total, count = reduce_sum pool ~grain n in
        Alcotest.(check int)
          (Printf.sprintf "total n=%d grain=%d" n grain)
          (n * (n - 1) / 2)
          total;
        Alcotest.(check int)
          (Printf.sprintf "count n=%d grain=%d" n grain)
          n count)
      [ (50_000, 128); (1_000, 1_024); (1_025, 1_024); (3, 1) ])

let test_reduce_init_chunk_index () =
  (* [init k] runs once per chunk, in chunk order, and chunk k folds
     exactly its own index range into that accumulator *)
  with_pool (fun pool ->
    let calls = ref [] in
    let _, stray =
      Parallel.parallel_for_reduce pool ~grain:100 1_050
        ~init:(fun k ->
          calls := k :: !calls;
          (k, ref 0))
        ~body:(fun (k, stray) i -> if i / 100 <> k then incr stray)
        ~merge:(fun (k, a) (_, b) ->
          a := !a + !b;
          (k, a))
    in
    Alcotest.(check (list int)) "init order" (List.init 11 Fun.id)
      (List.rev !calls);
    Alcotest.(check int) "items folded into their own chunk" 0 !stray;
    calls := [];
    Parallel.parallel_for_reduce pool 0
      ~init:(fun k -> calls := k :: !calls)
      ~body:(fun () _ -> ())
      ~merge:(fun () () -> ());
    Alcotest.(check (list int)) "empty range" [ 0 ] !calls)

let test_reduce_merge_order () =
  (* merge must run in chunk order: concatenating per-chunk minima of the
     index ranges must come out sorted *)
  with_pool ~domains:3 (fun pool ->
    let firsts =
      Parallel.parallel_for_reduce pool ~grain:100 1_000
        ~init:(fun _ -> ref [])
        ~body:(fun acc i ->
          match !acc with [] -> acc := [ i ] | _ -> ())
        ~merge:(fun a b ->
          a := !a @ !b;
          a)
    in
    Alcotest.(check (list int)) "chunk order"
      [ 0; 100; 200; 300; 400; 500; 600; 700; 800; 900 ]
      !firsts)

(* ---- the auto-grain policy ---- *)

let test_auto_grain_policy () =
  (* the sequential pool plans no parallelism: everything inlines *)
  Alcotest.(check int) "seq grain = n" 1000
    (Parallel.auto_grain Parallel.sequential_pool 1000);
  with_pool ~domains:4 (fun pool ->
    Alcotest.(check int) "effective parallelism" 4
      (Parallel.effective_parallelism pool);
    (* large cheap range: ~4 chunks per domain *)
    Alcotest.(check int) "balance grain" (262_144 / 16)
      (Parallel.auto_grain pool ~cost:16.0 262_144);
    (* cheap bodies never split finer than the cost floor ... *)
    Alcotest.(check bool) "cost floor" true
      (Parallel.auto_grain pool ~cost:1.0 2_048 >= 256);
    (* ... so a tiny range is one chunk (inline) *)
    Alcotest.(check bool) "tiny range inlines" true
      (Parallel.auto_grain pool 64 >= 64);
    (* expensive bodies may split all the way down to the balance term *)
    Alcotest.(check int) "expensive body" 64
      (Parallel.auto_grain pool ~cost:1000.0 1_024));
  (* the reduce grain never consults the pool *)
  Alcotest.(check int) "reduce 16-way split" 3125
    (Parallel.reduce_grain ~cost:8.0 50_000);
  Alcotest.(check bool) "reduce cost floor" true
    (Parallel.reduce_grain ~cost:1.0 1_000 >= 256)

type fsum = { mutable f : float }

(* Auto-grained reductions must be bit-identical at every domain count:
   the chunk split is pool-independent and partials merge in chunk
   order, so even non-associative float sums reproduce exactly. *)
let test_reduce_bit_identical_across_domains () =
  let run pool =
    let acc =
      Parallel.parallel_for_reduce pool ~cost:1.0 30_000
        ~init:(fun _ -> { f = 0.0 })
        ~body:(fun a i -> a.f <- a.f +. sin (float_of_int i))
        ~merge:(fun a b ->
          a.f <- a.f +. b.f;
          a)
    in
    Int64.bits_of_float acc.f
  in
  let base = run Parallel.sequential_pool in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
        Alcotest.(check bool)
          (Printf.sprintf "bits at %d domains" domains)
          true
          (run pool = base)))
    [ 1; 2; 4; 8 ]

(* ---- nested and concurrent submissions ---- *)

let test_nested_calls () =
  (* a chunk body issuing its own parallel_for on the same pool must
     degrade to inline execution, never deadlock *)
  with_pool (fun pool ->
    let out = Array.make 8192 0 in
    Parallel.parallel_for pool ~grain:1 8 (fun b ->
      Parallel.parallel_for pool ~grain:64 1024 (fun i ->
        out.((b * 1024) + i) <- (b * 1024) + i));
    Array.iteri
      (fun i v -> if v <> i then Alcotest.failf "slot %d holds %d" i v)
      out)

let test_concurrent_callers () =
  (* two domains hammering one pool: whoever loses the submit slot runs
     inline; both must see exact results every round *)
  with_pool (fun pool ->
    let caller () =
      Domain.spawn (fun () ->
        let ok = ref true in
        for round = 1 to 20 do
          let n = 20_000 in
          let out = Array.make n 0 in
          Parallel.parallel_for pool ~grain:97 n (fun i -> out.(i) <- i * round);
          for i = 0 to n - 1 do
            if out.(i) <> i * round then ok := false
          done;
          let total, count = reduce_sum pool ~grain:257 n in
          if total <> n * (n - 1) / 2 || count <> n then ok := false
        done;
        !ok)
    in
    let d1 = caller () and d2 = caller () in
    Alcotest.(check bool) "caller 1 exact" true (Domain.join d1);
    Alcotest.(check bool) "caller 2 exact" true (Domain.join d2))

let test_exception_propagates () =
  with_pool ~domains:2 (fun pool ->
    let hits = Atomic.make 0 in
    (match
       Parallel.parallel_for pool ~grain:10 1000 (fun i ->
         Atomic.incr hits;
         if i = 500 then failwith "boom")
     with
    | () -> Alcotest.fail "exception was swallowed"
    | exception Failure m -> Alcotest.(check string) "message" "boom" m);
    (* the job quiesced before re-raising: the raising chunk stops at
       the raise (indices 501..509 of chunk [500,510) are lost) but all
       other chunks still complete, and the pool remains usable *)
    Alcotest.(check int) "other chunks completed" 991 (Atomic.get hits);
    let count = Atomic.make 0 in
    Parallel.parallel_for pool ~grain:16 512 (fun _ -> Atomic.incr count);
    Alcotest.(check int) "pool alive after failure" 512 (Atomic.get count))

let suite =
  [ Alcotest.test_case "sequential pool covers range" `Quick test_sequential_covers;
    Alcotest.test_case "pool covers exactly once" `Quick test_pool_covers_exactly_once;
    Alcotest.test_case "pool atomic sum" `Quick test_pool_sum;
    Alcotest.test_case "empty and sub-grain ranges" `Quick test_empty_and_small;
    Alcotest.test_case "domain count" `Quick test_domain_count;
    Alcotest.test_case "repeated parallel_for calls" `Quick test_repeated_use;
    Alcotest.test_case "reduce: sequential + empty" `Quick test_reduce_sequential;
    Alcotest.test_case "reduce: pooled sums" `Quick test_reduce_pool;
    Alcotest.test_case "reduce: init gets the chunk index" `Quick
      test_reduce_init_chunk_index;
    Alcotest.test_case "reduce: merge in chunk order" `Quick
      test_reduce_merge_order;
    Alcotest.test_case "auto-grain policy" `Quick test_auto_grain_policy;
    Alcotest.test_case "reduce: bit-identical across domains" `Quick
      test_reduce_bit_identical_across_domains;
    Alcotest.test_case "nested calls degrade inline" `Quick test_nested_calls;
    Alcotest.test_case "concurrent callers stress" `Quick
      test_concurrent_callers;
    Alcotest.test_case "chunk exception propagates" `Quick
      test_exception_propagates ]
