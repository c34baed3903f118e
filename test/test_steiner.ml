(* Tests for RSMT construction, provenance and gradient scattering. *)

let rand_net rng n =
  (Array.init n (fun _ -> Workload.Rng.float rng 100.0),
   Array.init n (fun _ -> Workload.Rng.float rng 100.0))

let test_single_pin () =
  let t = Steiner.build ~xs:[| 3.0 |] ~ys:[| 4.0 |] () in
  Alcotest.(check int) "nodes" 1 (Steiner.node_count t);
  Alcotest.(check (float 1e-12)) "length" 0.0 (Steiner.total_length t)

let test_two_pins () =
  let t = Steiner.build ~xs:[| 0.0; 3.0 |] ~ys:[| 0.0; 4.0 |] () in
  Alcotest.(check int) "nodes" 2 (Steiner.node_count t);
  Alcotest.(check (float 1e-12)) "length" 7.0 (Steiner.total_length t);
  Alcotest.(check int) "root parent" (-1) t.Steiner.parent.(t.Steiner.order.(0))

let test_three_pins_optimal () =
  (* for 3 pins the optimal RSMT length equals the bbox half-perimeter *)
  let rng = Workload.Rng.create 21 in
  for _ = 1 to 100 do
    let xs, ys = rand_net rng 3 in
    let t = Steiner.build ~xs ~ys () in
    let hp = Steiner.hpwl ~xs ~ys in
    if Float.abs (Steiner.total_length t -. hp) > 1e-9 then
      Alcotest.failf "3-pin not optimal: %f vs %f" (Steiner.total_length t) hp
  done

let test_coincident_pins () =
  let t = Steiner.build ~xs:[| 1.0; 1.0; 1.0 |] ~ys:[| 2.0; 2.0; 2.0 |] () in
  Alcotest.(check (float 1e-12)) "zero length" 0.0 (Steiner.total_length t);
  Alcotest.(check int) "pins preserved" 3 t.Steiner.pin_count

let test_invalid () =
  let expect f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect (fun () -> Steiner.build ~xs:[||] ~ys:[||] ());
  expect (fun () -> Steiner.build ~xs:[| 1.0 |] ~ys:[| 1.0; 2.0 |] ())

let tree_is_connected t =
  (* every non-root node has a parent; order is a valid topological
     ordering (parents precede children) *)
  let n = Steiner.node_count t in
  let pos = Array.make n (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) t.Steiner.order;
  let ok = ref (pos.(t.Steiner.order.(0)) = 0) in
  for v = 0 to n - 1 do
    let p = t.Steiner.parent.(v) in
    if p >= 0 then begin
      if pos.(p) >= pos.(v) then ok := false
    end
    else if v <> t.Steiner.order.(0) then ok := false
  done;
  !ok

let prop_bounds =
  QCheck2.Test.make ~name:"hpwl <= rsmt <= mst, tree well-formed" ~count:300
    QCheck2.Gen.(int_range 2 12)
    (fun n ->
      let rng = Workload.Rng.create (n * 7919) in
      let xs, ys = rand_net rng n in
      let t = Steiner.build ~xs ~ys () in
      let len = Steiner.total_length t in
      let mst = Steiner_oracle.mst_length ~xs ~ys in
      let hp = Steiner.hpwl ~xs ~ys in
      hp -. 1e-9 <= len && len <= mst +. 1e-9 && tree_is_connected t)

let prop_provenance =
  QCheck2.Test.make ~name:"steiner coordinates come from source pins" ~count:200
    QCheck2.Gen.(int_range 3 10)
    (fun n ->
      let rng = Workload.Rng.create (n * 104729) in
      let xs, ys = rand_net rng n in
      let t = Steiner.build ~xs ~ys () in
      let ok = ref true in
      for v = t.Steiner.pin_count to Steiner.node_count t - 1 do
        if t.Steiner.xs.(v) <> xs.(t.Steiner.x_source.(v)) then ok := false;
        if t.Steiner.ys.(v) <> ys.(t.Steiner.y_source.(v)) then ok := false
      done;
      !ok)

let prop_update_consistent =
  QCheck2.Test.make ~name:"update_coordinates matches provenance" ~count:200
    QCheck2.Gen.(int_range 2 10)
    (fun n ->
      let rng = Workload.Rng.create (n * 31 + 5) in
      let xs, ys = rand_net rng n in
      let t = Steiner.build ~xs ~ys () in
      (* move pins a little and refresh *)
      let xs2 = Array.map (fun x -> x +. Workload.Rng.float rng 2.0) xs in
      let ys2 = Array.map (fun y -> y +. Workload.Rng.float rng 2.0) ys in
      Steiner.update_coordinates t ~xs:xs2 ~ys:ys2;
      let ok = ref true in
      for v = 0 to Steiner.node_count t - 1 do
        let ex =
          if v < t.Steiner.pin_count then xs2.(v) else xs2.(t.Steiner.x_source.(v))
        in
        if t.Steiner.xs.(v) <> ex then ok := false
      done;
      !ok)

let test_exact_beats_heuristic () =
  let rng = Workload.Rng.create 77 in
  let better = ref 0 in
  for _ = 1 to 200 do
    let xs, ys = rand_net rng 4 in
    let exact = Steiner.total_length (Steiner_oracle.build ~exact_limit:4 ~xs ~ys) in
    let heur = Steiner.total_length (Steiner_oracle.build ~exact_limit:2 ~xs ~ys) in
    if exact > heur +. 1e-9 then
      Alcotest.failf "exact worse than heuristic: %f > %f" exact heur;
    if exact < heur -. 1e-9 then incr better
  done;
  (* the exhaustive search must win at least occasionally *)
  Alcotest.(check bool) "sometimes strictly better" true (!better > 0)

let test_gradient_accumulation () =
  let rng = Workload.Rng.create 13 in
  let xs, ys = rand_net rng 6 in
  let t = Steiner.build ~xs ~ys () in
  let n = Steiner.node_count t in
  let node_gx = Array.init n (fun i -> float_of_int i) in
  let node_gy = Array.init n (fun i -> 2.0 *. float_of_int i) in
  let pin_gx = Array.make 6 0.0 and pin_gy = Array.make 6 0.0 in
  Steiner.accumulate_pin_gradient t ~node_gx ~node_gy ~pin_gx ~pin_gy;
  (* gradient mass is conserved: nothing vanishes at Steiner points *)
  let sum a = Array.fold_left ( +. ) 0.0 a in
  Alcotest.(check (float 1e-9)) "x mass" (sum node_gx) (sum pin_gx);
  Alcotest.(check (float 1e-9)) "y mass" (sum node_gy) (sum pin_gy)

let test_edge_length () =
  let t = Steiner.build ~xs:[| 0.0; 10.0 |] ~ys:[| 0.0; 5.0 |] () in
  let root = t.Steiner.order.(0) in
  Alcotest.(check (float 1e-12)) "root edge" 0.0 (Steiner.edge_length t root);
  let other = t.Steiner.order.(1) in
  Alcotest.(check (float 1e-12)) "edge" 15.0 (Steiner.edge_length t other)

let test_star_net_has_steiner () =
  (* a + of 5 pins: center pin plus 4 arms; RSMT should beat the star *)
  let xs = [| 0.0; 10.0; -10.0; 0.0; 0.0 |] in
  let ys = [| 0.0; 0.0; 0.0; 10.0; -10.0 |] in
  let t = Steiner.build ~xs ~ys () in
  Alcotest.(check (float 1e-9)) "length" 40.0 (Steiner.total_length t)

let suite =
  [ Alcotest.test_case "single pin" `Quick test_single_pin;
    Alcotest.test_case "two pins" `Quick test_two_pins;
    Alcotest.test_case "three pins optimal" `Quick test_three_pins_optimal;
    Alcotest.test_case "coincident pins" `Quick test_coincident_pins;
    Alcotest.test_case "invalid input" `Quick test_invalid;
    Alcotest.test_case "exact beats heuristic on 4 pins" `Quick
      test_exact_beats_heuristic;
    Alcotest.test_case "gradient mass conservation" `Quick
      test_gradient_accumulation;
    Alcotest.test_case "edge length" `Quick test_edge_length;
    Alcotest.test_case "plus-shaped net" `Quick test_star_net_has_steiner;
    QCheck_alcotest.to_alcotest prop_bounds;
    QCheck_alcotest.to_alcotest prop_provenance;
    QCheck_alcotest.to_alcotest prop_update_consistent ]

let test_exact_limit_clamped () =
  (* out-of-range exact limits are clamped, not rejected *)
  let xs = [| 0.0; 10.0; 5.0 |] and ys = [| 0.0; 10.0; 2.0 |] in
  let a = Steiner_oracle.build ~exact_limit:99 ~xs ~ys in
  let b = Steiner_oracle.build ~exact_limit:(-3) ~xs ~ys in
  Alcotest.(check (float 1e-9)) "same optimal length" (Steiner.total_length a)
    (Steiner.total_length b)

let suite =
  suite
  @ [ Alcotest.test_case "exact limit clamped" `Quick test_exact_limit_clamped ]

(* --- topology LUT (the FLUTE analogue) --- *)

let test_lut_matches_exhaustive () =
  (* degrees 4-6: the LUT must reproduce the exhaustive Hanan-subset
     oracle's optimal length on every instance *)
  let rng = Workload.Rng.create 2024 in
  for n = 4 to 6 do
    for _ = 1 to 50 do
      let xs, ys = rand_net rng n in
      let lut = Steiner.total_length (Steiner.build ~xs ~ys ()) in
      let oracle =
        Steiner.total_length (Steiner_oracle.build ~exact_limit:6 ~xs ~ys)
      in
      if Float.abs (lut -. oracle) > 1e-9 then
        Alcotest.failf "deg %d: lut %f vs exhaustive %f" n lut oracle
    done
  done

let test_lut_matches_dw_oracle () =
  (* degrees 7-8 are beyond the exhaustive subset search; compare against
     the Dreyfus-Wagner length oracle.  Degree <= 7 tables come from the
     complete Pareto construction and must match everywhere; degree 8 is
     sampled, checked here on a fixed seed. *)
  let rng = Workload.Rng.create 4242 in
  for n = 7 to 8 do
    for _ = 1 to 25 do
      let xs, ys = rand_net rng n in
      let lut = Steiner.total_length (Steiner.build ~xs ~ys ()) in
      let opt = Steiner_gen.optimal_length ~xs ~ys in
      if Float.abs (lut -. opt) > 1e-9 then
        Alcotest.failf "deg %d: lut %f vs DW %f" n lut opt
    done
  done

let test_lut_degenerate () =
  (* duplicate coordinates collapse rank gaps; the LUT path must stay
     well-formed and optimal (the DW oracle handles ties too) *)
  let cases =
    [ ([| 0.0; 0.0; 5.0; 5.0 |], [| 0.0; 5.0; 0.0; 5.0 |]);
      ([| 1.0; 1.0; 1.0; 1.0; 1.0 |], [| 0.0; 1.0; 2.0; 3.0; 4.0 |]);
      ([| 2.0; 2.0; 2.0; 2.0; 2.0; 2.0 |], [| 7.0; 7.0; 7.0; 7.0; 7.0; 7.0 |]);
      ([| 0.0; 3.0; 3.0; 6.0; 0.0; 6.0; 3.0 |],
       [| 0.0; 0.0; 4.0; 4.0; 4.0; 0.0; 2.0 |]) ]
  in
  List.iter
    (fun (xs, ys) ->
      let t = Steiner.build ~xs ~ys () in
      if not (tree_is_connected t) then Alcotest.fail "disconnected";
      Alcotest.(check (float 1e-9)) "optimal on ties"
        (Steiner_gen.optimal_length ~xs ~ys)
        (Steiner.total_length t))
    cases

let test_lut_gradient_fd () =
  (* finite-difference check of the provenance-chained gradient through
     LUT-built trees: for a functional linear in all node coordinates,
     accumulate_pin_gradient must match the finite difference of the
     functional under update_coordinates (node coordinates are linear in
     pin coordinates at fixed topology) *)
  let rng = Workload.Rng.create 99 in
  for n = 4 to 8 do
    let xs, ys = rand_net rng n in
    let t = Steiner.build ~xs ~ys () in
    let m = Steiner.node_count t in
    let node_gx = Array.init m (fun _ -> Workload.Rng.float rng 1.0 -. 0.5)
    and node_gy = Array.init m (fun _ -> Workload.Rng.float rng 1.0 -. 0.5) in
    let f xs' ys' =
      Steiner.update_coordinates t ~xs:xs' ~ys:ys';
      let acc = ref 0.0 in
      for v = 0 to m - 1 do
        acc :=
          !acc +. (node_gx.(v) *. t.Steiner.xs.(v))
          +. (node_gy.(v) *. t.Steiner.ys.(v))
      done;
      !acc
    in
    let pin_gx = Array.make n 0.0 and pin_gy = Array.make n 0.0 in
    Steiner.accumulate_pin_gradient t ~node_gx ~node_gy ~pin_gx ~pin_gy;
    let h = 0.5 in
    let base = f xs ys in
    for p = 0 to n - 1 do
      let xs2 = Array.copy xs in
      xs2.(p) <- xs2.(p) +. h;
      let fx = f xs2 ys in
      let ys2 = Array.copy ys in
      ys2.(p) <- ys2.(p) +. h;
      let fy = f xs ys2 in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "deg %d dF/dx_%d" n p)
        pin_gx.(p)
        ((fx -. base) /. h);
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "deg %d dF/dy_%d" n p)
        pin_gy.(p)
        ((fy -. base) /. h)
    done
  done

let test_lut_oracle_path_unaffected () =
  (* above Lut.max_degree the default path is the Prim + Steinerisation
     heuristic, the same tree the legacy exhaustive oracle builds there
     (the test oracle must not silently route through the tables) *)
  let rng = Workload.Rng.create 1234 in
  let xs, ys = rand_net rng 9 in
  let default = Steiner.build ~xs ~ys () in
  let heur = Steiner_oracle.build ~exact_limit:2 ~xs ~ys in
  Alcotest.(check (float 1e-9)) "above LUT degree = heuristic"
    (Steiner.total_length heur)
    (Steiner.total_length default)

let suite =
  suite
  @ [ Alcotest.test_case "lut matches exhaustive oracle (deg 4-6)" `Quick
        test_lut_matches_exhaustive;
      Alcotest.test_case "lut matches DW oracle (deg 7-8)" `Quick
        test_lut_matches_dw_oracle;
      Alcotest.test_case "lut degenerate coordinates" `Quick
        test_lut_degenerate;
      Alcotest.test_case "lut gradient vs finite differences" `Quick
        test_lut_gradient_fd;
      Alcotest.test_case "above LUT degree selects heuristic" `Quick
        test_lut_oracle_path_unaffected ]

(* --- the shipped topology table --- *)

let iter_permutations n f =
  let pi = Array.init n Fun.id in
  let swap i j =
    let t = pi.(i) in
    pi.(i) <- pi.(j);
    pi.(j) <- t
  in
  let rec go k =
    if k = n then f pi
    else
      for i = k to n - 1 do
        swap k i;
        go (k + 1);
        swap k i
      done
  in
  go 0

let test_table_complete () =
  (* every permutation of every LUT degree (8! = 40320 at degree 8)
     canonicalises to a class the table holds, and a net with exactly
     those ranks builds through the lookup *)
  let table = Steiner.Lut.Table.embedded in
  List.iter
    (fun (n, classes) ->
      Alcotest.(check int) (Printf.sprintf "degree %d classes" n) classes
        (Steiner.Lut.class_count n);
      iter_permutations n (fun pi ->
        let key, _ = Steiner.Lut.canonical pi in
        if Steiner.Lut.Table.class_bytes table n key = None then
          Alcotest.failf "degree %d: class %d missing" n key;
        let xs = Array.init n float_of_int and ys = Array.map float_of_int pi in
        if Steiner.Lut.try_build ~xs ~ys = None then
          Alcotest.failf "degree %d: lookup of class %d missed" n key))
    [ (2, 1); (3, 2); (4, 7); (5, 23); (6, 115); (7, 694); (8, 5282) ]

let test_table_regeneration () =
  (* the generator reproduces the shipped entries bitwise and in order:
     every class up to degree 6, a fixed spread of degree 7 and 8 *)
  for n = 2 to Steiner.Lut.max_degree do
    let cls = Steiner_gen.classes n in
    let len = Array.length cls in
    let picks =
      match n with
      | 7 -> List.init 8 (fun j -> ((2 * j) + 1) * len / 16)
      | 8 -> List.init 3 (fun j -> ((2 * j) + 1) * len / 6)
      | _ -> List.init len Fun.id
    in
    List.iter
      (fun i ->
        let key, _ = cls.(i) in
        match Steiner.Lut.Table.class_bytes Steiner.Lut.Table.embedded n key with
        | None -> Alcotest.failf "degree %d: class %d missing" n key
        | Some shipped ->
          if Steiner_gen.class_bytes n cls.(i) <> shipped then
            Alcotest.failf "degree %d: class %d differs from its regeneration"
              n key)
      picks
  done

let same_tree (a : Steiner.t) (b : Steiner.t) =
  let bits x = Array.map Int64.bits_of_float x in
  a.Steiner.pin_count = b.Steiner.pin_count
  && bits a.Steiner.xs = bits b.Steiner.xs
  && bits a.Steiner.ys = bits b.Steiner.ys
  && a.Steiner.parent = b.Steiner.parent
  && a.Steiner.x_source = b.Steiner.x_source
  && a.Steiner.y_source = b.Steiner.y_source
  && a.Steiner.order = b.Steiner.order

let test_table_pooled_lookups () =
  (* lookups are pure reads: trees built from a 4-domain pool equal the
     sequential ones bitwise *)
  let rng = Workload.Rng.create 808 in
  let nets =
    Array.init 3000 (fun i ->
      (* every 5th net snaps to a coarse grid, so ties are covered *)
      let n = 2 + (i mod (Steiner.Lut.max_degree - 1)) in
      let xs, ys = rand_net rng n in
      if i mod 5 = 0 then
        (Array.map (fun v -> Float.round (v /. 25.0)) xs,
         Array.map (fun v -> Float.round (v /. 25.0)) ys)
      else (xs, ys))
  in
  let build (xs, ys) = Option.get (Steiner.Lut.try_build ~xs ~ys) in
  let sequential = Array.map build nets in
  let pooled = Array.make (Array.length nets) sequential.(0) in
  let pool = Parallel.create ~domains:4 ~oversubscribe:true () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      Parallel.parallel_for pool ~grain:16 (Array.length nets) (fun i ->
        pooled.(i) <- build nets.(i)));
  Array.iteri
    (fun i t ->
      if not (same_tree t pooled.(i)) then
        Alcotest.failf "net %d: pooled tree differs" i)
    sequential

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let test_table_rejects_bad () =
  let good = Steiner.Lut.Table.(to_string embedded) in
  let len = String.length good in
  let with_u32 pos v =
    let b = Bytes.of_string good in
    Bytes.set_int32_le b pos (Int32.of_int v);
    Bytes.to_string b
  in
  let expect what data words =
    match Steiner.Lut.Table.of_string ~name:"bad.bin" data with
    | Ok _ -> Alcotest.failf "%s: table accepted" what
    | Error msg ->
      List.iter
        (fun w ->
          if not (contains msg w) then
            Alcotest.failf "%s: error %S does not mention %S" what msg w)
        ("bad.bin" :: words)
  in
  expect "wrong magic" ("X" ^ String.sub good 1 (len - 1)) [ "magic" ];
  expect "empty" "" [ "magic" ];
  expect "wrong version" (with_u32 8 (Steiner.Lut.Table.version + 1))
    [ "version" ];
  expect "truncated" (String.sub good 0 (len - 1)) [ "truncated" ];
  expect "truncated header" (String.sub good 0 40) [ "truncated" ];
  (* truncated with a consistent length field: caught by the bounds of
     the last class's entries, never read past the end *)
  let cut = String.sub good 0 (len - 7) in
  let b = Bytes.of_string cut in
  Bytes.set_int32_le b 12 (Int32.of_int (len - 7));
  expect "truncated, length patched" (Bytes.to_string b) [ "out of bounds" ];
  (* arbitrary single-byte corruption is either accepted or rejected
     with an error, never an exception from a bad read *)
  let rng = Workload.Rng.create 17 in
  for _ = 1 to 200 do
    let b = Bytes.of_string good in
    let pos = Workload.Rng.int rng len in
    Bytes.set b pos (Char.chr (Workload.Rng.int rng 256));
    match Steiner.Lut.Table.of_string ~name:"fuzz" (Bytes.to_string b) with
    | Ok _ | Error _ -> ()
  done;
  match Steiner.Lut.Table.of_string ~name:"good" good with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let suite =
  suite
  @ [ Alcotest.test_case "table complete (deg 2-8)" `Quick
        test_table_complete;
      Alcotest.test_case "table regenerates bitwise" `Quick
        test_table_regeneration;
      Alcotest.test_case "table pooled lookups bit-identical" `Quick
        test_table_pooled_lookups;
      Alcotest.test_case "table rejects bad bytes" `Quick
        test_table_rejects_bad ]
