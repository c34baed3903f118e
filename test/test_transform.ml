(* Tests for the FFT / DCT transform stack behind the density solver. *)

let close ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let arrays_close ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> close ~eps x y) a b

let check_arrays name a b =
  if not (arrays_close ~eps:1e-8 a b) then
    Alcotest.failf "%s: arrays differ" name

let rand_array rng n = Array.init n (fun _ -> Workload.Rng.float rng 2.0 -. 1.0)

let test_fft_impulse () =
  (* DFT of a unit impulse is the all-ones spectrum *)
  let n = 8 in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  re.(0) <- 1.0;
  Transform.Fft.transform ~re ~im;
  Array.iter (fun v -> Alcotest.(check (float 1e-12)) "re" 1.0 v) re;
  Array.iter (fun v -> Alcotest.(check (float 1e-12)) "im" 0.0 v) im

let test_fft_roundtrip () =
  let rng = Workload.Rng.create 3 in
  let n = 64 in
  let re = rand_array rng n and im = rand_array rng n in
  let re0 = Array.copy re and im0 = Array.copy im in
  Transform.Fft.transform ~re ~im;
  Transform.Fft.inverse ~re ~im;
  let scale = 1.0 /. float_of_int n in
  check_arrays "re roundtrip" re0 (Array.map (fun v -> v *. scale) re);
  check_arrays "im roundtrip" im0 (Array.map (fun v -> v *. scale) im)

let test_fft_dc () =
  (* constant input concentrates in bin 0 *)
  let n = 16 in
  let re = Array.make n 1.0 and im = Array.make n 0.0 in
  Transform.Fft.transform ~re ~im;
  Alcotest.(check (float 1e-9)) "dc" (float_of_int n) re.(0);
  for k = 1 to n - 1 do
    Alcotest.(check (float 1e-9)) "bin" 0.0 re.(k)
  done

let test_fft_invalid () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Transform.Fft: length must be a power of two")
    (fun () ->
      Transform.Fft.transform ~re:(Array.make 3 0.0) ~im:(Array.make 3 0.0));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Transform.Fft: re/im length mismatch") (fun () ->
      Transform.Fft.transform ~re:(Array.make 4 0.0) ~im:(Array.make 8 0.0))

let test_fft_parseval () =
  let rng = Workload.Rng.create 4 in
  let n = 32 in
  let re = rand_array rng n and im = Array.make n 0.0 in
  let energy_time =
    Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 re
  in
  Transform.Fft.transform ~re ~im;
  let energy_freq = ref 0.0 in
  for k = 0 to n - 1 do
    energy_freq := !energy_freq +. (re.(k) *. re.(k)) +. (im.(k) *. im.(k))
  done;
  Alcotest.(check (float 1e-6)) "parseval" energy_time
    (!energy_freq /. float_of_int n)

(* fast paths agree with the direct O(n^2) definitions at every
   power-of-two size from 1 to 128 *)
let pow2_line =
  QCheck2.Gen.(
    pair (int_range 0 7) (list_size (return 128) (float_range (-1.0) 1.0)))

let fast_matches_naive ~name fast naive =
  QCheck2.Test.make ~name ~count:100 pow2_line (fun (log_n, vals) ->
    let x = Array.sub (Array.of_list vals) 0 (1 lsl log_n) in
    arrays_close ~eps:1e-8 (fast x) (naive x))

let prop_dct_fast_matches_naive =
  fast_matches_naive ~name:"dct fast = naive (pow2 sizes)" Transform.Dct.dct
    Dct_oracle.dct

let prop_cos_synth_fast_matches_naive =
  fast_matches_naive ~name:"cos_synth fast = naive" Transform.Dct.cos_synth
    Dct_oracle.cos_synth

let prop_sin_synth_fast_matches_naive =
  fast_matches_naive ~name:"sin_synth fast = naive" Transform.Dct.sin_synth
    Dct_oracle.sin_synth

(* a single sample is its own transform: cos 0 = 1, sin 0 = 0 *)
let test_length_one () =
  let one = [| 5.0 |] in
  check_arrays "dct" one (Transform.Dct.dct one);
  check_arrays "dct naive" one (Dct_oracle.dct one);
  check_arrays "cos_synth" one (Transform.Dct.cos_synth one);
  check_arrays "cos_synth naive" one (Dct_oracle.cos_synth one);
  check_arrays "sin_synth" [| 0.0 |] (Transform.Dct.sin_synth one);
  let g = [| 3.0 |] in
  Transform.Grid.dct2 (Transform.Plan.create 1) g;
  check_arrays "dct2" [| 3.0 |] g

let test_non_pow2_rejected () =
  let x = rand_array (Workload.Rng.create 5) 12 in
  List.iter
    (fun (name, f) ->
      match f x with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted length 12" name)
    [ ("dct", Transform.Dct.dct); ("cos_synth", Transform.Dct.cos_synth);
      ("sin_synth", Transform.Dct.sin_synth) ]

let test_dct_roundtrip () =
  let rng = Workload.Rng.create 6 in
  let n = 32 in
  let x = rand_array rng n in
  let c = Transform.Dct.dct x in
  let scaled =
    Array.mapi
      (fun k v -> (if k = 0 then 1.0 else 2.0) *. v /. float_of_int n)
      c
  in
  check_arrays "dct/cos_synth inverse" x (Transform.Dct.cos_synth scaled)

let test_grid_roundtrip () =
  let rng = Workload.Rng.create 7 in
  let n = 8 in
  let grid = rand_array rng (n * n) in
  let plan = Transform.Plan.create n in
  let c = Array.copy grid in
  Transform.Grid.dct2 plan c;
  let scale k = if k = 0 then 1.0 /. float_of_int n else 2.0 /. float_of_int n in
  let scaled =
    Array.mapi (fun idx v -> v *. scale (idx / n) *. scale (idx mod n)) c
  in
  Transform.Grid.cos_cos_synth plan scaled;
  check_arrays "2d roundtrip" grid scaled

let test_grid_size_check () =
  Alcotest.check_raises "grid size"
    (Invalid_argument "Transform.Grid: size mismatch") (fun () ->
      Transform.Grid.dct2 (Transform.Plan.create 4) (Array.make 10 0.0));
  Alcotest.check_raises "plan size"
    (Invalid_argument "Transform.Plan: length must be a power of two")
    (fun () -> ignore (Transform.Plan.create 12))

let test_grid_sin_axes () =
  (* sin along the row axis means row-constant input maps to zero only
     when the column spectrum says so; check a pure mode instead:
     coefficients with a single (u=1, v=0) entry synthesise
     sin(pi (r+1/2) / n) constant across columns. *)
  let n = 8 in
  let c = Array.make (n * n) 0.0 in
  c.(1 * n) <- 1.0;
  let f = Array.copy c in
  Transform.Grid.sin_cos_synth (Transform.Plan.create n) f;
  let pi = 4.0 *. atan 1.0 in
  for r = 0 to n - 1 do
    let expect = sin (pi *. (float_of_int r +. 0.5) /. float_of_int n) in
    for col = 0 to n - 1 do
      Alcotest.(check (float 1e-9)) "mode value" expect f.((r * n) + col)
    done
  done

(* Each in-place 2-D pass equals its 1-D references applied along every
   row, then every column, at sizes 1 to 32, sequentially and pooled. *)
let grid_reference ~row ~col n g =
  let out = Array.copy g in
  for r = 0 to n - 1 do
    Array.blit (row (Array.sub out (r * n) n)) 0 out (r * n) n
  done;
  for c = 0 to n - 1 do
    let line = col (Array.init n (fun r -> out.((r * n) + c))) in
    Array.iteri (fun r v -> out.((r * n) + c) <- v) line
  done;
  out

let prop_grid_matches_naive =
  QCheck2.Test.make ~name:"grid passes = naive rows then columns" ~count:20
    QCheck2.Gen.(pair (int_range 0 5) (int_range 0 1_000_000))
    (fun (log_n, seed) ->
      let n = 1 lsl log_n in
      let g = rand_array (Workload.Rng.create seed) (n * n) in
      let plan = Transform.Plan.create n in
      let open Dct_oracle in
      Test_parallel.with_pool (fun pool ->
        List.for_all
          (fun (pass, row, col) ->
            let expect = grid_reference ~row ~col n g in
            let seq = Array.copy g and pooled = Array.copy g in
            pass ?pool:None plan seq;
            pass ?pool:(Some pool) plan pooled;
            arrays_close ~eps:1e-8 seq expect
            && Array.map Int64.bits_of_float pooled
               = Array.map Int64.bits_of_float seq)
          [ ((fun ?pool p a -> Transform.Grid.dct2 ?pool p a), dct, dct);
            ((fun ?pool p a -> Transform.Grid.cos_cos_synth ?pool p a),
             cos_synth, cos_synth);
            ((fun ?pool p a -> Transform.Grid.sin_cos_synth ?pool p a),
             cos_synth, sin_synth);
            ((fun ?pool p a -> Transform.Grid.cos_sin_synth ?pool p a),
             sin_synth, cos_synth) ]))

let suite =
  [ Alcotest.test_case "fft impulse" `Quick test_fft_impulse;
    Alcotest.test_case "fft roundtrip" `Quick test_fft_roundtrip;
    Alcotest.test_case "fft dc" `Quick test_fft_dc;
    Alcotest.test_case "fft invalid input" `Quick test_fft_invalid;
    Alcotest.test_case "fft parseval" `Quick test_fft_parseval;
    Alcotest.test_case "dct non-pow2 rejected" `Quick test_non_pow2_rejected;
    Alcotest.test_case "dct roundtrip" `Quick test_dct_roundtrip;
    Alcotest.test_case "length-1 transforms" `Quick test_length_one;
    Alcotest.test_case "grid 2d roundtrip" `Quick test_grid_roundtrip;
    Alcotest.test_case "grid size check" `Quick test_grid_size_check;
    Alcotest.test_case "grid sin axis convention" `Quick test_grid_sin_axes;
    QCheck_alcotest.to_alcotest prop_dct_fast_matches_naive;
    QCheck_alcotest.to_alcotest prop_cos_synth_fast_matches_naive;
    QCheck_alcotest.to_alcotest prop_sin_synth_fast_matches_naive;
    QCheck_alcotest.to_alcotest prop_grid_matches_naive ]
