let pi = 4.0 *. atan 1.0

let is_power_of_two n = n > 0 && n land (n - 1) = 0

module Fft = struct
  (* Iterative radix-2 Cooley-Tukey with bit-reversal permutation. *)
  let check re im =
    let n = Array.length re in
    if Array.length im <> n then
      invalid_arg "Transform.Fft: re/im length mismatch";
    if not (is_power_of_two n) then
      invalid_arg "Transform.Fft: length must be a power of two";
    n

  let bit_reverse re im n =
    let j = ref 0 in
    for i = 0 to n - 2 do
      if i < !j then begin
        let tr = re.(i) in re.(i) <- re.(!j); re.(!j) <- tr;
        let ti = im.(i) in im.(i) <- im.(!j); im.(!j) <- ti
      end;
      let m = ref (n lsr 1) in
      while !m >= 1 && !j land !m <> 0 do
        j := !j lxor !m;
        m := !m lsr 1
      done;
      j := !j lor !m
    done

  let go ~sign re im =
    let n = check re im in
    if n > 1 then begin
      bit_reverse re im n;
      let len = ref 2 in
      while !len <= n do
        let half = !len / 2 in
        let theta = sign *. 2.0 *. pi /. float_of_int !len in
        let wr = cos theta and wi = sin theta in
        let i = ref 0 in
        while !i < n do
          let cr = ref 1.0 and ci = ref 0.0 in
          for k = 0 to half - 1 do
            let a = !i + k and b = !i + k + half in
            let tr = (re.(b) *. !cr) -. (im.(b) *. !ci) in
            let ti = (re.(b) *. !ci) +. (im.(b) *. !cr) in
            re.(b) <- re.(a) -. tr;
            im.(b) <- im.(a) -. ti;
            re.(a) <- re.(a) +. tr;
            im.(a) <- im.(a) +. ti;
            let nr = (!cr *. wr) -. (!ci *. wi) in
            ci := (!cr *. wi) +. (!ci *. wr);
            cr := nr
          done;
          i := !i + !len
        done;
        len := !len * 2
      done
    end

  let transform ~re ~im = go ~sign:(-1.0) re im
  let inverse ~re ~im = go ~sign:1.0 re im
end

module Dct = struct
  let dct_naive x =
    let n = Array.length x in
    Array.init n (fun k ->
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := !acc
               +. (x.(j)
                   *. cos (pi *. float_of_int k *. (float_of_int j +. 0.5)
                           /. float_of_int n))
      done;
      !acc)

  let cos_synth_naive c =
    let n = Array.length c in
    Array.init n (fun j ->
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc
               +. (c.(k)
                   *. cos (pi *. float_of_int k *. (float_of_int j +. 0.5)
                           /. float_of_int n))
      done;
      !acc)

  let sin_synth_naive c =
    let n = Array.length c in
    Array.init n (fun j ->
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc
               +. (c.(k)
                   *. sin (pi *. float_of_int k *. (float_of_int j +. 0.5)
                           /. float_of_int n))
      done;
      !acc)

  (* FFT-based DCT analysis (Makhoul): interleave x into v with
     v.(m) = x.(2m) and v.(n-1-m) = x.(2m+1), take the DFT V, then
     C.(k) = Re (exp (-i pi k / 2n) * V.(k)). *)
  let dct_fast x =
    let n = Array.length x in
    let re = Array.make n 0.0 and im = Array.make n 0.0 in
    let half = n / 2 in
    for m = 0 to half - 1 do
      re.(m) <- x.(2 * m);
      re.(n - 1 - m) <- x.((2 * m) + 1)
    done;
    Fft.transform ~re ~im;
    Array.init n (fun k ->
      let theta = -.pi *. float_of_int k /. (2.0 *. float_of_int n) in
      (re.(k) *. cos theta) -. (im.(k) *. sin theta))

  (* FFT-based cosine synthesis: with W.(k) = c.(k) * exp (i pi k / 2n) and
     u the unnormalised inverse DFT of W, f.(2m) = Re u.(m) and
     f.(2m+1) = Re u.(n-1-m). *)
  let cos_synth_fast c =
    let n = Array.length c in
    let re = Array.make n 0.0 and im = Array.make n 0.0 in
    for k = 0 to n - 1 do
      let theta = pi *. float_of_int k /. (2.0 *. float_of_int n) in
      re.(k) <- c.(k) *. cos theta;
      im.(k) <- c.(k) *. sin theta
    done;
    Fft.inverse ~re ~im;
    let f = Array.make n 0.0 in
    let half = n / 2 in
    for m = 0 to half - 1 do
      f.(2 * m) <- re.(m);
      f.((2 * m) + 1) <- re.(n - 1 - m)
    done;
    f

  let dct x = if is_power_of_two (Array.length x) then dct_fast x else dct_naive x

  let cos_synth c =
    if is_power_of_two (Array.length c) then cos_synth_fast c
    else cos_synth_naive c

  (* sin(pi k (j+1/2)/n) = (-1)^j cos(pi (n-k) (j+1/2)/n), so a sine
     synthesis is a cosine synthesis of the index-reversed coefficients
     followed by alternating signs. *)
  let sin_synth c =
    let n = Array.length c in
    if n = 0 then [||]
    else begin
      let y = Array.make n 0.0 in
      for k = 1 to n - 1 do
        y.(n - k) <- c.(k)
      done;
      let f = cos_synth y in
      for j = 0 to n - 1 do
        if j land 1 = 1 then f.(j) <- -.f.(j)
      done;
      f
    end
end

module Grid = struct
  (* Each row/column task only writes its own stripe of [out] (disjoint
     indices, fresh per-task scratch), so pooled dispatch is trivially
     bit-identical to the sequential loop. *)
  let apply_rows ?pool ?(obs = Obs.disabled) kernel n grid =
    if Array.length grid <> n * n then
      invalid_arg "Transform.Grid: size mismatch";
    let pool = match pool with Some p -> p | None -> Parallel.sequential_pool in
    let out = Array.make (n * n) 0.0 in
    (* one row applies an O(n log n) kernel over n samples *)
    Parallel.parallel_for pool ~obs ~cost:(4.0 *. float_of_int n) n (fun r ->
      let row = Array.sub grid (r * n) n in
      let t = kernel row in
      Array.blit t 0 out (r * n) n);
    out

  let apply_cols ?pool ?(obs = Obs.disabled) kernel n grid =
    if Array.length grid <> n * n then
      invalid_arg "Transform.Grid: size mismatch";
    let pool = match pool with Some p -> p | None -> Parallel.sequential_pool in
    let out = Array.make (n * n) 0.0 in
    Parallel.parallel_for pool ~obs ~cost:(4.0 *. float_of_int n) n (fun c ->
      let col = Array.init n (fun r -> grid.((r * n) + c)) in
      let t = kernel col in
      for r = 0 to n - 1 do
        out.((r * n) + c) <- t.(r)
      done);
    out

  let dct2 ?pool ?obs n grid =
    apply_cols ?pool ?obs Dct.dct n (apply_rows ?pool ?obs Dct.dct n grid)

  let cos_cos_synth ?pool ?obs n c =
    apply_cols ?pool ?obs Dct.cos_synth n
      (apply_rows ?pool ?obs Dct.cos_synth n c)

  let sin_cos_synth ?pool ?obs n c =
    apply_cols ?pool ?obs Dct.sin_synth n
      (apply_rows ?pool ?obs Dct.cos_synth n c)

  let cos_sin_synth ?pool ?obs n c =
    apply_cols ?pool ?obs Dct.cos_synth n
      (apply_rows ?pool ?obs Dct.sin_synth n c)
end
