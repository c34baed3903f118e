let pi = 4.0 *. atan 1.0

let is_power_of_two n = n > 0 && n land (n - 1) = 0

module Plan = struct
  type t = {
    n : int;
    rev : int array;         (* bit-reversal permutation *)
    (* stage twiddles, per sign: the stage of half-length h occupies
       [h - 1 .. 2h - 2] *)
    fwd_re : float array;
    fwd_im : float array;
    inv_re : float array;
    inv_im : float array;
    (* Makhoul reorder: sample j sits at v.(fold.(j)), with
       v.(m) = x.(2m) and v.(n-1-m) = x.(2m+1) *)
    fold : int array;
    ana_cos : float array;   (* DCT post-twiddle, theta = -pi k / 2n *)
    ana_sin : float array;
    syn_cos : float array;   (* synthesis pre-twiddle, theta = pi k / 2n *)
    syn_sin : float array;
    (* line scratch, one re/im pair per row (or column) slot *)
    re : float array array;
    im : float array array;
  }

  let bit_reversal n =
    let rev = Array.make n 0 in
    for i = 1 to n - 1 do
      rev.(i) <- (rev.(i lsr 1) lsr 1) lor (if i land 1 = 1 then n lsr 1 else 0)
    done;
    rev

  (* each stage's twiddles by the recurrence w^(k+1) = w^k * w, which
     restarts at 1 for every butterfly block *)
  let twiddles ~sign n =
    let tre = Array.make (max 0 (n - 1)) 0.0 in
    let tim = Array.make (max 0 (n - 1)) 0.0 in
    let half = ref 1 in
    while !half < n do
      let h = !half in
      let theta = sign *. 2.0 *. pi /. float_of_int (2 * h) in
      let wr = cos theta and wi = sin theta in
      let cr = ref 1.0 and ci = ref 0.0 in
      for k = 0 to h - 1 do
        tre.(h - 1 + k) <- !cr;
        tim.(h - 1 + k) <- !ci;
        let nr = (!cr *. wr) -. (!ci *. wi) in
        ci := (!cr *. wi) +. (!ci *. wr);
        cr := nr
      done;
      half := 2 * h
    done;
    (tre, tim)

  let create n =
    if not (is_power_of_two n) then
      invalid_arg "Transform.Plan: length must be a power of two";
    let fwd_re, fwd_im = twiddles ~sign:(-1.0) n in
    let inv_re, inv_im = twiddles ~sign:1.0 n in
    let ana k = -.pi *. float_of_int k /. (2.0 *. float_of_int n) in
    let syn k = pi *. float_of_int k /. (2.0 *. float_of_int n) in
    { n; rev = bit_reversal n; fwd_re; fwd_im; inv_re; inv_im;
      fold =
        Array.init n (fun j -> if j land 1 = 0 then j / 2 else n - 1 - (j / 2));
      ana_cos = Array.init n (fun k -> cos (ana k));
      ana_sin = Array.init n (fun k -> sin (ana k));
      syn_cos = Array.init n (fun k -> cos (syn k));
      syn_sin = Array.init n (fun k -> sin (syn k));
      re = Array.init n (fun _ -> Array.make n 0.0);
      im = Array.init n (fun _ -> Array.make n 0.0) }

  (* Radix-2 Cooley-Tukey butterflies over data already in bit-reversed
     order. *)
  let butterflies p ~tw_re ~tw_im re im =
    let n = p.n in
    let half = ref 1 in
    while !half < n do
      let h = !half in
      let i = ref 0 in
      while !i < n do
        for k = 0 to h - 1 do
          let cr = tw_re.(h - 1 + k) and ci = tw_im.(h - 1 + k) in
          let a = !i + k in
          let b = a + h in
          let tr = (re.(b) *. cr) -. (im.(b) *. ci) in
          let ti = (re.(b) *. ci) +. (im.(b) *. cr) in
          re.(b) <- re.(a) -. tr;
          im.(b) <- im.(a) -. ti;
          re.(a) <- re.(a) +. tr;
          im.(a) <- im.(a) +. ti
        done;
        i := !i + (2 * h)
      done;
      half := 2 * h
    done

  (* The 1-D kernels below transform the line [a.(off + j * stride)],
     j < n, in place through slot [s]'s scratch. *)

  (* DCT analysis (Makhoul): the DFT V of the reordered samples, then
     C.(k) = Re (exp (-i pi k / 2n) * V.(k)). *)
  let dct_line p s a off stride =
    let re = p.re.(s) and im = p.im.(s) in
    for j = 0 to p.n - 1 do
      re.(p.rev.(p.fold.(j))) <- a.(off + (j * stride))
    done;
    Array.fill im 0 p.n 0.0;
    butterflies p ~tw_re:p.fwd_re ~tw_im:p.fwd_im re im;
    for k = 0 to p.n - 1 do
      a.(off + (k * stride)) <-
        (re.(k) *. p.ana_cos.(k)) -. (im.(k) *. p.ana_sin.(k))
    done

  (* Cosine synthesis: with W.(k) = c.(k) * exp (i pi k / 2n) and u the
     unnormalised inverse DFT of W, f.(j) = Re u.(fold.(j)).
     sin(pi k (j+1/2)/n) = (-1)^j cos(pi (n-k) (j+1/2)/n), so with [sine]
     the coefficients are index-reversed and odd samples negated. *)
  let synth_line p s ~sine a off stride =
    let n = p.n in
    let re = p.re.(s) and im = p.im.(s) in
    for k = 0 to n - 1 do
      let c =
        if not sine then a.(off + (k * stride))
        else if k = 0 then 0.0
        else a.(off + ((n - k) * stride))
      in
      let d = p.rev.(k) in
      re.(d) <- c *. p.syn_cos.(k);
      im.(d) <- c *. p.syn_sin.(k)
    done;
    butterflies p ~tw_re:p.inv_re ~tw_im:p.inv_im re im;
    for j = 0 to n - 1 do
      let f = re.(p.fold.(j)) in
      a.(off + (j * stride)) <- (if sine && j land 1 = 1 then -.f else f)
    done

  let cos_line p s a off stride = synth_line p s ~sine:false a off stride
  let sin_line p s a off stride = synth_line p s ~sine:true a off stride
end

module Fft = struct
  let go ~inverse re im =
    let n = Array.length re in
    if Array.length im <> n then
      invalid_arg "Transform.Fft: re/im length mismatch";
    if not (is_power_of_two n) then
      invalid_arg "Transform.Fft: length must be a power of two";
    let p = Plan.create n in
    for i = 0 to n - 1 do
      let j = p.Plan.rev.(i) in
      if i < j then begin
        let tr = re.(i) in re.(i) <- re.(j); re.(j) <- tr;
        let ti = im.(i) in im.(i) <- im.(j); im.(j) <- ti
      end
    done;
    if inverse then Plan.butterflies p ~tw_re:p.inv_re ~tw_im:p.inv_im re im
    else Plan.butterflies p ~tw_re:p.fwd_re ~tw_im:p.fwd_im re im

  let transform ~re ~im = go ~inverse:false re im
  let inverse ~re ~im = go ~inverse:true re im
end

module Dct = struct
  (* a fresh plan's line kernel on a copy *)
  let planned line x =
    let y = Array.copy x in
    line (Plan.create (Array.length x)) 0 y 0 1;
    y

  let dct = planned Plan.dct_line
  let cos_synth = planned Plan.cos_line
  let sin_synth = planned Plan.sin_line
end

module Grid = struct
  (* Row r (column c) is transformed in place through scratch slot r
     (c): tasks write disjoint lines and share no scratch, so pooled
     dispatch is bit-identical to the sequential loop. *)
  let pass ?pool ?obs p ~rows line grid =
    let n = p.Plan.n in
    if Array.length grid <> n * n then
      invalid_arg "Transform.Grid: size mismatch";
    let pool = match pool with Some p -> p | None -> Parallel.sequential_pool in
    (* one line applies an O(n log n) kernel over n samples *)
    Parallel.parallel_for pool ?obs ~cost:(4.0 *. float_of_int n) n (fun s ->
      if rows then line p s grid (s * n) 1 else line p s grid s n)

  let two_pass row col ?pool ?obs p grid =
    pass ?pool ?obs p ~rows:true row grid;
    pass ?pool ?obs p ~rows:false col grid

  let dct2 = two_pass Plan.dct_line Plan.dct_line
  let cos_cos_synth = two_pass Plan.cos_line Plan.cos_line
  let sin_cos_synth = two_pass Plan.cos_line Plan.sin_line
  let cos_sin_synth = two_pass Plan.sin_line Plan.cos_line
end
