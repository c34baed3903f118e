(* Test-only oracle: the direct O(n^2) sums the fast DCT kernels in
   [Transform] are checked against, at any length. *)

let pi = 4.0 *. atan 1.0

let naive f x =
  let n = Array.length x in
  Array.init n (fun i ->
    let acc = ref 0.0 in
    for l = 0 to n - 1 do
      acc := !acc +. f x i l n
    done;
    !acc)

let basis k j n = pi *. float_of_int k *. (float_of_int j +. 0.5) /. float_of_int n

let dct = naive (fun x k j n -> x.(j) *. cos (basis k j n))
let cos_synth = naive (fun c j k n -> c.(k) *. cos (basis k j n))
let sin_synth = naive (fun c j k n -> c.(k) *. sin (basis k j n))
