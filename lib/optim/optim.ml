let beta1 = 0.9
let beta2 = 0.999
let epsilon = 1e-8

type t = {
  n : int;
  m1 : float array;  (* first moment *)
  m2 : float array;  (* second moment *)
  mutable step_count : int;
}

let create ~n =
  if n < 0 then invalid_arg "Optim.create: negative size";
  { n; m1 = Array.make n 0.0; m2 = Array.make n 0.0; step_count = 0 }

let step t ~lr ~params ~grads ?mask () =
  if Array.length params <> t.n || Array.length grads <> t.n then
    invalid_arg "Optim.step: size mismatch";
  (match mask with
   | Some m when Array.length m <> t.n ->
     invalid_arg "Optim.step: mask size mismatch"
   | Some _ | None -> ());
  let active i = match mask with None -> true | Some m -> m.(i) in
  t.step_count <- t.step_count + 1;
  let k = float_of_int t.step_count in
  let c1 = 1.0 -. (beta1 ** k) and c2 = 1.0 -. (beta2 ** k) in
  for i = 0 to t.n - 1 do
    if active i then begin
      t.m1.(i) <- (beta1 *. t.m1.(i)) +. ((1.0 -. beta1) *. grads.(i));
      t.m2.(i) <- (beta2 *. t.m2.(i))
                  +. ((1.0 -. beta2) *. grads.(i) *. grads.(i));
      let m_hat = t.m1.(i) /. c1 in
      let v_hat = t.m2.(i) /. c2 in
      params.(i) <- params.(i) -. (lr *. m_hat /. (Float.sqrt v_hat +. epsilon))
    end
  done
