(* Tests for the Adam optimiser. *)

let test_adam_first_step_is_signed_lr () =
  (* after one step, Adam moves by ~lr * sign(gradient) *)
  let o = Optim.create ~n:2 in
  let params = [| 0.0; 0.0 |] in
  Optim.step o ~lr:0.01 ~params ~grads:[| 123.0; -0.004 |] ();
  Alcotest.(check (float 1e-6)) "large grad" (-0.01) params.(0);
  Alcotest.(check (float 1e-6)) "small grad" 0.01 params.(1)

let test_mask () =
  let o = Optim.create ~n:3 in
  let params = [| 1.0; 2.0; 3.0 |] in
  let mask = [| true; false; true |] in
  Optim.step o ~lr:0.5 ~params ~grads:[| 1.0; 1.0; 1.0 |] ~mask ();
  Alcotest.(check (float 1e-12)) "masked untouched" 2.0 params.(1);
  Alcotest.(check bool) "others moved" true (params.(0) < 1.0 && params.(2) < 3.0)

let test_size_checks () =
  let o = Optim.create ~n:2 in
  let expect f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected size check"
  in
  expect (fun () -> Optim.create ~n:(-1));
  expect (fun () -> Optim.step o ~lr:0.1 ~params:[| 0.0 |] ~grads:[| 0.0; 0.0 |] ());
  expect (fun () ->
    Optim.step o ~lr:0.1 ~params:[| 0.0; 0.0 |] ~grads:[| 0.0; 0.0 |]
      ~mask:[| true |] ())

(* Adam minimises a separable convex quadratic *)
let quadratic_converges lr steps =
  let n = 4 in
  let target = [| 1.0; -2.0; 0.5; 3.0 |] in
  let o = Optim.create ~n in
  let params = Array.make n 0.0 in
  let grads = Array.make n 0.0 in
  for _ = 1 to steps do
    for i = 0 to n - 1 do
      grads.(i) <- 2.0 *. (params.(i) -. target.(i))
    done;
    Optim.step o ~lr ~params ~grads ()
  done;
  let err = ref 0.0 in
  for i = 0 to n - 1 do
    err := Float.max !err (Float.abs (params.(i) -. target.(i)))
  done;
  !err

let test_quadratic_convergence () =
  Alcotest.(check bool) "adam" true (quadratic_converges 0.05 2000 < 1e-3)

let suite =
  [ Alcotest.test_case "adam first step" `Quick test_adam_first_step_is_signed_lr;
    Alcotest.test_case "mask" `Quick test_mask;
    Alcotest.test_case "size checks" `Quick test_size_checks;
    Alcotest.test_case "quadratic convergence" `Quick test_quadratic_convergence ]
