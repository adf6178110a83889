(* Tests for extra core-engine behaviours: owned-only iteration,
   ranged movers, and view/arg edge cases. *)

open Opp_core
open Opp_core.Types

let check_float = Alcotest.(check (float 1e-12))

(* --- extra core-engine behaviours --- *)

let test_iterate_core_respects_exec_size () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 10 in
  cells.s_exec_size <- 6 (* elements 6..9 are halo copies *);
  let d = Opp.decl_dat ctx ~name:"d" ~set:cells ~dim:1 None in
  Opp.par_loop ~name:"mark" (fun v -> View.set v.(0) 0 1.0) cells Opp.core
    [ Opp.arg_dat d Opp.write ];
  for c = 0 to 5 do
    check_float "owned marked" 1.0 d.d_data.(c)
  done;
  for c = 6 to 9 do
    check_float "halo untouched" 0.0 d.d_data.(c)
  done;
  (* Iterate_all still covers everything *)
  Opp.par_loop ~name:"mark" (fun v -> View.set v.(0) 0 2.0) cells Opp.all
    [ Opp.arg_dat d Opp.write ];
  check_float "halo covered by all" 2.0 d.d_data.(9)

let test_move_injected_range_only () =
  (* the distributed backend continues only freshly received particles *)
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 4 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let p2c = Opp.decl_map ctx ~name:"p2c" ~from:parts ~to_:cells ~arity:1 None in
  let touched = Opp.decl_dat ctx ~name:"touched" ~set:parts ~dim:1 None in
  ignore (Opp.inject parts 3);
  Opp.reset_injected parts;
  ignore (Opp.inject parts 2);
  for p = 0 to 4 do
    p2c.m_data.(p) <- 0
  done;
  let kern views (mc : Seq.move_ctx) =
    View.set views.(0) 0 1.0;
    ignore mc;
    mc.Seq.status <- Seq.Move_done
  in
  let r =
    Seq.particle_move ~iterate:Seq.Iterate_injected ~name:"resume" kern parts ~p2c
      [ Opp.arg_dat touched Opp.rw ]
  in
  Alcotest.(check int) "moved only the new ones" 2 r.Seq.mv_moved;
  check_float "old untouched" 0.0 touched.d_data.(0);
  check_float "new touched" 1.0 touched.d_data.(3);
  check_float "new touched" 1.0 touched.d_data.(4)

let test_view_helpers () =
  let v = View.of_array [| 1.0; 2.0; 3.0; 4.0 |] 2 in
  v.View.base <- 2;
  Alcotest.(check (array (float 0.0))) "to_array" [| 3.0; 4.0 |] (View.to_array v);
  View.blit_from v [| 9.0; 8.0 |];
  check_float "blit" 9.0 (View.get v 0);
  View.fill v 0.5;
  check_float "fill" 0.5 (View.get v 1)

let test_arg_bytes_model () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 2 in
  let nodes = Opp.decl_set ctx ~name:"nodes" 3 in
  let c2n =
    Opp.decl_map ctx ~name:"c2n" ~from:cells ~to_:nodes ~arity:2 (Some [| 0; 1; 1; 2 |])
  in
  let nd = Opp.decl_dat ctx ~name:"nd" ~set:nodes ~dim:3 None in
  let cd = Opp.decl_dat ctx ~name:"cd" ~set:cells ~dim:3 None in
  (* direct read: dim*8 *)
  Alcotest.(check int) "direct read" 24 (Arg.bytes_per_elem (Opp.arg_dat cd Opp.read));
  (* indirect inc: 2x data for read-modify-write + 4 for the map entry *)
  Alcotest.(check int) "indirect inc" 52
    (Arg.bytes_per_elem (Opp.arg_dat_i nd ~idx:0 ~map:c2n Opp.inc));
  (* globals are register-resident *)
  Alcotest.(check int) "gbl free" 0 (Arg.bytes_per_elem (Opp.arg_gbl [| 0.0 |] Opp.inc))

let test_profile_timed_and_intensity () =
  let prof = Profile.create () in
  let r = Profile.timed ~t:prof ~name:"phase" ~flops:100.0 ~bytes:50.0 (fun () -> 42) in
  Alcotest.(check int) "returns" 42 r;
  match Profile.entries ~t:prof () with
  | [ ("phase", e) ] ->
      Alcotest.(check (option (float 1e-12))) "intensity" (Some 2.0) (Profile.intensity e)
  | _ -> Alcotest.fail "entry missing"

let suite =
  [
    Alcotest.test_case "iterate core vs all" `Quick test_iterate_core_respects_exec_size;
    Alcotest.test_case "move over injected range" `Quick test_move_injected_range_only;
    Alcotest.test_case "view helpers" `Quick test_view_helpers;
    Alcotest.test_case "arg traffic model" `Quick test_arg_bytes_model;
    Alcotest.test_case "profile timed/intensity" `Quick test_profile_timed_and_intensity;
  ]
