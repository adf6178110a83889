(* Tests for the OP-PIC core DSL: declarations, par_loop semantics,
   particle lifecycle, and the multi-hop particle mover on a toy 1-D
   chain mesh. *)

open Opp_core
open Opp_core.Types

let check_float = Alcotest.(check (float 1e-12))

(* A chain of n cells, each with 2 nodes (shared): node i and i+1. *)
let chain_mesh ctx n =
  let cells = Opp.decl_set ctx ~name:"cells" n in
  let nodes = Opp.decl_set ctx ~name:"nodes" (n + 1) in
  let c2n_data = Array.init (2 * n) (fun i -> (i / 2) + (i mod 2)) in
  let c2n = Opp.decl_map ctx ~name:"c2n" ~from:cells ~to_:nodes ~arity:2 (Some c2n_data) in
  let c2c_data =
    Array.init (2 * n) (fun i ->
        let c = i / 2 in
        if i mod 2 = 0 then c - 1 else if c = n - 1 then -1 else c + 1)
  in
  let c2c = Opp.decl_map ctx ~name:"c2c" ~from:cells ~to_:cells ~arity:2 (Some c2c_data) in
  (cells, nodes, c2n, c2c)

let test_decl_basics () =
  let ctx = Opp.init () in
  let cells, nodes, c2n, _ = chain_mesh ctx 4 in
  Alcotest.(check int) "cells" 4 cells.s_size;
  Alcotest.(check int) "nodes" 5 nodes.s_size;
  Alcotest.(check int) "map arity" 2 c2n.m_arity;
  Alcotest.(check bool) "mesh set" false (Opp.is_particle_set cells);
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  Alcotest.(check bool) "particle set" true (Opp.is_particle_set parts);
  Alcotest.(check int) "initially empty" 0 parts.s_size

let test_decl_validation () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 4 in
  Alcotest.check_raises "negative size" (Invalid_argument "decl_set: negative size") (fun () ->
      ignore (Opp.decl_set ctx ~name:"bad" (-1)));
  Alcotest.check_raises "bad dim" (Invalid_argument "decl_dat: dim must be positive") (fun () ->
      ignore (Opp.decl_dat ctx ~name:"d" ~set:cells ~dim:0 None));
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  Alcotest.check_raises "particle set of particle set"
    (Invalid_argument "decl_particle_set: cells must be a mesh set") (fun () ->
      ignore (Opp.decl_particle_set ctx ~name:"pp" parts))

let test_direct_loop () =
  let ctx = Opp.init () in
  let cells, _, _, _ = chain_mesh ctx 5 in
  let d = Opp.decl_dat ctx ~name:"d" ~set:cells ~dim:2 None in
  let kern views =
    let v = views.(0) in
    Opp.set v 0 3.0;
    Opp.set v 1 4.0
  in
  Opp.par_loop ~name:"fill" kern cells Opp.all [ Opp.arg_dat d Opp.write ];
  Array.iter (fun x -> Alcotest.(check bool) "filled" true (x = 3.0 || x = 4.0)) d.d_data

let test_indirect_read () =
  let ctx = Opp.init () in
  let cells, nodes, c2n, _ = chain_mesh ctx 4 in
  let nd = Opp.decl_dat ctx ~name:"nd" ~set:nodes ~dim:1 (Some (Array.init 5 float_of_int)) in
  let cd = Opp.decl_dat ctx ~name:"cd" ~set:cells ~dim:1 None in
  (* cell value = sum of its two node values *)
  let kern views = Opp.set views.(0) 0 (Opp.get views.(1) 0 +. Opp.get views.(2) 0) in
  Opp.par_loop ~name:"sum" kern cells Opp.all
    [
      Opp.arg_dat cd Opp.write;
      Opp.arg_dat_i nd ~idx:0 ~map:c2n Opp.read;
      Opp.arg_dat_i nd ~idx:1 ~map:c2n Opp.read;
    ];
  for c = 0 to 3 do
    check_float "cell sum" (float_of_int (c + c + 1)) cd.d_data.(c)
  done

let test_indirect_increment () =
  let ctx = Opp.init () in
  let cells, nodes, c2n, _ = chain_mesh ctx 4 in
  let nd = Opp.decl_dat ctx ~name:"nd" ~set:nodes ~dim:1 None in
  (* every cell adds 1 to each of its nodes: interior nodes get 2 *)
  let kern views =
    Opp.vinc views.(0) 0 1.0;
    Opp.vinc views.(1) 0 1.0
  in
  Opp.par_loop ~name:"inc" kern cells Opp.all
    [ Opp.arg_dat_i nd ~idx:0 ~map:c2n Opp.inc; Opp.arg_dat_i nd ~idx:1 ~map:c2n Opp.inc ];
  check_float "end node" 1.0 nd.d_data.(0);
  check_float "end node" 1.0 nd.d_data.(4);
  for n = 1 to 3 do
    check_float "interior node" 2.0 nd.d_data.(n)
  done

let test_gbl_reduction () =
  let ctx = Opp.init () in
  let cells, _, _, _ = chain_mesh ctx 10 in
  let d = Opp.decl_dat ctx ~name:"d" ~set:cells ~dim:1 (Some (Array.init 10 float_of_int)) in
  let acc = [| 0.0 |] in
  let kern views = Opp.vinc views.(1) 0 (Opp.get views.(0) 0) in
  Opp.par_loop ~name:"reduce" kern cells Opp.all
    [ Opp.arg_dat d Opp.read; Opp.arg_gbl acc Opp.inc ];
  check_float "sum 0..9" 45.0 acc.(0)

let test_arg_validation () =
  let ctx = Opp.init () in
  let cells, nodes, c2n, _ = chain_mesh ctx 4 in
  let nd = Opp.decl_dat ctx ~name:"nd" ~set:nodes ~dim:1 None in
  (* direct access to a dat on another set must be rejected *)
  Alcotest.check_raises "wrong set"
    (Invalid_argument "arg nd: direct access but dat lives on nodes, loop over cells")
    (fun () ->
      Opp.par_loop ~name:"bad" (fun _ -> ()) cells Opp.all [ Opp.arg_dat nd Opp.read ]);
  (* map index beyond arity must be rejected *)
  Alcotest.check_raises "bad idx" (Invalid_argument "arg nd: map index 2 out of arity 2")
    (fun () ->
      Opp.par_loop ~name:"bad" (fun _ -> ()) cells Opp.all
        [ Opp.arg_dat_i nd ~idx:2 ~map:c2n Opp.read ])

let test_particle_inject_and_iterate () =
  let ctx = Opp.init () in
  let cells, _, _, _ = chain_mesh ctx 4 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let w = Opp.decl_dat ctx ~name:"w" ~set:parts ~dim:1 None in
  let start = Opp.inject parts 5 in
  Alcotest.(check int) "first slot" 0 start;
  Alcotest.(check int) "size" 5 parts.s_size;
  (* fill all, then inject more and touch only the new ones *)
  Opp.par_loop ~name:"ones" (fun v -> Opp.set v.(0) 0 1.0) parts Opp.all [ Opp.arg_dat w Opp.write ];
  Opp.reset_injected parts;
  let start2 = Opp.inject parts 3 in
  Alcotest.(check int) "appended" 5 start2;
  Opp.par_loop ~name:"twos" (fun v -> Opp.set v.(0) 0 2.0) parts Opp.injected
    [ Opp.arg_dat w Opp.write ];
  for i = 0 to 4 do
    check_float "old untouched" 1.0 w.d_data.(i)
  done;
  for i = 5 to 7 do
    check_float "new set" 2.0 w.d_data.(i)
  done

let test_particle_capacity_growth () =
  let ctx = Opp.init () in
  let cells, _, _, _ = chain_mesh ctx 2 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let w = Opp.decl_dat ctx ~name:"w" ~set:parts ~dim:3 None in
  ignore (Opp.inject parts 1000);
  Alcotest.(check bool) "capacity grew" true (parts.s_capacity >= 1000);
  Alcotest.(check int) "dat storage grew" (parts.s_capacity * 3) (Array.length w.d_data)

let test_remove_flagged () =
  let ctx = Opp.init () in
  let cells, _, _, _ = chain_mesh ctx 2 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let w = Opp.decl_dat ctx ~name:"w" ~set:parts ~dim:1 None in
  ignore (Opp.inject parts 6);
  for i = 0 to 5 do
    w.d_data.(i) <- float_of_int i
  done;
  let dead = [| false; true; false; true; true; false |] in
  let removed = Particle.remove_flagged parts dead in
  Alcotest.(check int) "removed" 3 removed;
  Alcotest.(check int) "size" 3 parts.s_size;
  let survivors = List.sort compare (List.init 3 (fun i -> w.d_data.(i))) in
  Alcotest.(check (list (float 0.0))) "survivors" [ 0.0; 2.0; 5.0 ] survivors

let test_remove_all () =
  let ctx = Opp.init () in
  let cells, _, _, _ = chain_mesh ctx 2 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  ignore (Opp.inject parts 4);
  let removed = Particle.remove_flagged parts [| true; true; true; true |] in
  Alcotest.(check int) "all removed" 4 removed;
  Alcotest.(check int) "empty" 0 parts.s_size

let test_sort_by_cell () =
  let ctx = Opp.init () in
  let cells, _, _, _ = chain_mesh ctx 4 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let p2c = Opp.decl_map ctx ~name:"p2c" ~from:parts ~to_:cells ~arity:1 None in
  let w = Opp.decl_dat ctx ~name:"w" ~set:parts ~dim:1 None in
  ignore (Opp.inject parts 6);
  let cells_of = [| 3; 1; 2; 0; 1; 3 |] in
  Array.iteri (fun i c -> p2c.m_data.(i) <- c) cells_of;
  Array.iteri (fun i c -> w.d_data.(i) <- float_of_int c) cells_of;
  Opp.sort_by_cell parts ~p2c;
  for i = 1 to 5 do
    Alcotest.(check bool) "sorted" true (p2c.m_data.(i - 1) <= p2c.m_data.(i))
  done;
  (* dats permuted consistently with the map *)
  for i = 0 to 5 do
    check_float "dat follows map" (float_of_int p2c.m_data.(i)) w.d_data.(i)
  done

(* Particle mover on the chain: each particle has a target cell dat;
   the kernel hops right (slot 1) until current cell >= target, left
   otherwise (slot 0). Walking off the right end removes it. *)
let move_fixture n =
  let ctx = Opp.init () in
  let cells, _, _, c2c = chain_mesh ctx n in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let p2c = Opp.decl_map ctx ~name:"p2c" ~from:parts ~to_:cells ~arity:1 None in
  let target = Opp.decl_dat ctx ~name:"target" ~set:parts ~dim:1 None in
  let kern views (mc : Seq.move_ctx) =
    let tgt = int_of_float (Opp.get views.(0) 0) in
    if mc.Seq.cell = tgt then mc.Seq.status <- Seq.Move_done
    else begin
      let dir = if tgt > mc.Seq.cell then 1 else 0 in
      let next = c2c.m_data.((2 * mc.Seq.cell) + dir) in
      if next = -1 then mc.Seq.status <- Seq.Need_remove
      else begin
        mc.Seq.cell <- next;
        mc.Seq.status <- Seq.Need_move
      end
    end
  in
  (ctx, cells, parts, p2c, target, kern)

let test_particle_move_multi_hop () =
  let _, _, parts, p2c, target, kern = move_fixture 10 in
  ignore (Opp.inject parts 3);
  p2c.m_data.(0) <- 0;
  target.d_data.(0) <- 7.0;
  p2c.m_data.(1) <- 5;
  target.d_data.(1) <- 5.0;
  p2c.m_data.(2) <- 9;
  target.d_data.(2) <- 2.0;
  let r =
    Opp.particle_move ~name:"move" kern parts ~p2c [ Opp.arg_dat target Opp.read ]
  in
  Alcotest.(check int) "all stayed" 3 r.Seq.mv_moved;
  Alcotest.(check int) "none removed" 0 r.Seq.mv_removed;
  Alcotest.(check int) "cells updated" 7 p2c.m_data.(0);
  Alcotest.(check int) "same cell" 5 p2c.m_data.(1);
  Alcotest.(check int) "moved left" 2 p2c.m_data.(2);
  (* particle 0 hopped 0->7: 8 kernel calls; particle 1: 1; particle 2: 8 *)
  Alcotest.(check int) "total hops" 17 r.Seq.mv_total_hops;
  Alcotest.(check int) "max hops" 8 r.Seq.mv_max_hops

let test_particle_move_removal () =
  let _, _, parts, p2c, target, kern = move_fixture 4 in
  ignore (Opp.inject parts 2);
  p2c.m_data.(0) <- 2;
  target.d_data.(0) <- 99.0;
  (* walks off the right end *)
  p2c.m_data.(1) <- 1;
  target.d_data.(1) <- 1.0;
  let r =
    Opp.particle_move ~name:"move" kern parts ~p2c [ Opp.arg_dat target Opp.read ]
  in
  Alcotest.(check int) "one removed" 1 r.Seq.mv_removed;
  Alcotest.(check int) "one left" 1 parts.s_size;
  Alcotest.(check int) "survivor in its cell" 1 p2c.m_data.(0)

let test_particle_move_direct_hop () =
  let _, _, parts, p2c, target, kern = move_fixture 10 in
  ignore (Opp.inject parts 1);
  p2c.m_data.(0) <- 0;
  target.d_data.(0) <- 8.0;
  (* a perfect locator jumps straight to the target: 1 hop *)
  let r =
    Opp.particle_move ~name:"move" ~dh:(fun _ -> 8) kern parts ~p2c
      [ Opp.arg_dat target Opp.read ]
  in
  Alcotest.(check int) "dh single hop" 1 r.Seq.mv_total_hops;
  Alcotest.(check int) "landed" 8 p2c.m_data.(0)

let test_particle_move_pending () =
  (* cells >= 5 are "remote": the mover must stop there and hand the
     particle to on_pending, then remove it locally *)
  let _, _, parts, p2c, target, kern = move_fixture 10 in
  ignore (Opp.inject parts 2);
  p2c.m_data.(0) <- 3;
  target.d_data.(0) <- 9.0;
  p2c.m_data.(1) <- 1;
  target.d_data.(1) <- 2.0;
  let pending = ref [] in
  let r =
    Opp.particle_move ~name:"move"
      ~should_stop:(fun c -> c >= 5)
      ~on_pending:(fun ~p ~cell -> pending := (p, cell) :: !pending)
      kern parts ~p2c
      [ Opp.arg_dat target Opp.read ]
  in
  Alcotest.(check int) "one sent" 1 r.Seq.mv_sent;
  Alcotest.(check (list (pair int int))) "pending particle at boundary cell" [ (0, 5) ] !pending;
  Alcotest.(check int) "one stayed" 1 parts.s_size

let test_move_diverged () =
  let ctx = Opp.init () in
  let cells, _, _, _ = chain_mesh ctx 4 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let p2c = Opp.decl_map ctx ~name:"p2c" ~from:parts ~to_:cells ~arity:1 None in
  ignore (Opp.inject parts 1);
  p2c.m_data.(0) <- 0;
  (* kernel that never terminates: ping-pong between cells 0 and 1 *)
  let kern _ (mc : Seq.move_ctx) =
    mc.Seq.cell <- (if mc.Seq.cell = 0 then 1 else 0);
    mc.Seq.status <- Seq.Need_move
  in
  Alcotest.(check bool) "raises Move_diverged" true
    (try
       ignore (Opp.particle_move ~name:"loop" ~max_hops:50 kern parts ~p2c []);
       false
     with Seq.Move_diverged _ -> true)

let test_profile_ledger () =
  let ctx = Opp.init () in
  let cells, _, _, _ = chain_mesh ctx 8 in
  let d = Opp.decl_dat ctx ~name:"d" ~set:cells ~dim:1 None in
  let prof = Profile.create () in
  let r = Runner.seq ~profile:prof () in
  Runner.par_loop r ~flops_per_elem:2.0 ~name:"k1" (fun _ -> ()) cells Opp.all
    [ Opp.arg_dat d Opp.rw ];
  Runner.par_loop r ~flops_per_elem:2.0 ~name:"k1" (fun _ -> ()) cells Opp.all
    [ Opp.arg_dat d Opp.rw ];
  match Profile.entries ~t:prof () with
  | [ (name, e) ] ->
      Alcotest.(check string) "name" "k1" name;
      Alcotest.(check int) "calls" 2 e.Profile.calls;
      Alcotest.(check int) "elems" 16 e.Profile.elems;
      check_float "flops" 32.0 e.Profile.flops;
      (* rw: 2 * 8 bytes * dim 1 * 16 elems *)
      check_float "bytes" 256.0 e.Profile.bytes
  | _ -> Alcotest.fail "expected exactly one ledger entry"

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done;
  let c = Rng.create 43 in
  Alcotest.(check bool) "different seed differs" true (Rng.float a <> Rng.float c)

let prop_rng_uniform =
  QCheck.Test.make ~name:"rng floats lie in [0,1)" ~count:100 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun _ ->
          let v = Rng.float rng in
          v >= 0.0 && v < 1.0)
        (List.init 50 Fun.id))

let prop_remove_flagged_conserves =
  QCheck.Test.make ~name:"hole filling conserves surviving particles" ~count:50
    QCheck.(pair (int_range 1 200) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let ctx = Opp.init () in
      let cells = Opp.decl_set ctx ~name:"c" 1 in
      let parts = Opp.decl_particle_set ctx ~name:"p" cells in
      let w = Opp.decl_dat ctx ~name:"w" ~set:parts ~dim:1 None in
      ignore (Opp.inject parts n);
      for i = 0 to n - 1 do
        w.d_data.(i) <- float_of_int i
      done;
      let dead = Array.init n (fun _ -> Rng.float rng < 0.3) in
      let expected =
        List.filteri (fun i _ -> not dead.(i)) (List.init n float_of_int) |> List.sort compare
      in
      let removed = Particle.remove_flagged parts dead in
      let got = List.sort compare (List.init parts.s_size (fun i -> w.d_data.(i))) in
      removed = n - List.length expected && got = expected)

let suite =
  [
    Alcotest.test_case "declarations" `Quick test_decl_basics;
    Alcotest.test_case "declaration validation" `Quick test_decl_validation;
    Alcotest.test_case "direct loop" `Quick test_direct_loop;
    Alcotest.test_case "indirect read" `Quick test_indirect_read;
    Alcotest.test_case "indirect increment" `Quick test_indirect_increment;
    Alcotest.test_case "global reduction" `Quick test_gbl_reduction;
    Alcotest.test_case "argument validation" `Quick test_arg_validation;
    Alcotest.test_case "inject and iterate injected" `Quick test_particle_inject_and_iterate;
    Alcotest.test_case "capacity growth" `Quick test_particle_capacity_growth;
    Alcotest.test_case "hole-filling removal" `Quick test_remove_flagged;
    Alcotest.test_case "remove all" `Quick test_remove_all;
    Alcotest.test_case "sort by cell" `Quick test_sort_by_cell;
    Alcotest.test_case "move: multi-hop" `Quick test_particle_move_multi_hop;
    Alcotest.test_case "move: removal at boundary" `Quick test_particle_move_removal;
    Alcotest.test_case "move: direct-hop" `Quick test_particle_move_direct_hop;
    Alcotest.test_case "move: pending at rank boundary" `Quick test_particle_move_pending;
    Alcotest.test_case "move: divergence guard" `Quick test_move_diverged;
    Alcotest.test_case "profile ledger" `Quick test_profile_ledger;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    QCheck_alcotest.to_alcotest prop_rng_uniform;
    QCheck_alcotest.to_alcotest prop_remove_flagged_conserves;
  ]
