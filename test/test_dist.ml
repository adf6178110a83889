(* Tests for the simulated-MPI backend: partitioners, halo exchange,
   particle migration, and end-to-end equivalence of distributed runs
   against the sequential reference on both mini-apps. *)

open Opp_core
open Opp_dist

let check_float = Alcotest.(check (float 1e-12))

(* --- partitioners --- *)

let grid_centroids n =
  (* n cells on a line with distinct x, alternating y *)
  Array.init n (fun c -> [| float_of_int c; float_of_int (c mod 2); 0.0 |])

let test_partition_slab_balance () =
  let n = 103 and nranks = 4 in
  let cs = grid_centroids n in
  let cr = Partition.slab ~nranks ~ncells:n ~coord:(fun c -> cs.(c).(0)) in
  Alcotest.(check bool) "balanced" true (Partition.imbalance ~nranks cr < 1.05);
  (* slab along x: ranks are contiguous in x *)
  for c = 1 to n - 1 do
    Alcotest.(check bool) "monotone" true (cr.(c) >= cr.(c - 1))
  done

let test_partition_columns_cover () =
  let n = 120 and nranks = 6 in
  let cs = grid_centroids n in
  let cr =
    Partition.columns ~nranks ~ncells:n ~x:(fun c -> cs.(c).(0)) ~y:(fun c -> cs.(c).(1))
  in
  let counts = Partition.rank_counts ~nranks cr in
  Array.iter (fun k -> Alcotest.(check bool) "every rank nonempty" true (k > 0)) counts

let test_partition_rcb () =
  let n = 64 and nranks = 8 in
  let cs = Array.init n (fun c -> [| float_of_int (c mod 4); float_of_int (c / 4 mod 4); float_of_int (c / 16) |]) in
  let cr = Partition.rcb ~nranks ~ncells:n ~centroid:(fun c -> cs.(c)) in
  Alcotest.(check bool) "balanced" true (Partition.imbalance ~nranks cr <= 1.01);
  (* nranks=3 (non power of two) still works *)
  let cr3 = Partition.rcb ~nranks:3 ~ncells:n ~centroid:(fun c -> cs.(c)) in
  Alcotest.(check bool) "3 ranks balanced" true (Partition.imbalance ~nranks:3 cr3 < 1.1)

(* --- exchange --- *)

(* two ranks, each with 2 owned + 1 halo element mirroring the other's
   first owned element *)
let exch_fixture () =
  let link ~local ~rank ~index = { Exch.l_local = local; l_owner_rank = rank; l_owner_index = index } in
  let exch =
    Exch.create ~nranks:2
      [| [| link ~local:2 ~rank:1 ~index:0 |]; [| link ~local:2 ~rank:0 ~index:0 |] |]
  in
  let data = [| [| 1.0; 2.0; 0.0 |]; [| 10.0; 20.0; 0.0 |] |] in
  (exch, data)

let test_exchange_forward () =
  let exch, data = exch_fixture () in
  let tr = Traffic.create () in
  Exch.exchange ~traffic:tr exch ~dim:1 ~data:(fun r -> data.(r));
  check_float "rank 0 halo" 10.0 data.(0).(2);
  check_float "rank 1 halo" 1.0 data.(1).(2);
  Alcotest.(check int) "messages" 2 tr.Traffic.halo_messages;
  check_float "bytes" 16.0 tr.Traffic.halo_bytes

let test_exchange_reduce () =
  let exch, data = exch_fixture () in
  data.(0).(2) <- 5.0;
  (* rank 0's halo contribution for rank 1's element 0 *)
  data.(1).(2) <- 7.0;
  Exch.reduce exch ~dim:1 ~data:(fun r -> data.(r));
  check_float "rank 1 owner accumulated" 15.0 data.(1).(0);
  check_float "rank 0 owner accumulated" 8.0 data.(0).(0);
  check_float "halo cleared" 0.0 data.(0).(2);
  check_float "halo cleared" 0.0 data.(1).(2)

(* --- mailbox --- *)

let test_mailbox_roundtrip () =
  let mail = Mailbox.create ~nranks:3 ~width:2 () in
  Mail_util.post mail ~src:0 ~dest:2 ~cell:7 [| 1.0; 2.0 |];
  Mail_util.post mail ~src:1 ~dest:2 ~cell:9 [| 3.0; 4.0 |];
  Mail_util.post mail ~src:0 ~dest:1 ~cell:5 [| 5.0; 6.0 |];
  Alcotest.(check int) "total" 3 (Mailbox.total mail);
  let tr = Traffic.create () in
  let seen = ref [] in
  let n =
    Mailbox.deliver ~traffic:tr mail (fun r batch ->
        List.iter (fun (cell, _) -> seen := (r, cell) :: !seen) (Mail_util.rows ~width:2 batch))
  in
  Alcotest.(check int) "delivered" 3 n;
  Alcotest.(check (list (pair int int))) "delivery order" [ (1, 5); (2, 7); (2, 9) ]
    (List.rev !seen);
  Alcotest.(check int) "migrated counted" 3 tr.Traffic.migrated_particles;
  Alcotest.(check int) "three source-dest pairs" 3 tr.Traffic.migrate_messages;
  Alcotest.(check int) "cleared" 0 (Mailbox.total mail)

let test_mailbox_rejects_bad_payload () =
  let mail = Mailbox.create ~nranks:2 ~width:3 () in
  Alcotest.check_raises "payload size" (Invalid_argument "Mailbox.post: payload size")
    (fun () -> Mail_util.post mail ~src:0 ~dest:1 ~cell:0 [| 1.0 |])

(* --- tet partitioning invariants --- *)

let test_tet_part_invariants () =
  let mesh = Opp_mesh.Tet_mesh.build ~nx:4 ~ny:4 ~nz:6 ~lx:4e-5 ~ly:4e-5 ~lz:6e-5 in
  let nranks = 4 in
  let cell_rank =
    Partition.columns ~nranks ~ncells:mesh.Opp_mesh.Tet_mesh.ncells
      ~x:(fun c -> mesh.Opp_mesh.Tet_mesh.cell_centroid.(3 * c))
      ~y:(fun c -> mesh.Opp_mesh.Tet_mesh.cell_centroid.((3 * c) + 1))
  in
  let part = Tet_part.build mesh ~cell_rank ~nranks in
  (* every global cell owned exactly once *)
  let owned_total =
    Array.fold_left (fun acc lm -> acc + lm.Tet_part.lm_cell_owned) 0 part.Tet_part.locals
  in
  Alcotest.(check int) "cells partitioned" mesh.Opp_mesh.Tet_mesh.ncells owned_total;
  let node_total =
    Array.fold_left (fun acc lm -> acc + lm.Tet_part.lm_node_owned) 0 part.Tet_part.locals
  in
  Alcotest.(check int) "nodes partitioned" mesh.Opp_mesh.Tet_mesh.nnodes node_total;
  (* inlet faces preserved across ranks *)
  let faces_total =
    Array.fold_left
      (fun acc lm -> acc + Array.length lm.Tet_part.lm_mesh.Opp_mesh.Tet_mesh.inlet_faces)
      0 part.Tet_part.locals
  in
  Alcotest.(check int) "inlet faces partitioned"
    (Array.length mesh.Opp_mesh.Tet_mesh.inlet_faces)
    faces_total;
  Array.iteri
    (fun r lm ->
      let m = lm.Tet_part.lm_mesh in
      (* owned cells keep full neighbour information *)
      for l = 0 to lm.Tet_part.lm_cell_owned - 1 do
        let g = lm.Tet_part.lm_cell_g.(l) in
        for i = 0 to 3 do
          let gn = mesh.Opp_mesh.Tet_mesh.cell_cell.((4 * g) + i) in
          let ln = m.Opp_mesh.Tet_mesh.cell_cell.((4 * l) + i) in
          if gn = -1 then Alcotest.(check int) "boundary stays boundary" (-1) ln
          else begin
            Alcotest.(check bool) "neighbour present" true (ln >= 0);
            Alcotest.(check int) "neighbour identity" gn lm.Tet_part.lm_cell_g.(ln)
          end
        done
      done;
      (* geometry copied exactly *)
      Array.iteri
        (fun l g ->
          Alcotest.(check (float 0.0)) "volumes copied"
            mesh.Opp_mesh.Tet_mesh.cell_volume.(g)
            m.Opp_mesh.Tet_mesh.cell_volume.(l))
        lm.Tet_part.lm_cell_g;
      (* node ownership is consistent with node_rank *)
      for l = 0 to lm.Tet_part.lm_node_owned - 1 do
        Alcotest.(check int) "node owner" r part.Tet_part.node_rank.(lm.Tet_part.lm_node_g.(l))
      done)
    part.Tet_part.locals

(* --- end-to-end: fempic distributed vs sequential --- *)

let fempic_mesh () = Opp_mesh.Tet_mesh.build ~nx:4 ~ny:4 ~nz:8 ~lx:4e-5 ~ly:4e-5 ~lz:8e-5
let fempic_prm = { Fempic.Params.default with Fempic.Params.target_particles = 3000.0 }

let test_fempic_dist_matches_seq () =
  let steps = 20 in
  let seq_sim = Fempic.Fempic_sim.create ~prm:fempic_prm (fempic_mesh ()) in
  Fempic.Fempic_sim.run seq_sim ~steps;
  let dist = Apps_dist.Fempic_dist.create ~prm:fempic_prm ~nranks:4 (fempic_mesh ()) in
  Apps_dist.Fempic_dist.run dist ~steps;
  Alcotest.(check int) "identical particle count" seq_sim.Fempic.Fempic_sim.parts.Types.s_size
    (Apps_dist.Fempic_dist.total_particles dist);
  (* the gathered potential matches the sequential one *)
  let phi_d = Apps_dist.Fempic_dist.potential dist in
  Array.iteri
    (fun n v ->
      Alcotest.(check bool)
        (Printf.sprintf "phi at node %d" n)
        true
        (Float.abs (v -. phi_d.(n)) < 1e-6 *. (1.0 +. Float.abs v)))
    seq_sim.Fempic.Fempic_sim.node_phi.Types.d_data;
  (* charge is conserved across the partitioning *)
  let seq_diag = Fempic.Fempic_sim.diagnostics seq_sim in
  let q_d = Apps_dist.Fempic_dist.total_owned_charge dist in
  Alcotest.(check bool) "total deposited charge" true
    (Float.abs (seq_diag.Fempic.Fempic_sim.total_charge -. q_d)
    < 1e-9 *. Float.abs seq_diag.Fempic.Fempic_sim.total_charge)

let test_fempic_dist_migrates_with_slab () =
  (* slabs across the motion axis force rank crossings *)
  let dist =
    Apps_dist.Fempic_dist.create ~prm:fempic_prm ~nranks:3 ~partitioner:`Slab (fempic_mesh ())
  in
  Apps_dist.Fempic_dist.run dist ~steps:30;
  Alcotest.(check bool) "particles crossed ranks" true
    (dist.Apps_dist.Fempic_dist.traffic.Traffic.migrated_particles > 0);
  Alcotest.(check bool) "halo traffic counted" true
    (dist.Apps_dist.Fempic_dist.traffic.Traffic.halo_bytes > 0.0)

let test_fempic_columns_beat_slab_on_migration () =
  (* the paper's partitioning claim: along-the-motion columns cut
     migration dramatically versus slabs *)
  let run partitioner =
    let dist =
      Apps_dist.Fempic_dist.create ~prm:fempic_prm ~nranks:4 ~partitioner (fempic_mesh ())
    in
    Apps_dist.Fempic_dist.run dist ~steps:30;
    dist.Apps_dist.Fempic_dist.traffic.Traffic.migrated_particles
  in
  let columns = run `Columns and slab = run `Slab in
  (* thermal spread and the wall-repelling field still push some
     particles across column boundaries, but the bulk drift no longer
     crosses ranks *)
  Alcotest.(check bool)
    (Printf.sprintf "columns (%d) well below slab (%d)" columns slab)
    true
    (float_of_int columns < 0.75 *. float_of_int slab)

(* --- end-to-end: cabana distributed vs sequential --- *)

let cabana_prm = { Cabana.Cabana_params.default with Cabana.Cabana_params.nz = 16; ppc = 8 }

let test_cabana_dist_matches_seq () =
  let steps = 30 in
  let seq_sim = Cabana.Cabana_sim.create ~prm:cabana_prm () in
  Cabana.Cabana_sim.run seq_sim ~steps;
  let e_seq = Cabana.Cabana_sim.energies seq_sim in
  let dist = Apps_dist.Cabana_dist.create ~prm:cabana_prm ~nranks:4 () in
  Apps_dist.Cabana_dist.run dist ~steps;
  let e_dist = Apps_dist.Cabana_dist.energies dist in
  Alcotest.(check int) "particles conserved"
    (Cabana.Cabana_params.nparticles cabana_prm)
    (Apps_dist.Cabana_dist.total_particles dist);
  let close a b = Float.abs (a -. b) < 1e-9 *. (1e-9 +. Float.abs a) in
  Alcotest.(check bool) "E energy" true
    (close e_seq.Cabana.Cabana_sim.e_field e_dist.Cabana.Cabana_sim.e_field);
  Alcotest.(check bool) "B energy" true
    (close e_seq.Cabana.Cabana_sim.b_field e_dist.Cabana.Cabana_sim.b_field);
  Alcotest.(check bool) "kinetic energy" true
    (close e_seq.Cabana.Cabana_sim.kinetic e_dist.Cabana.Cabana_sim.kinetic);
  Alcotest.(check bool) "two-stream migrates" true
    (dist.Apps_dist.Cabana_dist.traffic.Traffic.migrated_particles > 0)

let test_fempic_dist_direct_hop_matches () =
  (* the rank-map global move is an optimization, not a different
     algorithm: same particles, same potential as multi-hop and seq *)
  let steps = 25 in
  let mh =
    Apps_dist.Fempic_dist.create ~prm:fempic_prm ~nranks:3 ~partitioner:`Slab (fempic_mesh ())
  in
  Apps_dist.Fempic_dist.run mh ~steps;
  let dh =
    Apps_dist.Fempic_dist.create ~prm:fempic_prm ~nranks:3 ~partitioner:`Slab
      ~use_direct_hop:true (fempic_mesh ())
  in
  Apps_dist.Fempic_dist.run dh ~steps;
  Alcotest.(check int) "same particle count" (Apps_dist.Fempic_dist.total_particles mh)
    (Apps_dist.Fempic_dist.total_particles dh);
  let a = Apps_dist.Fempic_dist.potential mh and b = Apps_dist.Fempic_dist.potential dh in
  Array.iteri
    (fun n v ->
      Alcotest.(check bool)
        (Printf.sprintf "phi at %d" n)
        true
        (Float.abs (v -. b.(n)) < 1e-6 *. (1.0 +. Float.abs v)))
    a;
  Alcotest.(check bool) "direct-hop actually shipped particles" true
    (dh.Apps_dist.Fempic_dist.traffic.Traffic.migrated_particles > 0)

(* One source on every backend: a one-rank handle is the sequential
   program. Stepped side by side, the bare sim on [Runner.seq] and a
   one-rank handle hold equal declared state after every step; with
   direct hop, the rank sim walks the same hops as the bare sim. *)
let seq_equals_one_rank ~steps ~sim_step ~sim_sections ~hops ~handle_step ~handle_sections
    ~handle_hops () =
  let seq_hops = ref 0 and rank_hops = ref 0 in
  for s = 1 to steps do
    sim_step ();
    handle_step ();
    seq_hops := !seq_hops + hops ();
    rank_hops := !rank_hops + handle_hops ();
    Alcotest.(check bool)
      (Printf.sprintf "sections equal after step %d" s)
      true
      (sim_sections () = handle_sections ())
  done;
  Alcotest.(check int) "hop totals equal" !seq_hops !rank_hops

let fempic_seq_equals_one_rank ?(use_direct_hop = false) ~steps () =
  let module Fs = Fempic.Fempic_sim in
  let module Fd = Apps_dist.Fempic_dist in
  let sim = Fs.create ~prm:fempic_prm ~runner:(Runner.seq ()) ~use_direct_hop (fempic_mesh ()) in
  let h = Fd.create ~prm:fempic_prm ~nranks:1 ~use_direct_hop (fempic_mesh ()) in
  let last_hops (s : Fs.t) =
    Option.fold ~none:0 ~some:(fun m -> m.Seq.mv_total_hops) s.Fs.last_move
  in
  seq_equals_one_rank ~steps
    ~sim_step:(fun () -> ignore (Fs.step sim))
    ~sim_sections:(fun () -> World.sections (Fd.state sim))
    ~hops:(fun () -> last_hops sim)
    ~handle_step:(fun () -> ignore (Fd.step h))
    ~handle_sections:(fun () -> (Fd.sections_all h).(0))
    ~handle_hops:(fun () -> last_hops h.Fd.sims.(0))
    ()

let test_cabana_seq_equals_one_rank () =
  let module Cs = Cabana.Cabana_sim in
  let module Cd = Apps_dist.Cabana_dist in
  let sim = Cs.create ~prm:cabana_prm ~runner:(Runner.seq ()) () in
  let h = Cd.create ~prm:cabana_prm ~nranks:1 () in
  seq_equals_one_rank ~steps:20
    ~sim_step:(fun () -> Cs.step sim)
    ~sim_sections:(fun () -> World.sections (Cd.state sim))
    ~hops:(fun () -> 0)
    ~handle_step:(fun () -> Cd.step h)
    ~handle_sections:(fun () -> (Cd.sections_all h).(0))
    ~handle_hops:(fun () -> 0)
    ()

(* --prefill is a creation option: one RNG stream over the global cell
   order, each particle placed on the rank that owns its cell, so the
   filled world does not depend on the rank count. *)
let test_fempic_prefill_rank_invariant () =
  let prm = { Fempic.Params.default with Fempic.Params.target_particles = 20_000.0 } in
  let one = Apps_dist.Fempic_dist.create ~prm ~nranks:1 ~prefill:true (fempic_mesh ()) in
  let four = Apps_dist.Fempic_dist.create ~prm ~nranks:4 ~prefill:true (fempic_mesh ()) in
  let bare = Fempic.Fempic_sim.create ~prm (fempic_mesh ()) in
  Alcotest.(check int) "the bare sim's fill" 20_000 (Fempic.Fempic_sim.prefill bare);
  Alcotest.(check int) "one rank holds the same fill" 20_000
    (Apps_dist.Fempic_dist.total_particles one);
  Alcotest.(check int) "four ranks hold the same fill" 20_000
    (Apps_dist.Fempic_dist.total_particles four);
  Alcotest.(check bool) "every rank holds part of it" true
    (Array.for_all (fun sim -> sim.Fempic.Fempic_sim.parts.Types.s_size > 0) four.Apps_dist.Fempic_dist.sims);
  Alcotest.(check int64) "step-0 state hash does not depend on the rank count"
    (Apps_dist.Fempic_dist.state_hash one)
    (Apps_dist.Fempic_dist.state_hash four)

(* --collisions is a rank-local phase on any rank count: charge
   exchange and elastic scattering change velocities only, so each
   step's particle count is the last one plus the injected minus those
   the moves removed. *)
let test_fempic_collisions_four_ranks () =
  let module Fd = Apps_dist.Fempic_dist in
  let h = Fd.create ~prm:fempic_prm ~nranks:4 ~prefill:true ~neutral_density:1e21 (fempic_mesh ()) in
  let removed () = Option.value ~default:0.0 (Opp_obs.Metrics.value "move.removed") in
  Opp_obs.Metrics.enable ();
  Fun.protect ~finally:Opp_obs.Metrics.disable (fun () ->
      for s = 1 to 10 do
        let before = Fd.total_particles h and removed0 = removed () in
        let injected = Fd.step h in
        Alcotest.(check int)
          (Printf.sprintf "step %d conserves particles" s)
          (before + injected - int_of_float (removed () -. removed0))
          (Fd.total_particles h)
      done);
  let count f =
    Array.fold_left
      (fun acc sim -> acc + Option.fold ~none:0 ~some:f sim.Fempic.Fempic_sim.collisions)
      0 h.Fd.sims
  in
  Alcotest.(check bool) "collisions happened" true
    (count (fun m -> m.Fempic.Collisions.cx_count + m.Fempic.Collisions.elastic_count) > 0)

let test_hybrid_mpi_threads_matches () =
  (* the paper's MPI+OpenMP combination: per-rank Domains runners must
     reproduce the pure-MPI physics *)
  let steps = 15 in
  let seq_dist = Apps_dist.Cabana_dist.create ~prm:cabana_prm ~nranks:2 () in
  Apps_dist.Cabana_dist.run seq_dist ~steps;
  let hybrid = Apps_dist.Cabana_dist.create ~prm:cabana_prm ~nranks:2 ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Apps_dist.Cabana_dist.shutdown hybrid)
    (fun () ->
      Apps_dist.Cabana_dist.run hybrid ~steps;
      let a = (Apps_dist.Cabana_dist.energies seq_dist).Cabana.Cabana_sim.e_field in
      let b = (Apps_dist.Cabana_dist.energies hybrid).Cabana.Cabana_sim.e_field in
      Alcotest.(check bool) "hybrid matches pure MPI" true
        (Float.abs (a -. b) < 1e-9 *. (1e-12 +. Float.abs a)))

let test_cabana_topology_invariants () =
  (* every global cell owned once; local stencils point at the same
     global neighbours as the global mesh *)
  let dist = Apps_dist.Cabana_dist.create ~prm:cabana_prm ~nranks:3 () in
  let mesh = Apps_dist.Cabana_dist.mesh cabana_prm in
  let owned_total =
    Array.fold_left (fun acc tp -> acc + tp.Cabana.Cabana_sim.tp_owned) 0
      dist.Apps_dist.Cabana_dist.part.Apps_dist.Cabana_dist.p_tops
  in
  Alcotest.(check int) "cells partitioned" mesh.Opp_mesh.Hex_mesh.ncells owned_total;
  Array.iter
    (fun tp ->
      for l = 0 to tp.Cabana.Cabana_sim.tp_owned - 1 do
        let g = tp.Cabana.Cabana_sim.tp_cell_gid.(l) in
        for s = 0 to 26 do
          let gn = mesh.Opp_mesh.Hex_mesh.cell_cell27.((27 * g) + s) in
          let ln = tp.Cabana.Cabana_sim.tp_c2c27.((27 * l) + s) in
          Alcotest.(check bool) "owned stencil present" true (ln >= 0);
          Alcotest.(check int) "stencil identity" gn tp.Cabana.Cabana_sim.tp_cell_gid.(ln)
        done
      done)
    dist.Apps_dist.Cabana_dist.part.Apps_dist.Cabana_dist.p_tops

let test_cabana_dist_rank_count_invariance () =
  (* the physics must not depend on how many ranks run it *)
  let energy nranks =
    let dist = Apps_dist.Cabana_dist.create ~prm:cabana_prm ~nranks () in
    Apps_dist.Cabana_dist.run dist ~steps:15;
    (Apps_dist.Cabana_dist.energies dist).Cabana.Cabana_sim.e_field
  in
  let e2 = energy 2 and e3 = energy 3 in
  Alcotest.(check bool) "2 vs 3 ranks agree" true
    (Float.abs (e2 -. e3) < 1e-9 *. (1e-9 +. Float.abs e2))

(* --- derived halo collectives (World.derive) --- *)

(* One case per derivation rule, each on a fresh 2-rank fempic world:
   [act] dirties some bits, launches one loop through the world's
   runner on rank 0 and ends the phase; the halo messages it moved
   and the bits [dat] is left with on ranks 0 and 1 are what the rule
   predicts. *)
type rule_case = {
  rule : string;
  act : Apps_dist.Fempic_dist.t -> unit;
  msgs : Apps_dist.Fempic_dist.t -> int;
  dat : Fempic.Fempic_sim.t -> Types.dat;
  dirty : bool array;
}

let test_derivation_rules () =
  let module Fd = Apps_dist.Fempic_dist in
  let open Fempic.Fempic_sim in
  let node_msgs d = Exch.count_messages d.Fd.part.Tet_part.node_exch in
  let cell_msgs d = Exch.count_messages d.Fd.part.Tet_part.cell_exch in
  let none _ = 0 in
  let launch ?(dirty = []) d set iterate args =
    List.iter (fun (r, dat) -> Freshness.mark_dirty (dat d.Fd.sims.(r))) dirty;
    let s = d.Fd.sims.(0) in
    Runner.par_loop s.runner ~name:"Probe" (fun _ -> ()) (set s) iterate (args s);
    World.sync d.Fd.shape
  in
  let cases =
    [
      {
        rule = "dirty halo read through a mesh map -> exchange";
        act =
          (fun d ->
            launch d ~dirty:[ (1, fun s -> s.node_phi) ] (fun s -> s.cells) Opp.all (fun s ->
                [ Opp.arg_dat_i s.node_phi ~idx:0 ~map:s.c2n Opp.read ]));
        msgs = node_msgs;
        dat = (fun s -> s.node_phi);
        dirty = [| false; false |];
      };
      {
        rule = "dirty direct read under Iterate_all -> exchange";
        act =
          (fun d ->
            launch d ~dirty:[ (0, fun s -> s.cell_ef) ] (fun s -> s.cells) Opp.all (fun s ->
                [ Opp.arg_dat s.cell_ef Opp.read ]));
        msgs = cell_msgs;
        dat = (fun s -> s.cell_ef);
        dirty = [| false; false |];
      };
      {
        rule = "p2c read -> none";
        act =
          (fun d ->
            launch d
              ~dirty:[ (0, fun s -> s.cell_ef); (1, fun s -> s.cell_ef) ]
              (fun s -> s.parts)
              Opp.all
              (fun s -> [ Opp.arg_dat_p2c s.cell_ef ~p2c:s.p2c Opp.read ]));
        msgs = none;
        dat = (fun s -> s.cell_ef);
        dirty = [| true; true |];
      };
      {
        rule = "owned read -> none";
        act =
          (fun d ->
            launch d
              ~dirty:[ (0, fun s -> s.node_charge); (1, fun s -> s.node_charge) ]
              (fun s -> s.nodes)
              Opp.core
              (fun s -> [ Opp.arg_dat s.node_charge Opp.read ]));
        msgs = none;
        dat = (fun s -> s.node_charge);
        dirty = [| true; true |];
      };
      {
        rule = "mesh-map INC -> reduce at the phase end";
        act =
          (fun d ->
            launch d (fun s -> s.cells) Opp.core (fun s ->
                [ Opp.arg_dat_i s.node_charge ~idx:0 ~map:s.c2n Opp.inc ]));
        msgs = node_msgs;
        dat = (fun s -> s.node_charge);
        dirty = [| true; true |];
      };
      {
        rule = "Iterate_core write -> dirty";
        act =
          (fun d ->
            launch d (fun s -> s.cells) Opp.core (fun s -> [ Opp.arg_dat s.cell_ef Opp.write ]));
        msgs = none;
        dat = (fun s -> s.cell_ef);
        dirty = [| true; false |];
      };
      {
        rule = "Iterate_all write -> fresh";
        act =
          (fun d ->
            launch d ~dirty:[ (0, fun s -> s.cell_ef) ] (fun s -> s.cells) Opp.all (fun s ->
                [ Opp.arg_dat s.cell_ef Opp.write ]));
        msgs = none;
        dat = (fun s -> s.cell_ef);
        dirty = [| false; false |];
      };
      {
        rule = "dirty halo read of an undeclared dat -> Invalid_argument";
        act =
          (fun d ->
            match
              launch d ~dirty:[ (0, fun s -> s.cell_det) ] (fun s -> s.cells) Opp.all (fun s ->
                  [ Opp.arg_dat s.cell_det Opp.read ])
            with
            | () -> Alcotest.fail "a stale undeclared halo was read silently"
            | exception Invalid_argument _ -> ());
        msgs = none;
        dat = (fun s -> s.cell_det);
        dirty = [| true; false |];
      };
      {
        rule = "mesh-map INC of an undeclared dat -> Invalid_argument";
        act =
          (fun d ->
            match
              launch d (fun s -> s.cells) Opp.core (fun s ->
                  [ Opp.arg_dat_i s.node_volume ~idx:0 ~map:s.c2n Opp.inc ])
            with
            | () -> Alcotest.fail "a mesh-map INC was left unreduced silently"
            | exception Invalid_argument _ -> ());
        msgs = none;
        dat = (fun s -> s.node_volume);
        dirty = [| false; false |];
      };
    ]
  in
  List.iter
    (fun c ->
      let d = Fd.create ~prm:fempic_prm ~nranks:2 (fempic_mesh ()) in
      let msgs0 = d.Fd.traffic.Traffic.halo_messages in
      c.act d;
      Alcotest.(check int)
        (c.rule ^ ": halo messages")
        (c.msgs d)
        (d.Fd.traffic.Traffic.halo_messages - msgs0);
      Alcotest.(check (array bool))
        (c.rule ^ ": dirty bits")
        c.dirty
        (Array.map (fun s -> Freshness.is_dirty (c.dat s)) d.Fd.sims);
      Fd.shutdown d)
    cases

(* Each app's declared step on 2 ranks for 6 steps, in the
   configuration of the former bench/main.exe plan gate. The derived
   collectives move no more halo messages than the runtime planner's
   proved plan did (fempic 14, cabana 38; 24 and 48 with every
   hand-placed exchange), and the driver-level observables — gathered
   potential, per-rank particle payload and owned charge; cabana
   energies and particle count — and the state hash equal the
   hand-placed run's, recorded here as constants. *)
let test_two_rank_traffic_and_observables () =
  let module Fd = Apps_dist.Fempic_dist in
  let module Cd = Apps_dist.Cabana_dist in
  let module Codec = Opp_resil.Codec in
  let bits = Int64.bits_of_float in
  let f =
    Fd.create ~prm:Experiments.Config.fempic_small_prm ~nranks:2 ~profile:(Profile.create ())
      (Experiments.Config.fempic_mesh ())
  in
  Fd.run f ~steps:6;
  let fempic_observables =
    Codec.checksum_i64s
      (Array.of_list
         (Codec.checksum_floats (Fd.potential f)
         :: bits (Fd.total_owned_charge f)
         :: List.concat_map
              (fun sim ->
                let n = sim.Fempic.Fempic_sim.parts.Types.s_size in
                let payload (d : Types.dat) = Codec.checksum_floats (Array.sub d.Types.d_data 0 (3 * n)) in
                [
                  Int64.of_int n;
                  payload sim.Fempic.Fempic_sim.part_pos;
                  payload sim.Fempic.Fempic_sim.part_vel;
                ])
              (Array.to_list f.Fd.sims)))
  in
  Alcotest.(check bool) "fempic: at most 14 halo messages" true
    (f.Fd.traffic.Traffic.halo_messages <= 14);
  Alcotest.(check int64) "fempic: observables" 4519419842584692539L fempic_observables;
  Alcotest.(check int64) "fempic: state hash" (-4810221483574238225L) (Fd.state_hash f);
  let c =
    Cd.create ~prm:(Experiments.Config.cabana_scaled_prm ~ranks:2 ~ppc:16) ~nranks:2
      ~profile:(Profile.create ()) ()
  in
  Cd.run c ~steps:6;
  let e = Cd.energies c in
  let cabana_observables =
    Codec.checksum_i64s
      Cabana.Cabana_sim.
        [|
          bits e.e_field; bits e.b_field; bits e.kinetic; Int64.of_int (Cd.total_particles c);
        |]
  in
  Alcotest.(check bool) "cabana: at most 38 halo messages" true
    (c.Cd.traffic.Traffic.halo_messages <= 38);
  Alcotest.(check int64) "cabana: observables" (-1284475319312586821L) cabana_observables;
  Alcotest.(check int64) "cabana: state hash" (-6596552728492055454L) (Cd.state_hash c);
  Fd.shutdown f;
  Cd.shutdown c

let suite =
  [
    Alcotest.test_case "partition: slab" `Quick test_partition_slab_balance;
    Alcotest.test_case "partition: columns" `Quick test_partition_columns_cover;
    Alcotest.test_case "partition: rcb" `Quick test_partition_rcb;
    Alcotest.test_case "exch: forward" `Quick test_exchange_forward;
    Alcotest.test_case "exch: reduce" `Quick test_exchange_reduce;
    Alcotest.test_case "mailbox: roundtrip" `Quick test_mailbox_roundtrip;
    Alcotest.test_case "mailbox: payload validation" `Quick test_mailbox_rejects_bad_payload;
    Alcotest.test_case "tet partition invariants" `Quick test_tet_part_invariants;
    Alcotest.test_case "fempic: dist(4) == seq" `Slow test_fempic_dist_matches_seq;
    Alcotest.test_case "fempic: slab migration" `Slow test_fempic_dist_migrates_with_slab;
    Alcotest.test_case "fempic: columns cut migration" `Slow test_fempic_columns_beat_slab_on_migration;
    Alcotest.test_case "fempic: direct-hop global move" `Slow test_fempic_dist_direct_hop_matches;
    Alcotest.test_case "cabana: dist(4) == seq" `Slow test_cabana_dist_matches_seq;
    Alcotest.test_case "cabana: rank-count invariance" `Slow test_cabana_dist_rank_count_invariance;
    Alcotest.test_case "cabana: topology invariants" `Quick test_cabana_topology_invariants;
    Alcotest.test_case "hybrid MPI+threads matches" `Slow test_hybrid_mpi_threads_matches;
    Alcotest.test_case "derived halos: one case per rule" `Quick test_derivation_rules;
    Alcotest.test_case "derived halos: 2-rank traffic and observables" `Slow
      test_two_rank_traffic_and_observables;
    Alcotest.test_case "fempic: seq == one-rank handle, 20 steps" `Slow
      (fempic_seq_equals_one_rank ~steps:20);
    Alcotest.test_case "fempic: seq == one-rank handle with direct hop, 30 steps" `Slow
      (fempic_seq_equals_one_rank ~use_direct_hop:true ~steps:30);
    Alcotest.test_case "cabana: seq == one-rank handle, 20 steps" `Slow
      test_cabana_seq_equals_one_rank;
    Alcotest.test_case "fempic: prefill does not depend on the rank count" `Quick
      test_fempic_prefill_rank_invariant;
    Alcotest.test_case "fempic: collisions on 4 ranks conserve particles" `Slow
      test_fempic_collisions_four_ranks;
  ]
