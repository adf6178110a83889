(* Physics tests for Mini-FEM-PIC: injection bookkeeping, charge
   conservation, the barycentric mover, the nonlinear field solver
   (including a method-of-manufactured-solutions convergence check),
   and end-to-end behaviour of the duct flow. *)

open Fempic
open Opp_core

let mesh () = Opp_mesh.Tet_mesh.build ~nx:4 ~ny:4 ~nz:8 ~lx:4e-5 ~ly:4e-5 ~lz:8e-5
let prm = { Params.default with Params.target_particles = 5_000.0 }

let make ?(prm = prm) ?use_direct_hop () =
  Fempic_sim.create ~prm ~profile:(Profile.create ())
    ~runner:(Runner.seq ~profile:(Profile.create ()) ())
    ?use_direct_hop (mesh ())

let test_injection_rate () =
  let sim = make () in
  let steps = 40 in
  let injected = ref 0 in
  for _ = 1 to steps do
    injected := !injected + Fempic_sim.inject_particles sim
  done;
  (* per-face carry accumulators make the total exact over time *)
  let rate = Array.fold_left ( +. ) 0.0 sim.Fempic_sim.face_rate in
  let expected = rate *. float_of_int steps in
  Alcotest.(check bool)
    (Printf.sprintf "injected %d ~ rate*steps %.1f" !injected expected)
    true
    (Float.abs (float_of_int !injected -. expected)
    < float_of_int (Array.length (mesh ()).Opp_mesh.Tet_mesh.inlet_faces));
  (* every injected particle sits on the inlet plane with +z drift *)
  for p = 0 to sim.Fempic_sim.parts.Types.s_size - 1 do
    let z = sim.Fempic_sim.part_pos.Types.d_data.((3 * p) + 2) in
    Alcotest.(check bool) "z near inlet" true (z >= 0.0)
  done

let test_macro_weight_matches_flux () =
  let sim = make () in
  (* spwt * rate = n0 * v * A * dt (physical flux balance) *)
  let area = 4e-5 *. 4e-5 in
  let flux = prm.Params.plasma_den *. prm.Params.ion_velocity *. area *. prm.Params.dt in
  let rate = Array.fold_left ( +. ) 0.0 sim.Fempic_sim.face_rate in
  Alcotest.(check bool) "weight x rate = physical flux" true
    (Float.abs ((sim.Fempic_sim.spwt *. rate) -. flux) < 1e-9 *. flux)

let test_charge_conservation () =
  let sim = make () in
  ignore (Fempic_sim.prefill sim);
  Fempic_sim.calc_pos_vel sim;
  ignore (Fempic_sim.move sim);
  Fempic_sim.deposit_charge sim;
  let total = Array.fold_left ( +. ) 0.0 sim.Fempic_sim.node_charge.Types.d_data in
  let expected =
    float_of_int sim.Fempic_sim.parts.Types.s_size *. sim.Fempic_sim.spwt
    *. prm.Params.ion_charge
  in
  Alcotest.(check bool)
    (Printf.sprintf "deposited %.6e = particles x q %.6e" total expected)
    true
    (Float.abs (total -. expected) < 1e-9 *. expected)

let test_lc_weights_valid () =
  let sim = make () in
  ignore (Fempic_sim.prefill sim);
  Fempic_sim.calc_pos_vel sim;
  ignore (Fempic_sim.move sim);
  for p = 0 to sim.Fempic_sim.parts.Types.s_size - 1 do
    let s = ref 0.0 in
    for i = 0 to 3 do
      let w = sim.Fempic_sim.part_lc.Types.d_data.((4 * p) + i) in
      Alcotest.(check bool) "weight in range" true (w >= -1e-9 && w <= 1.0 +. 1e-9);
      s := !s +. w
    done;
    Alcotest.(check (float 1e-9)) "weights sum to 1" 1.0 !s
  done

let test_prefill_count_and_distribution () =
  let sim = make () in
  let n = Fempic_sim.prefill sim in
  Alcotest.(check bool) "close to target" true
    (Float.abs (float_of_int n -. prm.Params.target_particles)
    < 0.01 *. prm.Params.target_particles);
  (* particles land in the cells they claim: move must keep everyone *)
  let r = Fempic_sim.move sim in
  Alcotest.(check int) "nobody removed by the first locate" 0 r.Seq.mv_removed;
  (* z distribution spans the duct *)
  let zs =
    Array.init sim.Fempic_sim.parts.Types.s_size (fun p ->
        sim.Fempic_sim.part_pos.Types.d_data.((3 * p) + 2))
  in
  let mean = Array.fold_left ( +. ) 0.0 zs /. float_of_int (Array.length zs) in
  Alcotest.(check bool) "mean z near the middle" true
    (Float.abs (mean -. 4e-5) < 0.1 *. 8e-5)

let test_ballistic_transit () =
  (* with the field switched off, injected ions drift through in
     lz / (v dt) steps and the population plateaus *)
  let prm0 =
    { prm with Params.plasma_den = 0.0; wall_potential = 0.0; thermal_velocity = 0.0 }
  in
  let sim = make ~prm:prm0 () in
  let transit =
    int_of_float (8e-5 /. (prm0.Params.ion_velocity *. prm0.Params.dt)) + 2
  in
  for _ = 1 to transit do
    ignore (Fempic_sim.step sim)
  done;
  let n_at_transit = sim.Fempic_sim.parts.Types.s_size in
  for _ = 1 to 20 do
    ignore (Fempic_sim.step sim)
  done;
  let n_later = sim.Fempic_sim.parts.Types.s_size in
  Alcotest.(check bool)
    (Printf.sprintf "population plateaus (%d then %d)" n_at_transit n_later)
    true
    (abs (n_later - n_at_transit) < n_at_transit / 10);
  Alcotest.(check bool) "population near the steady-state target" true
    (Float.abs (float_of_int n_later -. prm0.Params.target_particles)
    < 0.15 *. prm0.Params.target_particles)

let test_dh_equals_mh () =
  (* direct-hop is an optimization, not a different algorithm: both
     movers must place every particle in the same cell *)
  let a = make ~use_direct_hop:false () in
  let b = make ~use_direct_hop:true () in
  ignore (Fempic_sim.prefill a);
  ignore (Fempic_sim.prefill b);
  for _ = 1 to 5 do
    ignore (Fempic_sim.step a);
    ignore (Fempic_sim.step b)
  done;
  Alcotest.(check int) "same particle count" a.Fempic_sim.parts.Types.s_size
    b.Fempic_sim.parts.Types.s_size;
  for p = 0 to a.Fempic_sim.parts.Types.s_size - 1 do
    Alcotest.(check int) "same cell" a.Fempic_sim.p2c.Types.m_data.(p)
      b.Fempic_sim.p2c.Types.m_data.(p)
  done

let test_electric_field_of_linear_potential () =
  let sim = make () in
  (* phi = a . x  =>  E = -a on every cell *)
  let a = [| 3.0e4; -2.0e4; 5.0e4 |] in
  let m = sim.Fempic_sim.mesh in
  for n = 0 to m.Opp_mesh.Tet_mesh.nnodes - 1 do
    sim.Fempic_sim.node_phi.Types.d_data.(n) <-
      (a.(0) *. m.Opp_mesh.Tet_mesh.node_pos.(3 * n))
      +. (a.(1) *. m.Opp_mesh.Tet_mesh.node_pos.((3 * n) + 1))
      +. (a.(2) *. m.Opp_mesh.Tet_mesh.node_pos.((3 * n) + 2))
  done;
  Fempic_sim.compute_electric_field sim;
  for c = 0 to m.Opp_mesh.Tet_mesh.ncells - 1 do
    for d = 0 to 2 do
      Alcotest.(check bool) "E = -grad phi" true
        (Float.abs (sim.Fempic_sim.cell_ef.Types.d_data.((3 * c) + d) +. a.(d))
        < 1e-6 *. Float.abs a.(d))
    done
  done

let test_solver_vacuum_max_principle () =
  (* no charge at all: the potential solves Laplace and must lie
     between the boundary values *)
  let prm0 = { prm with Params.plasma_den = 0.0; wall_potential = 5.0 } in
  let sim = make ~prm:prm0 () in
  let stats = Fempic_sim.solve_potential sim in
  Alcotest.(check bool) "converged" true stats.Field_solver.converged;
  Array.iter
    (fun v -> Alcotest.(check bool) "0 <= phi <= 5" true (v >= -1e-9 && v <= 5.0 +. 1e-9))
    sim.Fempic_sim.node_phi.Types.d_data

let test_solver_manufactured_solution () =
  (* MMS: phi0 = sin(pi x/lx) sin(pi y/ly) cos(pi z/lz) satisfies the
     wall/inlet Dirichlet data we impose and has zero normal derivative
     at the open outlet; solving with rho0 = -eps0 lap phi0 recovers
     phi0 to discretization accuracy *)
  let lx = 4e-5 and ly = 4e-5 and lz = 8e-5 in
  let m = Opp_mesh.Tet_mesh.build ~nx:6 ~ny:6 ~nz:12 ~lx ~ly ~lz in
  let phi_star x y z =
    sin (Float.pi *. x /. lx) *. sin (Float.pi *. y /. ly) *. cos (Float.pi *. z /. lz)
  in
  let k2 =
    ((Float.pi /. lx) ** 2.0) +. ((Float.pi /. ly) ** 2.0) +. ((Float.pi /. lz) ** 2.0)
  in
  let nnodes = m.Opp_mesh.Tet_mesh.nnodes in
  let active = Array.make nnodes true in
  let phi = Array.make nnodes 0.0 in
  let rho = Array.make nnodes 0.0 in
  Array.iteri
    (fun n kind ->
      let x = m.Opp_mesh.Tet_mesh.node_pos.(3 * n)
      and y = m.Opp_mesh.Tet_mesh.node_pos.((3 * n) + 1)
      and z = m.Opp_mesh.Tet_mesh.node_pos.((3 * n) + 2) in
      rho.(n) <- Params.eps0 *. k2 *. phi_star x y z;
      match kind with
      | Opp_mesh.Tet_mesh.Wall | Opp_mesh.Tet_mesh.Inlet ->
          active.(n) <- false;
          phi.(n) <- phi_star x y z (* = 0 on these planes, kept exact *)
      | Opp_mesh.Tet_mesh.Outlet | Opp_mesh.Tet_mesh.Interior -> ())
    m.Opp_mesh.Tet_mesh.node_kind;
  (* plasma_den = 0 switches the Boltzmann term off: one linear solve *)
  let solver =
    Field_solver.create ~nnodes ~ncells:m.Opp_mesh.Tet_mesh.ncells
      ~cell_nodes:m.Opp_mesh.Tet_mesh.cell_nodes ~cell_bary:m.Opp_mesh.Tet_mesh.cell_bary
      ~cell_volume:m.Opp_mesh.Tet_mesh.cell_volume ~node_volume:m.Opp_mesh.Tet_mesh.node_volume
      ~active
      ~comm:(Field_solver.comm_seq ~nnodes)
      { prm with Params.plasma_den = 0.0 }
  in
  let stats = Field_solver.solve solver ~phi ~ion_charge_density:rho in
  Alcotest.(check bool) "converged" true stats.Field_solver.converged;
  let max_err = ref 0.0 in
  for n = 0 to nnodes - 1 do
    let x = m.Opp_mesh.Tet_mesh.node_pos.(3 * n)
    and y = m.Opp_mesh.Tet_mesh.node_pos.((3 * n) + 1)
    and z = m.Opp_mesh.Tet_mesh.node_pos.((3 * n) + 2) in
    max_err := Float.max !max_err (Float.abs (phi.(n) -. phi_star x y z))
  done;
  (* linear elements on this resolution: a few percent of the unit
     amplitude *)
  Alcotest.(check bool) (Printf.sprintf "MMS max error %.4f" !max_err) true (!max_err < 0.08)

let test_boltzmann_electron_response () =
  (* the Boltzmann closure sets phi ~ kTe ln(n_i/n0): an under-dense
     duct (still filling) pulls the interior potential well below zero,
     while the flux-matched prefilled duct is quasi-neutral (n_i = n0
     by construction of the macro weight), so phi ~ 0 there *)
  (* needs a cross-section wider than a few Debye lengths for the
     interior to decouple from the wall potential *)
  let wide = Opp_mesh.Tet_mesh.build ~nx:6 ~ny:6 ~nz:12 ~lx:6e-5 ~ly:6e-5 ~lz:1.2e-4 in
  let underdense =
    Fempic_sim.create
      ~prm:{ prm with Params.target_particles = 20_000.0 }
      ~profile:(Profile.create ())
      ~runner:(Runner.seq ~profile:(Profile.create ()) ())
      wide
  in
  for _ = 1 to 10 do
    ignore (Fempic_sim.step underdense)
  done;
  let d = Fempic_sim.diagnostics underdense in
  Alcotest.(check bool)
    (Printf.sprintf "under-dense interior negative (%.3f)" d.Fempic_sim.min_potential)
    true
    (d.Fempic_sim.min_potential < -0.2);
  Alcotest.(check bool) "bounded by the wall value" true
    (d.Fempic_sim.max_potential <= prm.Params.wall_potential +. 1e-9);
  let neutral = make () in
  ignore (Fempic_sim.prefill neutral);
  for _ = 1 to 5 do
    ignore (Fempic_sim.step neutral)
  done;
  let d = Fempic_sim.diagnostics neutral in
  Alcotest.(check bool)
    (Printf.sprintf "prefilled duct quasi-neutral (%.3f)" d.Fempic_sim.min_potential)
    true
    (Float.abs d.Fempic_sim.min_potential < 1.0)

let test_steady_state_population () =
  let sim = make () in
  ignore (Fempic_sim.prefill sim);
  Fempic_sim.run sim ~steps:60;
  let n = float_of_int sim.Fempic_sim.parts.Types.s_size in
  Alcotest.(check bool)
    (Printf.sprintf "population %.0f near target %.0f" n prm.Params.target_particles)
    true
    (Float.abs (n -. prm.Params.target_particles) < 0.25 *. prm.Params.target_particles)

(* --- Monte-Carlo collisions --- *)

let test_collisions_frequency () =
  (* collision counts over many steps match the null-collision
     probability for a mono-speed population *)
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"c" 1 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let vel = Opp.decl_dat ctx ~name:"v" ~set:parts ~dim:3 None in
  let mcc =
    Collisions.create ~neutral_density:1e19 ~sigma_cx:1e-18 ~sigma_el:0.0 ~dt:2e-10 ~parts
      ~part_vel:vel ~seed:5 ()
  in
  let n = 20_000 in
  ignore (Opp.inject parts n);
  for p = 0 to n - 1 do
    vel.Types.d_data.((3 * p) + 2) <- 7000.0
  done;
  let cx, el, _ = Collisions.apply mcc in
  let expect = float_of_int n *. Collisions.expected_probability mcc ~v:7000.0 in
  Alcotest.(check int) "no elastic channel" 0 el;
  Alcotest.(check bool)
    (Printf.sprintf "cx count %d ~ expectation %.0f" cx expect)
    true
    (Float.abs (float_of_int cx -. expect) < 5.0 *. sqrt expect)

let test_collisions_elastic_preserves_speed () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"c" 1 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let vel = Opp.decl_dat ctx ~name:"v" ~set:parts ~dim:3 None in
  (* elastic only, cranked so ~80% of particles scatter per step *)
  let mcc =
    Collisions.create ~neutral_density:8e23 ~sigma_cx:0.0 ~sigma_el:1e-18 ~dt:2e-10 ~parts
      ~part_vel:vel ~seed:6 ()
  in
  let n = 1000 in
  ignore (Opp.inject parts n);
  for p = 0 to n - 1 do
    vel.Types.d_data.((3 * p) + 2) <- 5000.0
  done;
  let _, el, _ = Collisions.apply mcc in
  Alcotest.(check bool) "most scattered" true (el > n / 2);
  for p = 0 to n - 1 do
    let speed =
      sqrt
        (Array.fold_left
           (fun acc d -> acc +. (vel.Types.d_data.((3 * p) + d) ** 2.0))
           0.0 [| 0; 1; 2 |])
    in
    Alcotest.(check (float 1e-6)) "speed preserved" 5000.0 speed
  done

let test_collisions_thermalize_drift () =
  (* charge exchange replaces beam ions by thermal ones: the mean
     drift must decay toward zero over many collisional steps *)
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"c" 1 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let vel = Opp.decl_dat ctx ~name:"v" ~set:parts ~dim:3 None in
  (* ~1.4% charge-exchange probability per step: a few mean free
     times over the 200 steps below *)
  let mcc =
    Collisions.create ~neutral_density:5e22 ~sigma_cx:1e-18 ~sigma_el:0.0
      ~neutral_temperature:200.0 ~dt:2e-10 ~parts ~part_vel:vel ~seed:7 ()
  in
  let n = 5000 in
  ignore (Opp.inject parts n);
  for p = 0 to n - 1 do
    vel.Types.d_data.((3 * p) + 2) <- 7000.0
  done;
  let mean_vz () =
    let s = ref 0.0 in
    for p = 0 to n - 1 do
      s := !s +. vel.Types.d_data.((3 * p) + 2)
    done;
    !s /. float_of_int n
  in
  let v0 = mean_vz () in
  for _ = 1 to 200 do
    ignore (Collisions.apply mcc)
  done;
  let v1 = mean_vz () in
  Alcotest.(check bool)
    (Printf.sprintf "drift decayed %.0f -> %.0f" v0 v1)
    true (v1 < 0.5 *. v0)

let test_collisions_ionization_creates_particles () =
  (* ionization appends a slow ion at the parent's position and cell,
     via the flag-then-append pattern (no injection mid-loop) *)
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"c" 4 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let vel = Opp.decl_dat ctx ~name:"v" ~set:parts ~dim:3 None in
  let pos = Opp.decl_dat ctx ~name:"x" ~set:parts ~dim:3 None in
  let p2c = Opp.decl_map ctx ~name:"p2c" ~from:parts ~to_:cells ~arity:1 None in
  let mcc =
    (* ionization probability ~0.7 per step *)
    Collisions.create ~neutral_density:5e24 ~sigma_cx:0.0 ~sigma_el:0.0 ~sigma_ion:1e-18
      ~neutral_temperature:100.0 ~part_pos:pos ~p2c ~dt:2e-10 ~parts ~part_vel:vel ~seed:9 ()
  in
  let n = 1000 in
  ignore (Opp.inject parts n);
  Opp.reset_injected parts;
  for p = 0 to n - 1 do
    vel.Types.d_data.((3 * p) + 2) <- 700.0;
    pos.Types.d_data.(3 * p) <- float_of_int (p mod 7);
    p2c.Types.m_data.(p) <- p mod 4
  done;
  let _, _, ion = Collisions.apply mcc in
  Alcotest.(check bool) (Printf.sprintf "many ionizations (%d)" ion) true (ion > n / 2);
  Alcotest.(check int) "population grew" (n + ion) parts.Types.s_size;
  (* offspring inherit position and cell, with thermal speeds *)
  for child = n to parts.Types.s_size - 1 do
    let speed =
      sqrt
        (Array.fold_left
           (fun acc d -> acc +. (vel.Types.d_data.((3 * child) + d) ** 2.0))
           0.0 [| 0; 1; 2 |])
    in
    Alcotest.(check bool) "thermal offspring" true (speed < 700.0);
    Alcotest.(check bool) "valid cell" true
      (p2c.Types.m_data.(child) >= 0 && p2c.Types.m_data.(child) < 4)
  done;
  (* parent-position inheritance: every child's x coordinate is one of
     the parent lattice values *)
  for child = n to parts.Types.s_size - 1 do
    let x = pos.Types.d_data.(3 * child) in
    Alcotest.(check bool) "x inherited" true (Float.abs (x -. Float.round x) < 1e-12 && x < 7.0)
  done

let test_collisions_zero_density_noop () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"c" 1 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let vel = Opp.decl_dat ctx ~name:"v" ~set:parts ~dim:3 None in
  let mcc = Collisions.create ~neutral_density:0.0 ~dt:2e-10 ~parts ~part_vel:vel ~seed:8 () in
  ignore (Opp.inject parts 100);
  for p = 0 to 99 do
    vel.Types.d_data.((3 * p) + 2) <- 7000.0
  done;
  let cx, el, ion = Collisions.apply mcc in
  Alcotest.(check int) "no cx" 0 cx;
  Alcotest.(check int) "no ionization" 0 ion;
  Alcotest.(check int) "no elastic" 0 el;
  for p = 0 to 99 do
    Alcotest.(check (float 0.0)) "velocity untouched" 7000.0 vel.Types.d_data.((3 * p) + 2)
  done

(* --- checkpoint / restart (one-shard Opp_resil.Ckpt of the declared
   state, the same codec the distributed driver shards) --- *)

module Fd = Apps_dist.Fempic_dist

let with_ckpt_dir prefix f =
  let dir = Filename.temp_file prefix ".d" in
  Sys.remove dir;
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* The seq backend's run: a one-rank handle on the test mesh. *)
let make_one_rank ?(mesh = mesh ()) () =
  Fd.create ~prm ~nranks:1 ~profile:(Profile.create ()) mesh

let test_checkpoint_exact_resume () =
  (* 10 steps + checkpoint + 10 steps must equal load + 10 steps,
     bit for bit (fields, particles, injection RNG state) *)
  with_ckpt_dir "oppic_ckpt" (fun dir ->
      let ha = make_one_rank () in
      Fd.run ha ~steps:10;
      Fd.save_checkpoint ha ~dir;
      Fd.run ha ~steps:10;
      let hb = make_one_rank () in
      Alcotest.(check (option int)) "restored step" (Some 10) (Fd.restore_checkpoint hb ~dir);
      Fd.run hb ~steps:10;
      let a = ha.Fd.sims.(0) and b = hb.Fd.sims.(0) in
      Alcotest.(check int) "same particle count" a.Fempic_sim.parts.Types.s_size
        b.Fempic_sim.parts.Types.s_size;
      Array.iteri
        (fun n v ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "phi bitwise at %d" n)
            v
            b.Fempic_sim.node_phi.Types.d_data.(n))
        a.Fempic_sim.node_phi.Types.d_data;
      for p = 0 to (3 * a.Fempic_sim.parts.Types.s_size) - 1 do
        Alcotest.(check (float 0.0)) "positions bitwise" a.Fempic_sim.part_pos.Types.d_data.(p)
          b.Fempic_sim.part_pos.Types.d_data.(p)
      done)

let test_checkpoint_rejects_garbage () =
  (* a shard overwritten with garbage fails its manifest checksum: the
     checkpoint is invalid and nothing is restored *)
  with_ckpt_dir "oppic_bad_ckpt" (fun dir ->
      let a = make_one_rank () in
      Fd.run a ~steps:2;
      Fd.save_checkpoint a ~dir;
      Out_channel.with_open_bin
        (Filename.concat dir "ckpt-00000002/shard-0000.bin")
        (fun oc -> output_string oc "not a checkpoint at all");
      let h = make_one_rank () in
      Alcotest.(check (option int)) "garbage rejected" None (Fd.restore_checkpoint h ~dir);
      Alcotest.(check int) "sim untouched" 0 h.Fd.step_count)

let test_checkpoint_rejects_wrong_mesh () =
  with_ckpt_dir "oppic_mesh_ckpt" (fun dir ->
      let a = make_one_rank () in
      Fd.run a ~steps:3;
      Fd.save_checkpoint a ~dir;
      let other_mesh = Opp_mesh.Tet_mesh.build ~nx:3 ~ny:3 ~nz:6 ~lx:3e-5 ~ly:3e-5 ~lz:6e-5 in
      let b = make_one_rank ~mesh:other_mesh () in
      Alcotest.(check bool) "mesh mismatch rejected" true
        (try
           ignore (Fd.restore_checkpoint b ~dir);
           false
         with Opp_resil.Ckpt.Corrupt _ -> true))

let prop_sample_tet_inside =
  (* the uniform tetrahedron sampler must stay inside (barycentric
     coordinates all nonnegative) *)
  QCheck.Test.make ~name:"tet sampler stays inside" ~count:200 QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let v0 = [| 0.0; 0.0; 0.0 |] and v1 = [| 1.0; 0.0; 0.0 |] in
      let v2 = [| 0.0; 1.0; 0.0 |] and v3 = [| 0.0; 0.0; 1.0 |] in
      let p = Opp_mesh.Geom.sample_tet rng v0 v1 v2 v3 in
      p.(0) >= 0.0 && p.(1) >= 0.0 && p.(2) >= 0.0 && p.(0) +. p.(1) +. p.(2) <= 1.0 +. 1e-12)

let prop_move_finds_containing_cell =
  (* from ANY starting cell, the barycentric walk must settle on a cell
     that actually contains the particle (the duct is convex, so the
     walk cannot get stuck) *)
  QCheck.Test.make ~name:"mover settles on the containing cell" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = mesh () in
      let sim =
        Fempic_sim.create ~prm ~profile:(Profile.create ())
          ~runner:(Runner.seq ~profile:(Profile.create ()) ())
          m
      in
      ignore (Opp.inject sim.Fempic_sim.parts 8);
      Opp.reset_injected sim.Fempic_sim.parts;
      for p = 0 to 7 do
        (* random interior position, random (likely wrong) start cell *)
        sim.Fempic_sim.part_pos.Types.d_data.(3 * p) <- Rng.float rng *. 3.99e-5;
        sim.Fempic_sim.part_pos.Types.d_data.((3 * p) + 1) <- Rng.float rng *. 3.99e-5;
        sim.Fempic_sim.part_pos.Types.d_data.((3 * p) + 2) <- Rng.float rng *. 7.99e-5;
        sim.Fempic_sim.p2c.Types.m_data.(p) <- Rng.int rng m.Opp_mesh.Tet_mesh.ncells
      done;
      let r = Fempic_sim.move sim in
      let lc = Array.make 4 0.0 in
      r.Seq.mv_removed = 0
      && (let ok = ref true in
          for p = 0 to 7 do
            let c = sim.Fempic_sim.p2c.Types.m_data.(p) in
            Opp_mesh.Geom.barycentric m.Opp_mesh.Tet_mesh.cell_bary ~off:(16 * c)
              ~x:sim.Fempic_sim.part_pos.Types.d_data.(3 * p)
              ~y:sim.Fempic_sim.part_pos.Types.d_data.((3 * p) + 1)
              ~z:sim.Fempic_sim.part_pos.Types.d_data.((3 * p) + 2)
              lc;
            if not (Opp_mesh.Geom.inside ~eps:1e-9 lc) then ok := false
          done;
          !ok))

let suite =
  [
    Alcotest.test_case "injection rate bookkeeping" `Quick test_injection_rate;
    Alcotest.test_case "macro weight matches flux" `Quick test_macro_weight_matches_flux;
    Alcotest.test_case "charge conservation" `Quick test_charge_conservation;
    Alcotest.test_case "lc weights valid" `Quick test_lc_weights_valid;
    Alcotest.test_case "prefill count/distribution" `Quick test_prefill_count_and_distribution;
    Alcotest.test_case "ballistic transit plateau" `Slow test_ballistic_transit;
    Alcotest.test_case "direct-hop equals multi-hop" `Slow test_dh_equals_mh;
    Alcotest.test_case "E of a linear potential" `Quick test_electric_field_of_linear_potential;
    Alcotest.test_case "solver: vacuum max principle" `Quick test_solver_vacuum_max_principle;
    Alcotest.test_case "solver: manufactured solution" `Slow test_solver_manufactured_solution;
    Alcotest.test_case "Boltzmann electron response" `Slow test_boltzmann_electron_response;
    Alcotest.test_case "steady-state population" `Slow test_steady_state_population;
    QCheck_alcotest.to_alcotest prop_sample_tet_inside;
    QCheck_alcotest.to_alcotest prop_move_finds_containing_cell;
    Alcotest.test_case "mcc: collision frequency" `Quick test_collisions_frequency;
    Alcotest.test_case "mcc: elastic preserves speed" `Quick test_collisions_elastic_preserves_speed;
    Alcotest.test_case "mcc: cx thermalizes drift" `Slow test_collisions_thermalize_drift;
    Alcotest.test_case "mcc: ionization creates particles" `Quick
      test_collisions_ionization_creates_particles;
    Alcotest.test_case "mcc: zero density no-op" `Quick test_collisions_zero_density_noop;
    Alcotest.test_case "checkpoint: exact resume" `Slow test_checkpoint_exact_resume;
    Alcotest.test_case "checkpoint: rejects garbage" `Quick test_checkpoint_rejects_garbage;
    Alcotest.test_case "checkpoint: rejects wrong mesh" `Quick test_checkpoint_rejects_wrong_mesh;
  ]
