(** Mini-FEM-PIC over the simulated-MPI backend.

    The duct is partitioned into columns along the particle-motion
    axis (the paper's custom partitioning after PUMIPic), each rank
    runs a rank-local {!Fempic.Fempic_sim} in SPMD lockstep through the
    sim's own phase list. The node-halo reduction after the charge
    deposit is derived from the loops' access descriptors
    ({!Opp_dist.World.derive}); this driver adds the two collective
    points: particle packing / migration / walk continuation at rank
    boundaries, and the field solve.

    The field solve is gathered to a single global solver
    (gather-solve-scatter) — the stand-in for the distributed PETSc
    KSP; its traffic is counted so the scaling model can charge it.
    Everything else runs genuinely distributed, and results match the
    sequential run because injection RNG streams are keyed by global
    inlet-face identity. *)

open Opp_core
open Opp_dist

type t = {
  mutable nranks : int;  (** shrinks when a rank is lost under --heal=shrink *)
  prm : Fempic.Params.t;
  mutable part : Tet_part.t;
  mutable sims : Fempic.Fempic_sim.t array;
  shape : (Fempic.Fempic_sim.t, Tet_part.t) World.shape;
      (** declared state plus the partition/rank-sim factories (which
          capture runner/profile/locality), used by checkpointing,
          hashing and every recovery or rebalance epoch *)
  release : unit -> unit;
      (** frees the runner's resources (the MPI+OpenMP hybrid's Domains
          pool, shared by the serially executed ranks) *)
  overlay : Opp_mesh.Overlay.t option;
      (** rank-map for the direct-hop global move (paper 3.2.2): one
          shared copy, as with the MPI-RMA window per node *)
  global_solver : Fempic.Field_solver.t;
  g_phi : float array;
  g_den : float array;
  traffic : Traffic.t;
  profile : Profile.t;
  locality : Opp_locality.Sched.t option;
      (** shared sort scheduler (one instance, per-rank particle sets
          are tracked independently by physical identity) *)
  mutable step_count : int;
  mutable last_migrated : int;
  mutable watch : Dist_watch.t option;  (** live health monitor plumbing *)
}

(* --- declared state (see [Opp_dist.World]) --- *)

(** What a rank persists, in shard order: the particle dats (the
    migration payload: 3 pos + 3 vel + 4 lc), the field dats over owned
    AND halo elements (hashed as phi, charge, density, E), and the
    injection state — per-face carries
    and RNG streams, keyed by global inlet-face id. The sequential sim
    declares the same state on a one-rank world. *)
let state (sim : Fempic.Fempic_sim.t) =
  let open Fempic.Fempic_sim in
  let keys = Array.map (fun f -> f.Opp_mesh.Tet_mesh.f_id) sim.mesh.Opp_mesh.Tet_mesh.inlet_faces in
  World.declare ~parts:sim.parts ~p2c:sim.p2c
    ~particle:[ ("part_pos", sim.part_pos); ("part_vel", sim.part_vel); ("part_lc", sim.part_lc) ]
    ~mesh:
      [
        ("node_phi", World.Nodes, sim.node_phi);
        ("node_charge", World.Nodes, sim.node_charge);
        ("node_charge_den", World.Nodes, sim.node_charge_den);
        ("cell_ef", World.Cells, sim.cell_ef);
      ]
    ~extras:
      [
        World.Float_extra { name = "face_carry"; keys; data = sim.face_carry };
        World.I64_extra
          {
            name = "face_rng";
            keys;
            get = (fun i -> Rng.state sim.face_rng.(i));
            set = (fun i s -> Rng.set_state sim.face_rng.(i) s);
          };
      ]
    ()

let layout (part : Tet_part.t) r =
  let lm = part.Tet_part.locals.(r) in
  {
    World.cell_g = lm.Tet_part.lm_cell_g;
    cell_owned = lm.Tet_part.lm_cell_owned;
    node_g = lm.Tet_part.lm_node_g;
    node_owned = lm.Tet_part.lm_node_owned;
    cell_g2l = part.Tet_part.cell_g2l.(r);
  }

(* Cell adjacency by shared node — the neighbour relation the shrink
   and rebalance re-partitioners work over. *)
let cell_neighbours (mesh : Opp_mesh.Tet_mesh.t) =
  let node_cells = Array.make mesh.Opp_mesh.Tet_mesh.nnodes [] in
  for c = 0 to mesh.Opp_mesh.Tet_mesh.ncells - 1 do
    for k = 0 to 3 do
      let n = mesh.Opp_mesh.Tet_mesh.cell_nodes.((4 * c) + k) in
      node_cells.(n) <- c :: node_cells.(n)
    done
  done;
  fun c ->
    let seen = Hashtbl.create 16 in
    for k = 0 to 3 do
      let n = mesh.Opp_mesh.Tet_mesh.cell_nodes.((4 * c) + k) in
      List.iter (fun c' -> if c' <> c then Hashtbl.replace seen c' ()) node_cells.(n)
    done;
    Hashtbl.fold (fun c' () acc -> c' :: acc) seen [] |> List.sort compare

let create ?(prm = Fempic.Params.default) ?(nranks = 2) ?(partitioner = `Columns)
    ?(use_direct_hop = false) ?workers ?(checked = false) ?locality
    ?(profile = Profile.global) (mesh : Opp_mesh.Tet_mesh.t) =
  let centroid c =
    [|
      mesh.Opp_mesh.Tet_mesh.cell_centroid.(3 * c);
      mesh.Opp_mesh.Tet_mesh.cell_centroid.((3 * c) + 1);
      mesh.Opp_mesh.Tet_mesh.cell_centroid.((3 * c) + 2);
    |]
  in
  let cell_rank =
    match partitioner with
    | `Columns ->
        Partition.columns ~nranks ~ncells:mesh.Opp_mesh.Tet_mesh.ncells
          ~x:(fun c -> (centroid c).(0))
          ~y:(fun c -> (centroid c).(1))
    | `Slab ->
        Partition.slab ~nranks ~ncells:mesh.Opp_mesh.Tet_mesh.ncells
          ~coord:(fun c -> (centroid c).(2))
    | `Rcb -> Partition.rcb ~nranks ~ncells:mesh.Opp_mesh.Tet_mesh.ncells ~centroid
  in
  let part = Tet_part.build mesh ~cell_rank ~nranks in
  let total_inlet_area =
    Array.fold_left
      (fun acc f -> acc +. f.Opp_mesh.Tet_mesh.f_area)
      0.0 mesh.Opp_mesh.Tet_mesh.inlet_faces
  in
  let runner, sched, release = Backend.select ~profile ?locality ?workers ~checked () in
  let traffic = Traffic.create () in
  let halo = World.halo ~traffic in
  let runner = World.derive halo runner in
  let mk_sim lm =
    let sim =
      Fempic.Fempic_sim.create ~prm ~runner ~profile ?locality:sched ~total_inlet_area
        lm.Tet_part.lm_mesh
    in
    sim.Fempic.Fempic_sim.cells.Types.s_exec_size <- lm.Tet_part.lm_cell_owned;
    sim.Fempic.Fempic_sim.nodes.Types.s_exec_size <- lm.Tet_part.lm_node_owned;
    sim
  in
  let neighbours = lazy (cell_neighbours mesh) in
  let shape =
    {
      World.state;
      layout;
      exchanges =
        (fun p -> [ (World.Cells, p.Tet_part.cell_exch); (World.Nodes, p.Tet_part.node_exch) ]);
      cell_rank = (fun p -> p.Tet_part.cell_rank);
      build = (fun ~cell_rank ~nranks -> Tet_part.build mesh ~cell_rank ~nranks);
      mk_sim = (fun p r -> mk_sim p.Tet_part.locals.(r));
      centroid;
      neighbours = (fun c -> Lazy.force neighbours c);
      ncells = mesh.Opp_mesh.Tet_mesh.ncells;
      nnodes = mesh.Opp_mesh.Tet_mesh.nnodes;
      halo;
    }
  in
  let sims = Array.map mk_sim part.Tet_part.locals in
  World.bind shape ~part ~sims;
  (* global field solver with the same boundary conditions *)
  let nnodes = mesh.Opp_mesh.Tet_mesh.nnodes in
  let active = Array.make nnodes true in
  let g_phi = Array.make nnodes 0.0 in
  Array.iteri
    (fun n kind ->
      match kind with
      | Opp_mesh.Tet_mesh.Inlet ->
          active.(n) <- false;
          g_phi.(n) <- prm.Fempic.Params.inlet_potential
      | Opp_mesh.Tet_mesh.Wall ->
          active.(n) <- false;
          g_phi.(n) <- prm.Fempic.Params.wall_potential
      | Opp_mesh.Tet_mesh.Outlet | Opp_mesh.Tet_mesh.Interior -> ())
    mesh.Opp_mesh.Tet_mesh.node_kind;
  let global_solver =
    Fempic.Field_solver.create ~nnodes ~ncells:mesh.Opp_mesh.Tet_mesh.ncells
      ~cell_nodes:mesh.Opp_mesh.Tet_mesh.cell_nodes ~cell_bary:mesh.Opp_mesh.Tet_mesh.cell_bary
      ~cell_volume:mesh.Opp_mesh.Tet_mesh.cell_volume
      ~node_volume:mesh.Opp_mesh.Tet_mesh.node_volume ~active
      ~comm:(Fempic.Field_solver.comm_seq ~nnodes)
      prm
  in
  let overlay =
    if not use_direct_hop then None
    else begin
      let ov = Opp_mesh.Overlay.of_tet_mesh mesh in
      Opp_mesh.Overlay.assign_ranks ov ~cell_rank;
      Some ov
    end
  in
  {
    nranks;
    prm;
    part;
    sims;
    shape;
    release;
    overlay;
    global_solver;
    g_phi;
    g_den = Array.make nnodes 0.0;
    traffic;
    profile;
    locality = sched;
    step_count = 0;
    last_migrated = 0;
    watch = None;
  }

(** Attach a live health monitor; every subsequent {!step} emits
    per-rank heartbeats through it (see [Opp_watch]). *)
let set_watch t mon = t.watch <- Some (Dist_watch.create ~nranks:t.nranks mon)

(** Poison the gathered potential with one NaN — the watch canary's
    self-test hook ([--inject-nan]). The potential seeds the in-place
    Newton solve, so the NaN survives the solve, is scattered to every
    rank's [node_phi], and spreads into the electric field within the
    same step. *)
let poison t = t.g_phi.(0) <- Float.nan

(** The field dats the watch canary scans for non-finite values, on
    every rank and on the single-rank backends. *)
let canary (sim : Fempic.Fempic_sim.t) =
  Fempic.Fempic_sim.[ sim.node_phi; sim.node_charge_den; sim.cell_ef ]

(* One rank-local phase on every rank in turn; the reduces its
   mesh-map INCs left pending run at its end. *)
let rank_phase t name f =
  Array.iteri (fun r sim -> Dist_watch.rank_scope t.watch r name (fun () -> f sim)) t.sims;
  World.sync t.shape

(** Doubles per migrant: the declared particle dats' dims summed. *)
let payload_width t = World.width (state t.sims.(0))

(* --- particle migration --- *)

(* Direct-hop global move: consult the rank map at each particle's new
   position and ship rank-changers straight to their destination (with
   the overlay cell as the walk's starting hint), instead of walking
   them across every intermediate partition. *)
let direct_hop_prepass t mail =
  match t.overlay with
  | None -> ()
  | Some ov ->
      Array.iteri
        (fun r sim ->
          let st = state sim in
          let n = sim.Fempic.Fempic_sim.parts.Types.s_size in
          let dead = Array.make (max n 1) false in
          let any = ref false in
          for p = 0 to n - 1 do
            let d = sim.Fempic.Fempic_sim.part_pos.Types.d_data in
            let x = d.(3 * p) and y = d.((3 * p) + 1) and z = d.((3 * p) + 2) in
            let dest = Opp_mesh.Overlay.rank_of ov ~x ~y ~z in
            if dest >= 0 && dest <> r then begin
              let hint = Opp_mesh.Overlay.locate ov ~x ~y ~z in
              if hint >= 0 && t.part.Tet_part.cell_rank.(hint) = dest then begin
                Mailbox.post mail ~src:r ~dest ~cell:hint ~payload:(World.payload st p);
                dead.(p) <- true;
                any := true
              end
            end
          done;
          if !any then ignore (Particle.remove_flagged sim.Fempic.Fempic_sim.parts dead))
        t.sims

(** Move every rank's particles, migrating and continuing walks until
    the whole fleet has settled. Returns particles that changed rank. *)
let move_particles t =
  let migrated =
    World.migrate t.shape ~traffic:t.traffic ~part:t.part ~sims:t.sims
      ~prepass:(direct_hop_prepass t)
      ~move:(fun r iterate ~should_stop ~on_pending ->
        Dist_watch.rank_scope t.watch r "MovePhase" (fun () ->
            ignore (Fempic.Fempic_sim.move ~should_stop ~on_pending ~iterate t.sims.(r))))
  in
  t.last_migrated <- migrated;
  migrated

(* --- field solve (gather - solve - scatter) --- *)

let solve_field t =
  let nnodes = t.part.Tet_part.global.Opp_mesh.Tet_mesh.nnodes in
  (* gather owned node charge densities *)
  Array.iteri
    (fun r sim ->
      let lm = t.part.Tet_part.locals.(r) in
      for l = 0 to lm.Tet_part.lm_node_owned - 1 do
        t.g_den.(lm.Tet_part.lm_node_g.(l)) <-
          sim.Fempic.Fempic_sim.node_charge_den.Types.d_data.(l)
      done)
    t.sims;
  let stats =
    Profile.timed ~t:t.profile ~name:"Solve" (fun () ->
        Fempic.Field_solver.solve t.global_solver ~phi:t.g_phi ~ion_charge_density:t.g_den)
  in
  (* scatter the potential to every rank's owned and halo nodes: the
     halo copies come back fresh *)
  Array.iteri
    (fun r sim ->
      let lm = t.part.Tet_part.locals.(r) in
      let phi = sim.Fempic.Fempic_sim.node_phi in
      Array.iteri (fun l g -> phi.Types.d_data.(l) <- t.g_phi.(g)) lm.Tet_part.lm_node_g;
      Freshness.mark_fresh phi)
    t.sims;
  t.traffic.Traffic.solve_bytes <-
    t.traffic.Traffic.solve_bytes +. float_of_int (2 * nnodes * 8);
  t.traffic.Traffic.reductions <- t.traffic.Traffic.reductions + 2;
  stats

(* --- resilience: checkpoint/restart, online recovery, live rebalance --- *)

let states t = World.states t.shape t.sims

(** Sharded checkpoint under [dir]; rank 0's shard also carries the
    gathered potential (it seeds the next CG solve) and the step. *)
let save_checkpoint ?keep t ~dir =
  World.save ?keep ~dir ~step:t.step_count ~driver:[ ("g_phi", t.g_phi) ] (states t)

let set_step t step =
  t.step_count <- step;
  Array.iter (fun sim -> sim.Fempic.Fempic_sim.step_count <- step) t.sims

(** Restore the newest valid checkpoint under [dir] into [t] (same
    mesh, parameters and rank count): the restored step, or [None]. A
    resumed run continues bit-for-bit. *)
let restore_checkpoint t ~dir =
  World.load ~dir ~driver:[ ("g_phi", t.g_phi) ] (states t)
  |> Option.map (fun (step, count) ->
         set_step t count;
         step)

(** One-shard checkpoint of a sequential sim (a one-rank world). *)
let save_sim ?keep (sim : Fempic.Fempic_sim.t) ~dir =
  World.save ?keep ~dir ~step:sim.Fempic.Fempic_sim.step_count ~driver:[] [| state sim |]

(** Restore a sequential sim from [dir]: the restored step, or [None]. *)
let restore_sim (sim : Fempic.Fempic_sim.t) ~dir =
  World.load ~dir ~driver:[] [| state sim |]
  |> Option.map (fun (step, count) ->
         sim.Fempic.Fempic_sim.step_count <- count;
         step)

(** Every rank's checkpoint sections — what the heal snapshot keeps
    at each step boundary. *)
let sections_all t = Array.map World.sections (states t)

(** Respawn recovery ({!World.respawn}) from the rank's reconstructed
    sections. Bit-identical continuation: crashes fire at the top of a
    step, before any state mutates. *)
let respawn t ~rank sections =
  let old = World.respawn t.shape ~part:t.part ~sims:t.sims ~rank sections in
  (* the replaced sim's sets died: drop their scheduler entries so the
     sort scheduler neither leaks them nor reuses a stale floor *)
  Option.iter (fun s -> Opp_locality.Sched.forget s old.Fempic.Fempic_sim.parts) t.locality;
  t.sims.(rank).Fempic.Fempic_sim.step_count <- t.step_count;
  Dist_watch.set_rank_state t.watch rank "respawned"

(* Swap in a reshaped world; the global solver, g_phi/g_den, traffic
   and profile all survive (they are defined over the global mesh). *)
let install t (part, sims) =
  t.part <- part;
  t.sims <- sims;
  set_step t t.step_count;
  t.nranks <- Array.length sims;
  (* every particle set was replaced: drop all scheduler entries so
     nothing leaks and the stale EWMA floors don't outlive the world *)
  Option.iter Opp_locality.Sched.reset t.locality;
  Option.iter
    (fun ov -> Opp_mesh.Overlay.assign_ranks ov ~cell_rank:part.Tet_part.cell_rank)
    t.overlay

(** Shrink recovery ({!World.shrink}): degrade onto the survivors and
    return the new rank count. Not bit-identical to the clean run
    (reduction order changes); conservation and the state-hash oracle
    validate it. *)
let shrink t ~dead dead_sections =
  install t (World.shrink t.shape ~traffic:t.traffic ~part:t.part ~sims:t.sims ~dead dead_sections);
  t.watch <- Dist_watch.shrink t.watch ~dead ~step:t.step_count ~nranks:t.nranks;
  t.nranks

(** Per-global-cell particle counts — the [Particles] balance mode's
    cell weight. *)
let cell_particle_weights t = World.cell_particle_weights t.shape ~part:t.part ~sims:t.sims

(** Live migration epoch ({!World.rebalance}): returns the cells that
    changed owner (0 = nothing rebuilt). {!state_hash} is bit-identical
    across it; a heal snapshot taken before it no longer fits the world. *)
let rebalance ?max_move_frac t ~weight =
  match
    World.rebalance ?max_move_frac t.shape ~traffic:t.traffic ~part:t.part ~sims:t.sims ~weight
  with
  | None -> 0
  | Some (moved, part, sims) ->
      install t (part, sims);
      moved

(** {!World.state_hash}: invariant under any re-partition. *)
let state_hash t = World.state_hash t.shape ~part:t.part ~sims:t.sims

let total_particles t = World.total_particles t.shape t.sims

(** Particle load imbalance across ranks: max/mean - 1. The paper
    notes particle balance (set by the partitioning) drives idle time
    at the move-finalisation synchronisation. *)
let particle_imbalance t = World.particle_imbalance t.shape t.sims

(* --- the distributed step --- *)

let step t =
  (* armed rank faults (crash / stall) fire before any state mutates,
     so a crashed step can be replayed from the last checkpoint *)
  (match Opp_resil.Fault.active () with
  | Some inj -> Opp_resil.Fault.begin_step inj ~step:(t.step_count + 1)
  | None -> ());
  List.iter
    (function
      | Fempic.Fempic_sim.Local (name, f) -> rank_phase t name f
      | Move -> ignore (move_particles t)
      | Solve -> ignore (solve_field t))
    (Fempic.Fempic_sim.phases t.sims.(0));
  t.step_count <- t.step_count + 1;
  if !Opp_obs.Metrics.enabled then begin
    Opp_obs.Metrics.set "particles" (float_of_int (total_particles t));
    Opp_obs.Metrics.set "imbalance" (particle_imbalance t)
  end;
  Dist_watch.step_done t.watch ~step:t.step_count
    ~particles:(fun r -> t.sims.(r).Fempic.Fempic_sim.parts.Types.s_size)
    ~capacity:(fun r -> t.sims.(r).Fempic.Fempic_sim.parts.Types.s_capacity)
    ~nonfinite:(fun r -> Opp_watch.Canary.nonfinite_dats (canary t.sims.(r)))
    ~dirty:(fun r ->
      let sim = t.sims.(r) in
      Dist_watch.stale_halo_frac
        [
          sim.Fempic.Fempic_sim.node_charge;
          sim.Fempic.Fempic_sim.node_charge_den;
          sim.Fempic.Fempic_sim.cell_ef;
          sim.Fempic.Fempic_sim.node_phi;
        ])
    ~traffic:t.traffic;
  Runner.step_end ~step:t.step_count;
  Array.fold_left (fun acc sim -> acc + sim.Fempic.Fempic_sim.injected) 0 t.sims

let run t ~steps =
  for _ = 1 to steps do
    ignore (step t)
  done

(* --- aggregated diagnostics --- *)

let total_owned_charge t =
  Array.fold_left
    (fun acc sim ->
      let d = Fempic.Fempic_sim.diagnostics sim in
      acc +. d.Fempic.Fempic_sim.total_charge)
    0.0 t.sims

(** Gathered global potential (valid after a step). *)
let potential t = t.g_phi

(** Release the hybrid backend's worker domains, if any. *)
let shutdown t = t.release ()
