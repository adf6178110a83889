(** Mini-FEM-PIC over the simulated-MPI backend, on any rank count
    (one rank is the sequential program).

    The duct is partitioned into columns along the particle-motion
    axis (the paper's custom partitioning after PUMIPic), each rank
    runs a rank-local {!Fempic.Fempic_sim} in SPMD lockstep through the
    sim's own phase list. The node-halo reduction after the charge
    deposit is derived from the loops' access descriptors
    ({!Opp_dist.World.derive}). Everything app-independent — the rank
    loop, persistence, recovery, rebalance, the step's prologue and
    epilogue — is the shared {!Dist_handle}; this module adds the
    declared state, the partitioner and the two collective points:
    particle migration with the optional direct-hop prepass, and the
    field solve.

    The field solve is gathered to a single global solver
    (gather-solve-scatter) on rank 0 — the stand-in for the distributed
    PETSc KSP and the run's only field solver; its traffic is counted
    so the scaling model can charge it.
    Everything else runs genuinely distributed, and results match the
    sequential run because injection RNG streams are keyed by global
    inlet-face identity. *)

open Opp_core
open Opp_dist
include Dist_handle

type t = (Fempic.Fempic_sim.t, Tet_part.t, Fempic.Params.t) handle

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

(** The field dats the watch canary scans for non-finite values on
    every rank. *)
let canary (sim : Fempic.Fempic_sim.t) =
  Fempic.Fempic_sim.[ sim.node_phi; sim.node_charge_den; sim.cell_ef ]

(** Gathered global potential (valid after a step): the driver array
    rank 0's checkpoint shard carries, since it seeds the next solve. *)
let potential (t : t) = List.assoc "g_phi" t.app.driver

(** Poison the gathered potential with one NaN — the watch canary's
    self-test hook ([--inject-nan]). The potential seeds the in-place
    Newton solve, so the NaN survives the solve, is scattered to every
    rank's [node_phi], and spreads into the electric field within the
    same step. *)
let poison t = (potential t).(0) <- Float.nan

(* --- particle migration --- *)

(* Direct-hop global move: consult the rank map at each particle's new
   position and ship rank-changers straight to their destination (with
   the overlay cell as the walk's starting hint), instead of walking
   them across every intermediate partition. *)
let direct_hop_prepass overlay (t : t) mail =
  match overlay with
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

(* --- field solve (gather - solve - scatter) --- *)

let solve_field solver ~g_phi ~g_den (t : t) =
  let nnodes = t.part.Tet_part.global.Opp_mesh.Tet_mesh.nnodes in
  (* gather owned node charge densities *)
  Array.iteri
    (fun r sim ->
      let lm = t.part.Tet_part.locals.(r) in
      for l = 0 to lm.Tet_part.lm_node_owned - 1 do
        g_den.(lm.Tet_part.lm_node_g.(l)) <- sim.Fempic.Fempic_sim.node_charge_den.Types.d_data.(l)
      done)
    t.sims;
  root_phase t "Solve" (fun () ->
      Profile.timed ~t:t.profile ~name:"Solve" (fun () ->
          ignore (Fempic.Field_solver.solve solver ~phi:g_phi ~ion_charge_density:g_den)));
  (* scatter the potential to every rank's owned and halo nodes: the
     halo copies come back fresh *)
  Array.iteri
    (fun r sim ->
      let lm = t.part.Tet_part.locals.(r) in
      let phi = sim.Fempic.Fempic_sim.node_phi in
      Array.iteri (fun l g -> phi.Types.d_data.(l) <- g_phi.(g)) lm.Tet_part.lm_node_g;
      Freshness.mark_fresh phi)
    t.sims;
  t.traffic.Traffic.solve_bytes <- t.traffic.Traffic.solve_bytes +. float_of_int (2 * nnodes * 8);
  t.traffic.Traffic.reductions <- t.traffic.Traffic.reductions + 2

(* The sim's phase list on the world: the move walks across ranks (after
   the direct-hop prepass), the field solve is gathered to one solver. *)
let phases ~overlay ~solve (t : t) =
  List.iter
    (function
      | Fempic.Fempic_sim.Local (name, f) -> rank_phase t name f
      | Move -> migrate t ~prepass:(direct_hop_prepass overlay t) Fempic.Fempic_sim.move
      | Solve -> solve t)
    (Fempic.Fempic_sim.phases t.sims.(0))

(* Fill the world with {!Fempic.Fempic_sim.prefill_cells}' one stream,
   each particle on the rank that owns its cell. *)
let prefill_world (t : t) (mesh : Opp_mesh.Tet_mesh.t) =
  Fempic.Fempic_sim.prefill_cells ~prm:t.prm mesh ~place:(fun c ->
      let r = t.part.Tet_part.cell_rank.(c) in
      (t.sims.(r), Hashtbl.find t.part.Tet_part.cell_g2l.(r) c));
  Array.iter (fun sim -> Particle.reset_injected sim.Fempic.Fempic_sim.parts) t.sims

(** A handle over [nranks] rank sims of [mesh]. [prefill] starts from
    the steady-state fill, which does not depend on [nranks]; a
    positive [neutral_density] adds the rank-local collisions phase
    ({!Fempic.Fempic_sim.create}), rank [r] drawing from its own stream
    (seed + 1 + r; one rank draws the sequential sim's). *)
let create ?(prm = Fempic.Params.default) ?(nranks = 2) ?(partitioner = `Columns)
    ?(use_direct_hop = false) ?workers ?device ?(checked = false) ?locality
    ?(profile = Profile.global) ?(prefill = false) ?(neutral_density = 0.0)
    (mesh : Opp_mesh.Tet_mesh.t) =
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
  (* the global field solver, with the sims' boundary conditions *)
  let nnodes = mesh.Opp_mesh.Tet_mesh.nnodes in
  let g_phi = Array.make nnodes 0.0 in
  let active = Fempic.Fempic_sim.dirichlet ~prm mesh g_phi in
  let solver = Fempic.Fempic_sim.field_solver ~profile ~prm mesh ~active in
  (* rank-map for the direct-hop global move (paper 3.2.2): one shared
     copy, as with the MPI-RMA window per node *)
  let overlay =
    if not use_direct_hop then None
    else begin
      let ov = Opp_mesh.Overlay.of_tet_mesh mesh in
      Opp_mesh.Overlay.assign_ranks ov ~cell_rank;
      Some ov
    end
  in
  let app =
    {
      phases = phases ~overlay ~solve:(solve_field solver ~g_phi ~g_den:(Array.make nnodes 0.0));
      poison;
      canary;
      driver = [ ("g_phi", g_phi) ];
      reshaped =
        (fun part ->
          Option.iter
            (fun ov -> Opp_mesh.Overlay.assign_ranks ov ~cell_rank:part.Tet_part.cell_rank)
            overlay);
    }
  in
  let neighbours = lazy (cell_neighbours mesh) in
  let t =
    Dist_handle.create ?workers ?device ~checked ?locality ~profile ~prm ~nranks ~part ~app
      (fun ~runner ~sched ~halo ->
        {
          World.state;
          layout;
          exchanges =
            (fun p -> [ (World.Cells, p.Tet_part.cell_exch); (World.Nodes, p.Tet_part.node_exch) ]);
          cell_rank = (fun p -> p.Tet_part.cell_rank);
          build = (fun ~cell_rank ~nranks -> Tet_part.build mesh ~cell_rank ~nranks);
          mk_sim =
            (fun p r ->
              let lm = p.Tet_part.locals.(r) in
              let sim =
                Fempic.Fempic_sim.create ~prm ~runner ~profile ?locality:sched ~total_inlet_area
                  ~use_direct_hop ~solve:false ~neutral_density
                  ~collision_seed:(prm.Fempic.Params.seed + 1 + r)
                  lm.Tet_part.lm_mesh
              in
              sim.Fempic.Fempic_sim.cells.Types.s_exec_size <- lm.Tet_part.lm_cell_owned;
              sim.Fempic.Fempic_sim.nodes.Types.s_exec_size <- lm.Tet_part.lm_node_owned;
              sim);
          centroid;
          neighbours = (fun c -> Lazy.force neighbours c);
          ncells = mesh.Opp_mesh.Tet_mesh.ncells;
          nnodes;
          halo;
        })
  in
  if prefill then prefill_world t mesh;
  t

(** One distributed step; returns the particles injected on all ranks. *)
let step t =
  Dist_handle.step t;
  Array.fold_left (fun acc sim -> acc + sim.Fempic.Fempic_sim.injected) 0 t.sims

(* --- aggregated diagnostics --- *)

let total_owned_charge t =
  Array.fold_left
    (fun acc sim ->
      let d = Fempic.Fempic_sim.diagnostics sim in
      acc +. d.Fempic.Fempic_sim.total_charge)
    0.0 t.sims
