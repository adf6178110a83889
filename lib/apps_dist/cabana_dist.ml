(** CabanaPIC over the simulated-MPI backend.

    The periodic cuboid is sliced into z-slabs (the two-stream beams
    run along z, so particles cross rank boundaries constantly — the
    multi-hop distributed mover gets exercised hard, as in the paper's
    CabanaPIC scaling runs). Each rank owns a slab plus a one-cell
    halo ring of the full 27-point stencil. Every rank runs the sim's
    own phase list; the E/B halo exchanges around the field kernels
    (the paper's Update_Ghosts) are derived from the stencil loops'
    access descriptors ({!Opp_dist.World.derive}), and this driver
    migrates mid-walk particles with their remaining displacement at
    the [Move] point, so current deposits land on the rank that owns
    each crossed cell. *)

open Opp_core
open Opp_dist

type t = {
  mutable nranks : int;
  prm : Cabana.Cabana_params.t;
  mesh : Opp_mesh.Hex_mesh.t;  (** global geometry *)
  mutable cell_rank : int array;
  mutable sims : Cabana.Cabana_sim.t array;
  release : unit -> unit;
      (** frees the runner's resources (the MPI+OpenMP hybrid's Domains
          pool, shared by the serially executed ranks) *)
  mutable tops : Cabana.Cabana_sim.topology array;
  mutable cell_g2l : (int, int) Hashtbl.t array;
  mutable cell_exch : Exch.t;
  shape : (Cabana.Cabana_sim.t, part) World.shape;
      (** declared state plus the partition/rank-sim factories (which
          capture runner/profile/locality), used by checkpointing,
          hashing and every recovery or rebalance epoch *)
  traffic : Traffic.t;
  profile : Profile.t;
  locality : Opp_locality.Sched.t option;
      (** shared sort scheduler (one instance, per-rank particle sets
          are tracked independently by physical identity) *)
  mutable step_count : int;
  mutable last_migrated : int;
  mutable watch : Dist_watch.t option;  (** live health monitor plumbing *)
}

(** A partition of the slabs: ownership, per-rank topologies and
    global -> local maps, and the cell halo exchange. *)
and part = {
  p_cell_rank : int array;
  p_tops : Cabana.Cabana_sim.topology array;
  p_g2l : (int, int) Hashtbl.t array;
  p_exch : Exch.t;
}

(* --- declared state (see [Opp_dist.World]) --- *)

(** What a rank persists, in shard order: the particle SoA (the
    migration payload: 3 offset + 3 velocity + 3 remaining
    displacement + 1 weight), E/B/J over owned and halo cells (hashed
    and regathered in that order), the current-step scratch —
    accumulator and interpolator — saved but recomputed before use
    after a reshape, and the RNG seed. CabanaPIC has no live RNG
    streams (its per-cell splitmix streams are drained at particle
    load), so the seed is meta: a restore into a sim created with a
    different seed is rejected rather than silently blending two
    initial conditions. The sequential sim declares the same state on
    a one-rank world. *)
let state (sim : Cabana.Cabana_sim.t) =
  let open Cabana.Cabana_sim in
  World.declare ~parts:sim.parts ~p2c:sim.p2c
    ~particle:
      [
        ("part_off", sim.part_off);
        ("part_vel", sim.part_vel);
        ("part_disp", sim.part_disp);
        ("part_w", sim.part_w);
      ]
    ~mesh:
      [
        ("cell_e", World.Cells, sim.cell_e);
        ("cell_b", World.Cells, sim.cell_b);
        ("cell_j", World.Cells, sim.cell_j);
      ]
    ~scratch:[ ("cell_acc", sim.cell_acc); ("cell_interp", sim.cell_interp) ]
    ~meta:[ ("seed", sim.prm.Cabana.Cabana_params.seed) ]
    ()

let layout part r =
  let tp = part.p_tops.(r) in
  {
    World.cell_g = tp.Cabana.Cabana_sim.tp_cell_gid;
    cell_owned = tp.Cabana.Cabana_sim.tp_owned;
    node_g = [||];
    node_owned = 0;
    cell_g2l = part.p_g2l.(r);
  }

let part_of t = { p_cell_rank = t.cell_rank; p_tops = t.tops; p_g2l = t.cell_g2l; p_exch = t.cell_exch }

(* Build a rank's local topology: owned slab cells first (ascending
   global id), then the halo = every stencil neighbour owned
   elsewhere. *)
let build_topology (prm : Cabana.Cabana_params.t) (mesh : Opp_mesh.Hex_mesh.t) ~cell_rank ~r =
  let ncells_g = mesh.Opp_mesh.Hex_mesh.ncells in
  let owned = ref [] in
  for c = ncells_g - 1 downto 0 do
    if cell_rank.(c) = r then owned := c :: !owned
  done;
  let owned = Array.of_list !owned in
  let halo_set = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      for s = 0 to 26 do
        let nb = mesh.Opp_mesh.Hex_mesh.cell_cell27.((27 * c) + s) in
        if cell_rank.(nb) <> r then Hashtbl.replace halo_set nb ()
      done)
    owned;
  let halo = Array.of_list (List.sort compare (Hashtbl.fold (fun c () l -> c :: l) halo_set [])) in
  let cells_g = Array.append owned halo in
  let g2l = Hashtbl.create (Array.length cells_g) in
  Array.iteri (fun l g -> Hashtbl.replace g2l g l) cells_g;
  let localize stencil arity =
    let out = Array.make (arity * Array.length cells_g) (-1) in
    Array.iteri
      (fun l g ->
        for s = 0 to arity - 1 do
          let nb = stencil.((arity * g) + s) in
          out.((arity * l) + s) <-
            (match Hashtbl.find_opt g2l nb with Some lnb -> lnb | None -> -1)
        done)
      cells_g;
    out
  in
  let dz = Cabana.Cabana_params.dz prm in
  let topology =
    {
      Cabana.Cabana_sim.tp_ncells = Array.length cells_g;
      tp_owned = Array.length owned;
      tp_c2c27 = localize mesh.Opp_mesh.Hex_mesh.cell_cell27 27;
      tp_c2c6 = localize (Opp_mesh.Hex_mesh.face_neighbours mesh) 6;
      tp_cell_gid = cells_g;
      tp_cell_z0 =
        Array.map
          (fun g ->
            let _, _, k = Opp_mesh.Hex_mesh.cell_ijk mesh g in
            float_of_int k *. dz)
          cells_g;
    }
  in
  (topology, g2l)

(* Topologies, halo links and guarded exchange for a cell ownership —
   at create and again after every reshape ([Exch.create] re-runs the
   E070–E072 link validation on the rebuilt world). *)
let build_part prm mesh ~cell_rank ~nranks =
  let tops = Array.init nranks (fun r -> build_topology prm mesh ~cell_rank ~r) in
  let cell_g2l = Array.map snd tops in
  let links =
    Array.init nranks (fun r ->
        let tp, _ = tops.(r) in
        Array.init
          (tp.Cabana.Cabana_sim.tp_ncells - tp.Cabana.Cabana_sim.tp_owned)
          (fun i ->
            let l = tp.Cabana.Cabana_sim.tp_owned + i in
            let g = tp.Cabana.Cabana_sim.tp_cell_gid.(l) in
            let owner = cell_rank.(g) in
            {
              Exch.l_local = l;
              Exch.l_owner_rank = owner;
              Exch.l_owner_index = Hashtbl.find cell_g2l.(owner) g;
            }))
  in
  {
    p_cell_rank = cell_rank;
    p_tops = Array.map fst tops;
    p_g2l = cell_g2l;
    p_exch =
      Exch.create
        ~sizes:(Array.map (fun (tp, _) -> tp.Cabana.Cabana_sim.tp_ncells) tops)
        ~nranks links;
  }

let create ?(prm = Cabana.Cabana_params.default) ?(nranks = 2) ?workers ?(checked = false)
    ?locality ?(profile = Profile.global) () =
  let mesh =
    Opp_mesh.Hex_mesh.build ~nx:prm.Cabana.Cabana_params.nx ~ny:prm.Cabana.Cabana_params.ny
      ~nz:prm.Cabana.Cabana_params.nz ~lx:prm.Cabana.Cabana_params.lx
      ~ly:prm.Cabana.Cabana_params.ly ~lz:prm.Cabana.Cabana_params.lz
  in
  let cell_rank =
    Partition.slab ~nranks ~ncells:mesh.Opp_mesh.Hex_mesh.ncells ~coord:(fun c ->
        mesh.Opp_mesh.Hex_mesh.cell_centroid.((3 * c) + 2))
  in
  let runner, sched, release = Backend.select ~profile ?locality ?workers ~checked () in
  let traffic = Traffic.create () in
  let halo = World.halo ~traffic in
  let runner = World.derive halo runner in
  let part = build_part prm mesh ~cell_rank ~nranks in
  let mk_sim part r =
    Cabana.Cabana_sim.create ~prm ~runner ~profile ?locality:sched ~topology:part.p_tops.(r) ()
  in
  let centroid c =
    [|
      mesh.Opp_mesh.Hex_mesh.cell_centroid.(3 * c);
      mesh.Opp_mesh.Hex_mesh.cell_centroid.((3 * c) + 1);
      mesh.Opp_mesh.Hex_mesh.cell_centroid.((3 * c) + 2);
    |]
  in
  (* stencil neighbours — what the re-partitioners work over *)
  let neighbours c =
    let seen = Hashtbl.create 32 in
    for s = 0 to 26 do
      let nb = mesh.Opp_mesh.Hex_mesh.cell_cell27.((27 * c) + s) in
      if nb <> c then Hashtbl.replace seen nb ()
    done;
    Hashtbl.fold (fun c' () acc -> c' :: acc) seen [] |> List.sort compare
  in
  let shape =
    {
      World.state;
      layout;
      exchanges = (fun p -> [ (World.Cells, p.p_exch) ]);
      cell_rank = (fun p -> p.p_cell_rank);
      build = build_part prm mesh;
      mk_sim;
      centroid;
      neighbours;
      ncells = mesh.Opp_mesh.Hex_mesh.ncells;
      nnodes = 0;
      halo;
    }
  in
  let sims = Array.init nranks (mk_sim part) in
  World.bind shape ~part ~sims;
  {
    nranks;
    prm;
    mesh;
    cell_rank;
    sims;
    release;
    tops = part.p_tops;
    cell_g2l = part.p_g2l;
    cell_exch = part.p_exch;
    shape;
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

(** Poison one cell of rank 0's electric field with NaN — the watch
    canary's self-test hook ([--inject-nan]). The leapfrog field
    update keeps (and spreads) the NaN on every subsequent step. *)
let poison t =
  let sim = t.sims.(0) in
  sim.Cabana.Cabana_sim.cell_e.Types.d_data.(0) <- Float.nan

(** The field dats the watch canary scans for non-finite values, on
    every rank and on the single-rank backends. *)
let canary (sim : Cabana.Cabana_sim.t) =
  Cabana.Cabana_sim.[ sim.cell_e; sim.cell_b; sim.cell_j ]

(* One rank-local phase on every rank in turn; the reduces its
   mesh-map INCs left pending run at its end. *)
let rank_phase t name f =
  Array.iteri (fun r sim -> Dist_watch.rank_scope t.watch r name (fun () -> f sim)) t.sims;
  World.sync t.shape

(** Doubles per migrant: the declared particle dats' dims summed. *)
let payload_width t = World.width (state t.sims.(0))

(* --- particle migration (mid-walk, with remaining displacement) --- *)

let move_deposit t =
  Array.iter Cabana.Cabana_sim.reset_accumulator t.sims;
  let migrated =
    World.migrate t.shape ~traffic:t.traffic ~part:(part_of t) ~sims:t.sims
      ~move:(fun r iterate ~should_stop ~on_pending ->
        Dist_watch.rank_scope t.watch r "MovePhase" (fun () ->
            ignore (Cabana.Cabana_sim.move_deposit ~should_stop ~on_pending ~iterate t.sims.(r))))
  in
  t.last_migrated <- migrated;
  migrated

(* --- resilience: checkpoint/restart, online recovery, live rebalance --- *)

let states t = World.states t.shape t.sims

(** Sharded checkpoint under [dir]; rank 0's shard carries the step. *)
let save_checkpoint ?keep t ~dir = World.save ?keep ~dir ~step:t.step_count ~driver:[] (states t)

let set_step t step =
  t.step_count <- step;
  Array.iter (fun sim -> sim.Cabana.Cabana_sim.step_count <- step) t.sims

(** Restore the newest valid checkpoint under [dir] into [t] (same
    parameters and rank count): the restored step, or [None]. A resumed
    run continues bit-for-bit. *)
let restore_checkpoint t ~dir =
  World.load ~dir ~driver:[] (states t)
  |> Option.map (fun (step, count) ->
         set_step t count;
         step)

(** One-shard checkpoint of a sequential sim (a one-rank world). *)
let save_sim ?keep (sim : Cabana.Cabana_sim.t) ~dir =
  World.save ?keep ~dir ~step:sim.Cabana.Cabana_sim.step_count ~driver:[] [| state sim |]

(** Restore a sequential sim (same parameters and seed) from [dir]:
    the restored step, or [None]. *)
let restore_sim (sim : Cabana.Cabana_sim.t) ~dir =
  World.load ~dir ~driver:[] [| state sim |]
  |> Option.map (fun (step, count) ->
         sim.Cabana.Cabana_sim.step_count <- count;
         step)

(** Every rank's checkpoint sections — what the heal snapshot keeps
    at each step boundary. *)
let sections_all t = Array.map World.sections (states t)

(** Respawn recovery ({!World.respawn}) from the rank's reconstructed
    sections. Bit-identical continuation: crashes fire at the top of a
    step, before any state mutates. *)
let respawn t ~rank sections =
  let old = World.respawn t.shape ~part:(part_of t) ~sims:t.sims ~rank sections in
  (* the replaced sim's sets died: drop their scheduler entries so the
     sort scheduler neither leaks them nor reuses a stale floor *)
  Option.iter (fun s -> Opp_locality.Sched.forget s old.Cabana.Cabana_sim.parts) t.locality;
  t.sims.(rank).Cabana.Cabana_sim.step_count <- t.step_count;
  Dist_watch.set_rank_state t.watch rank "respawned"

(* Swap in a reshaped world. *)
let install t (part, sims) =
  t.cell_rank <- part.p_cell_rank;
  t.tops <- part.p_tops;
  t.cell_g2l <- part.p_g2l;
  t.cell_exch <- part.p_exch;
  t.sims <- sims;
  set_step t t.step_count;
  t.nranks <- Array.length sims;
  (* every particle set was replaced: drop all scheduler entries so
     nothing leaks and the stale EWMA floors don't outlive the world *)
  Option.iter Opp_locality.Sched.reset t.locality

(** Shrink recovery ({!World.shrink}): degrade onto the survivors and
    return the new rank count. Not bit-identical to the clean run;
    validated by conservation and the state-hash oracle. *)
let shrink t ~dead dead_sections =
  install t
    (World.shrink t.shape ~traffic:t.traffic ~part:(part_of t) ~sims:t.sims ~dead dead_sections);
  t.watch <- Dist_watch.shrink t.watch ~dead ~step:t.step_count ~nranks:t.nranks;
  t.nranks

(** Per-global-cell particle counts — the [Particles] balance mode's
    cell weight. *)
let cell_particle_weights t = World.cell_particle_weights t.shape ~part:(part_of t) ~sims:t.sims

(** Live migration epoch ({!World.rebalance}): returns the cells that
    changed owner (0 = nothing rebuilt). {!state_hash} is bit-identical
    across it; a heal snapshot taken before it no longer fits the world. *)
let rebalance ?max_move_frac t ~weight =
  match
    World.rebalance ?max_move_frac t.shape ~traffic:t.traffic ~part:(part_of t) ~sims:t.sims
      ~weight
  with
  | None -> 0
  | Some (moved, part, sims) ->
      install t (part, sims);
      moved

(** {!World.state_hash}: invariant under any re-partition. *)
let state_hash t = World.state_hash t.shape ~part:(part_of t) ~sims:t.sims

let total_particles t = World.total_particles t.shape t.sims

(** Particle load imbalance across ranks: max/mean - 1 (two-stream
    bunching concentrates particles in some slabs). *)
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
      | Cabana.Cabana_sim.Local (name, f) -> rank_phase t name f
      | Move -> ignore (move_deposit t))
    (Cabana.Cabana_sim.phases t.sims.(0));
  t.step_count <- t.step_count + 1;
  if !Opp_obs.Metrics.enabled then begin
    Opp_obs.Metrics.set "particles" (float_of_int (total_particles t));
    Opp_obs.Metrics.set "imbalance" (particle_imbalance t)
  end;
  Dist_watch.step_done t.watch ~step:t.step_count
    ~particles:(fun r -> t.sims.(r).Cabana.Cabana_sim.parts.Types.s_size)
    ~capacity:(fun r -> t.sims.(r).Cabana.Cabana_sim.parts.Types.s_capacity)
    ~nonfinite:(fun r -> Opp_watch.Canary.nonfinite_dats (canary t.sims.(r)))
    ~dirty:(fun r ->
      let sim = t.sims.(r) in
      Dist_watch.stale_halo_frac
        [
          sim.Cabana.Cabana_sim.cell_e;
          sim.Cabana.Cabana_sim.cell_b;
          sim.Cabana.Cabana_sim.cell_j;
        ])
    ~traffic:t.traffic;
  Runner.step_end ~step:t.step_count

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

let energies t =
  Array.fold_left
    (fun (acc : Cabana.Cabana_sim.energies) sim ->
      let e = Cabana.Cabana_sim.energies sim in
      {
        Cabana.Cabana_sim.e_field = acc.Cabana.Cabana_sim.e_field +. e.Cabana.Cabana_sim.e_field;
        b_field = acc.Cabana.Cabana_sim.b_field +. e.Cabana.Cabana_sim.b_field;
        kinetic = acc.Cabana.Cabana_sim.kinetic +. e.Cabana.Cabana_sim.kinetic;
      })
    { Cabana.Cabana_sim.e_field = 0.0; b_field = 0.0; kinetic = 0.0 }
    t.sims

(** Release the hybrid backend's worker domains, if any. *)
let shutdown t = t.release ()
