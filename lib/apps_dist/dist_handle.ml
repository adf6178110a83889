(** The handle both apps run on every backend: a world of rank-local
    sims stepped in SPMD lockstep over the simulated-MPI backend, with
    everything about it that does not depend on the app — the rank
    loop, persistence, recovery, rebalance, observation and the step's
    prologue and epilogue. The seq, omp and modelled GPU backends are
    one-rank worlds: as in OP2, an MPI run on one rank is the
    sequential program.

    An app ({!Fempic_dist}, {!Cabana_dist}) declares its rank state and
    partition as an {!Opp_dist.World.shape}, builds its handle with
    {!create}, and supplies in {!app} only what is really its own: the
    mapping of its sim's phase list onto the world, the NaN self-test,
    the canary dats, the driver arrays its checkpoint carries, and what
    follows a reshape. As OpenFPM's [vector_dist] serves every client
    with one [map]/[ghost_get], {!Dist_heal}, {!Dist_balance} and the
    drivers' mpi backend work on this one type. *)

open Opp_core
open Opp_dist

type ('sim, 'part, 'prm) handle = {
  mutable nranks : int;  (** shrinks when a rank is lost under --heal=shrink *)
  prm : 'prm;
  mutable part : 'part;
  mutable sims : 'sim array;
  shape : ('sim, 'part) World.shape;
      (** declared state plus the partition/rank-sim factories (which
          capture runner/profile/locality), used by checkpointing,
          hashing and every recovery or rebalance epoch *)
  release : unit -> unit;
      (** frees the runner's resources (the MPI+OpenMP hybrid's Domains
          pool, shared by the serially executed ranks) *)
  traffic : Traffic.t;
  profile : Profile.t;
  locality : Opp_locality.Sched.t option;
      (** shared sort scheduler (one instance, per-rank particle sets
          are tracked independently by physical identity) *)
  mutable step_count : int;
  mutable last_migrated : int;
  mutable watch : Dist_watch.t option;  (** live health monitor plumbing *)
  app : ('sim, 'part, 'prm) app;
}

(** What only the app knows. *)
and ('sim, 'part, 'prm) app = {
  phases : ('sim, 'part, 'prm) handle -> unit;
      (** one step's phases on every rank, between {!step}'s prologue
          and epilogue *)
  poison : ('sim, 'part, 'prm) handle -> unit;
      (** plant one NaN the watch canary must find ([--inject-nan]) *)
  canary : 'sim -> Types.dat list;  (** the field dats the watch canary scans *)
  driver : (string * float array) list;
      (** global arrays rank 0's checkpoint shard also carries *)
  reshaped : 'part -> unit;  (** a shrink or rebalance installed this partition *)
}

(** A handle over one rank sim per rank of [part]. The runner every
    rank shares is chosen here ({!Backend.select}: [device], [workers])
    and wrapped in the world's derived halo collectives
    ({!World.derive}); [shape] builds the world's declaration from that
    runner and its sort scheduler. *)
let create ?workers ?device ~checked ?locality ~profile ~prm ~nranks ~part ~app shape =
  let runner, sched, release = Backend.select ~profile ?locality ?workers ?device ~checked () in
  let traffic = Traffic.create () in
  let halo = World.halo ~traffic in
  let shape = shape ~runner:(World.derive halo runner) ~sched ~halo in
  let sims = Array.init nranks (shape.World.mk_sim part) in
  World.bind shape ~part ~sims;
  {
    nranks;
    prm;
    part;
    sims;
    shape;
    release;
    traffic;
    profile;
    locality = sched;
    step_count = 0;
    last_migrated = 0;
    watch = None;
    app;
  }

(** Attach a live health monitor; every subsequent {!step} emits
    per-rank heartbeats through it (see [Opp_watch]). *)
let set_watch t mon = t.watch <- Some (Dist_watch.create ~nranks:t.nranks mon)

let poison t = t.app.poison t

(* The particle set of rank [r]. *)
let rank_parts t r = World.parts (t.shape.World.state t.sims.(r))

(* One rank-local phase on every rank in turn; the reduces its
   mesh-map INCs left pending run at its end. *)
let rank_phase t name f =
  Array.iteri (fun r sim -> Dist_watch.rank_scope t.watch r name (fun () -> f sim)) t.sims;
  World.sync t.shape

(** Doubles per migrant: the declared particle dats' dims summed. *)
let payload_width t = World.width (t.shape.World.state t.sims.(0))

(** The phase rank 0 runs for the whole world, such as the gathered
    field solve ({!Dist_watch.root_scope}). *)
let root_phase t name f = Dist_watch.root_scope t.watch name f

(** Move every rank's particles with the app's [move], migrating and
    continuing walks until the whole fleet has settled ({!World.migrate});
    records the particles that changed rank in [last_migrated]. A
    one-rank world has no rank boundary: its sim moves on the runner's
    own engine, and the [prepass] has nothing to ship. *)
let migrate ?prepass t
    (move :
      ?should_stop:(int -> bool) ->
      ?on_pending:(p:int -> cell:int -> unit) ->
      ?iterate:Seq.iterate ->
      'sim ->
      Seq.move_result) =
  if t.nranks = 1 then begin
    Dist_watch.rank_scope t.watch 0 "Move" (fun () -> ignore (move t.sims.(0)));
    World.sync t.shape;
    t.last_migrated <- 0
  end
  else
    t.last_migrated <-
      World.migrate ?prepass t.shape ~traffic:t.traffic ~part:t.part ~sims:t.sims
        ~move:(fun r iterate ~should_stop ~on_pending ->
          Dist_watch.rank_scope t.watch r "Move" (fun () ->
              ignore (move ~should_stop ~on_pending ~iterate t.sims.(r))))

(* --- resilience: checkpoint/restart, online recovery, live rebalance --- *)

let states t = World.states t.shape t.sims

(** Sharded checkpoint under [dir]; rank 0's shard also carries the
    app's driver arrays and the step. *)
let save_checkpoint ?keep t ~dir =
  World.save ?keep ~dir ~step:t.step_count ~driver:t.app.driver (states t)

(** Restore the newest valid checkpoint under [dir] into [t] (same
    mesh, parameters and rank count): the restored step, or [None]. A
    resumed run continues bit-for-bit. *)
let restore_checkpoint t ~dir =
  World.load ~dir ~driver:t.app.driver (states t)
  |> Option.map (fun (step, count) ->
         t.step_count <- count;
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
  Option.iter
    (fun s -> Opp_locality.Sched.forget s (World.parts (t.shape.World.state old)))
    t.locality;
  Dist_watch.set_rank_state t.watch rank "respawned"

(* Swap in a reshaped world; traffic, profile and the app's global
   state survive (they are defined over the global mesh). *)
let install t (part, sims) =
  t.part <- part;
  t.sims <- sims;
  t.nranks <- Array.length sims;
  (* every particle set was replaced: drop all scheduler entries so
     nothing leaks and the stale EWMA floors don't outlive the world *)
  Option.iter Opp_locality.Sched.reset t.locality;
  t.app.reshaped part

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

(** One step: the app's phases between the prologue (armed rank faults
    fire before any state mutates, so a crashed step can be replayed
    from the last checkpoint) and the epilogue (metrics gauges, one
    heartbeat per rank, the runner's step boundary). *)
let step t =
  (match Opp_resil.Fault.active () with
  | Some inj -> Opp_resil.Fault.begin_step inj ~step:(t.step_count + 1)
  | None -> ());
  t.app.phases t;
  t.step_count <- t.step_count + 1;
  if !Opp_obs.Metrics.enabled then begin
    Opp_obs.Metrics.set "particles" (float_of_int (total_particles t));
    Opp_obs.Metrics.set "imbalance" (particle_imbalance t)
  end;
  Dist_watch.step_done t.watch ~step:t.step_count
    ~particles:(fun r -> (rank_parts t r).Types.s_size)
    ~capacity:(fun r -> (rank_parts t r).Types.s_capacity)
    ~nonfinite:(fun r -> Opp_watch.Canary.nonfinite_dats (t.app.canary t.sims.(r)))
    ~dirty:(fun r ->
      Dist_watch.stale_halo_frac (World.mesh_dats (t.shape.World.state t.sims.(r))))
    ~traffic:t.traffic;
  Runner.step_end ~step:t.step_count

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

(** Release the hybrid backend's worker domains, if any. *)
let shutdown t = t.release ()
