(** Declared distributed state: one core for checkpoint sections and
    their validated restore, the order-canonical state hash, particle
    migration, load statistics, and the reshape epoch behind both
    shrink recovery and live rebalance. An app declares what each
    rank-local sim persists ({!declare}) and how its partition is built
    ({!shape}); everything here is derived from that declaration. *)

open Opp_core.Types

type mesh_set = Cells | Nodes

(** Per-entity state keyed by a global id (FEM-PIC's per-inlet-face
    injection carry and RNG stream): one section, moved by key. *)
type extra =
  | Float_extra of { name : string; keys : int array; data : float array }
  | I64_extra of {
      name : string;
      keys : int array;
      get : int -> int64;
      set : int -> int64 -> unit;
    }

type state
(** One rank-local sim's declared persistent state. *)

val declare :
  parts:set ->
  p2c:map ->
  particle:(string * dat) list ->
  mesh:(string * mesh_set * dat) list ->
  ?scratch:(string * dat) list ->
  ?extras:extra list ->
  ?meta:(string * int) list ->
  unit ->
  state
(** [particle]: the dats a migrant carries, in payload order. [mesh]:
    dats owned by global element id — hashed and regathered in this
    order. [scratch]: saved and restored but not regathered. [meta]:
    ints a restore must match. Names and this order (meta, particle,
    p2c, mesh, scratch, extras) define the shard format. *)

val width : state -> int
(** Payload doubles per migrant: the particle dats' dims summed. *)

val parts : state -> set
(** The particle set. *)

val mesh_dats : state -> dat list
(** The [mesh] dats, in declaration order. *)

(** One rank's slice of the partition: local -> global ids, owned
    elements first. *)
type layout = {
  cell_g : int array;
  cell_owned : int;
  node_g : int array;
  node_owned : int;
  cell_g2l : (int, int) Hashtbl.t;
}

type halo
(** The halo state of a world: the bound ranks' declared dats, the
    exchange for each mesh set, and the reduces pending until the end
    of the current phase. *)

val halo : traffic:Traffic.t -> halo
(** An unbound halo; its collectives count into [traffic]. *)

(** How an app's world is declared and rebuilt. *)
type ('sim, 'part) shape = {
  state : 'sim -> state;
  layout : 'part -> int -> layout;
  exchanges : 'part -> (mesh_set * Exch.t) list;
      (** the halo exchange of each mesh set with halo copies *)
  cell_rank : 'part -> int array;
  build : cell_rank:int array -> nranks:int -> 'part;  (** partition for an ownership *)
  mk_sim : 'part -> int -> 'sim;  (** a fresh rank sim on a partition *)
  centroid : int -> float array;
  neighbours : int -> int list;
  ncells : int;  (** global mesh sizes *)
  nnodes : int;
  halo : halo;
}

val states : ('sim, 'part) shape -> 'sim array -> state array

(** {1 Persistence} *)

val sections : state -> Opp_resil.Ckpt.section list
(** One rank's checkpoint / heal-snapshot sections, freshly copied. *)

val restore : state -> Opp_resil.Ckpt.section list -> unit
(** Validate every section's kind and length, the particle count, each
    [p2c] entry and the meta ints — raising [Ckpt.Corrupt] and touching
    nothing on a mismatch — then restore. Field dats come back dirty:
    a snapshot taken at a step boundary may hold stale halos, so the
    next halo read re-exchanges them. *)

val save :
  ?keep:int -> dir:string -> step:int -> driver:(string * float array) list -> state array -> unit
(** One shard per rank; rank 0's also carries the driver's arrays and
    its step counter. *)

val load : dir:string -> driver:(string * float array) list -> state array -> (int * int) option
(** Restore the newest valid checkpoint into the same world shape and
    the driver's arrays: [Some (checkpoint step, driver step counter)]. *)

(** {1 Derived halo collectives}

    The runner every rank of a world shares is wrapped once with
    {!derive}; once the world is bound ({!bind}), each launch (par_loop, fused group,
    particle move) keeps the halos itself, from its arguments' access
    descriptors and each dat's dirty bit ({!Freshness}):
    - before the launch, an argument that reads through a halo — any
      access through a mesh map, or a direct read under [Iterate_all]
      on a set with halo copies — exchanges its dat on every rank if it
      is dirty on any rank. Access through [p2c] alone reads an owned
      cell. A dirty halo read of a dat the world does not declare
      raises [Invalid_argument] naming the loop and the dat;
    - after the launch, a direct write under [Iterate_all] leaves the
      dat fresh (every copy was recomputed from fresh inputs), any
      other write leaves it dirty, and an INC through a mesh map is
      reduced to the owners at the end of the phase ({!sync}), leaving
      the dat dirty.

    Ranks step in serial lockstep, so every collective runs for all
    ranks at once. Host code that rewrites halo copies itself (the
    fempic gather-solve-scatter) marks them fresh itself. *)

val derive : halo -> Opp_core.Runner.t -> Opp_core.Runner.t
(** The world's runner: [r] with the derivation around every launch.
    Build the rank sims with it, then {!bind} the world's [shape],
    whose [halo] is this one. *)

val bind : ('sim, 'part) shape -> part:'part -> sims:'sim array -> unit
(** Point the derivation at a world's ranks; {!respawn}, {!shrink} and
    {!rebalance} rebind by themselves. *)

val sync : ('sim, 'part) shape -> unit
(** End of a phase: reduce what the phase's mesh-map INCs left pending. *)

(** {1 Migration and observation} *)

val payload : state -> int -> float array
(** Particle [p]'s declared dats packed into a fresh payload row. *)

val migrate :
  ?prepass:(Mailbox.t -> unit) ->
  ('sim, 'part) shape ->
  traffic:Traffic.t ->
  part:'part ->
  sims:'sim array ->
  move:
    (int ->
    Opp_core.Seq.iterate ->
    should_stop:(int -> bool) ->
    on_pending:(p:int -> cell:int -> unit) ->
    unit) ->
  int
(** The distributed particle move: deliver what [prepass] posts, run
    [move] on every rank (it stops at unowned cells and posts the
    pending particle to the owner), then deliver and continue walks on
    the receiving ranks until the mailbox drains, and {!sync}. Returns
    the particles that changed rank. *)

val state_hash : ('sim, 'part) shape -> part:'part -> sims:'sim array -> int64
(** Order-canonical FNV-64 hash of the global owned state: mesh dats in
    global element order, then the particles as a sorted multiset of
    (global cell, payload) rows — invariant under any re-partition. *)

val cell_particle_weights : ('sim, 'part) shape -> part:'part -> sims:'sim array -> float array
val total_particles : ('sim, 'part) shape -> 'sim array -> int

val particle_imbalance : ('sim, 'part) shape -> 'sim array -> float
(** max/mean - 1 over the ranks' particle counts. *)

(** {1 Epochs} *)

val respawn :
  ('sim, 'part) shape -> part:'part -> sims:'sim array -> rank:int -> Opp_resil.Ckpt.section list -> 'sim
(** Rebuild [rank]'s sim from its reconstructed sections (validated
    before it replaces the live one) and fence the exchanges. Returns
    the replaced sim. *)

val shrink :
  ('sim, 'part) shape ->
  traffic:Traffic.t ->
  part:'part ->
  sims:'sim array ->
  dead:int ->
  Opp_resil.Ckpt.section list ->
  'part * 'sim array
(** Re-bisect the dead rank's cells among adjacent survivors, compact
    the rank numbering, and reshape; the dead rank's state comes from
    its sections. *)

val rebalance :
  ?max_move_frac:float ->
  ('sim, 'part) shape ->
  traffic:Traffic.t ->
  part:'part ->
  sims:'sim array ->
  weight:(int -> float) ->
  (int * 'part * 'sim array) option
(** Weighted diffusive re-partition onto the same rank count; [None]
    when no cell changes owner, else the cells moved and the new world.

    Both epochs are one reshape: fence the old exchanges, rebuild the
    partition (adopting their wire state), regather mesh dats by global
    id onto every new owned and halo slot and mark them fresh, move
    extras by key, re-localise kept particles in place, and reroute the
    rest through the mailbox delivery-deadline path. *)
