(** Sequential reference backend: [par_loop] over mesh or particle
    sets and the multi-hop / direct-hop [particle_move] engine. Other
    backends wrap or re-implement these loops; this one defines the
    semantics.

    The engines only execute: they neither read the clock nor write a
    ledger. A launch is measured by [Runner] (one clock pair per
    launch, into the runner's [Profile]); calling an engine directly
    runs the loop unmeasured. *)

open Types

type iterate =
  | Iterate_all  (** every element, including halo copies *)
  | Iterate_core  (** owned elements only ([0, s_exec_size)) *)
  | Iterate_injected  (** particles appended since [reset_injected] *)

type kernel = View.t array -> unit
(** A user kernel: one view per argument, in declaration order. *)

type move_status = Move_done | Need_move | Need_remove

type move_ctx = {
  mutable cell : int;  (** current candidate cell *)
  mutable status : move_status;  (** set by the kernel before returning *)
  mutable hop : int;  (** 0 on the first call for a particle *)
}

type move_kernel = View.t array -> move_ctx -> unit

type move_result = {
  mv_moved : int;  (** particles that finished in a new or same cell *)
  mv_removed : int;  (** particles removed (left the domain) *)
  mv_sent : int;  (** particles handed to [on_pending] (rank boundary) *)
  mv_total_hops : int;
  mv_max_hops : int;
}

exception Move_diverged of string
(** A particle exceeded [max_hops] without settling. *)

exception Storage_reallocated of string
(** A kernel mutated the population of the set its loop iterates
    (injection or removal inside a loop body): the loop's views point
    at stale storage, so every write since the reallocation was lost.
    Raised by the loop engines of every backend; the sanitizer runner
    ([Opp_check]) reports it as diagnostic E080. *)

val iter_range : set -> iterate -> int * int
(** Half-open iteration range of a set under an iterate selector. *)

val resolve : Arg.t list -> Arg.resolved array
(** Resolve a launch's arguments once ({!Arg.resolve}). *)

val stale : Arg.resolved -> bool
(** The dat's storage was reallocated since it was resolved (never
    true for a global): a kernel grew the set its loop iterates. *)

val base : Arg.resolved -> int -> int
(** Base offset into the storage for iteration element [e]. *)

val make_views : Arg.resolved array -> View.t array
(** One view per argument over its resolved storage. *)

val loop_bytes : Arg.t list -> int -> float

val check_stores : name:string -> set:set -> n0:int -> Arg.resolved array -> unit
(** Raise {!Storage_reallocated} if any argument's storage moved since
    it was resolved, or the iterated set's population changed ([n0] =
    the population at loop entry). *)

val bind_views : name:string -> Arg.resolved array -> View.t array -> int -> unit
(** Point every view at iteration element [e] (a global's stays at
    0); raises {!Storage_reallocated} as soon as a dat's storage has
    moved since the launch resolved it. *)

val par_loop : name:string -> kernel -> set -> iterate -> Arg.t list -> unit
(** The [opp_par_loop] of the paper, sequential semantics. *)

val set_move_views : Arg.resolved array -> View.t array -> int -> int -> unit
(** Point a move loop's views at particle [p] in candidate cell
    [cell]: direct args follow the particle, p2c args the cell; a mesh
    map without p2c raises [Invalid_argument]. *)

type move_acc = {
  mutable acc_moved : int;
  mutable acc_removed : int;
  mutable acc_sent : int;
  mutable acc_total_hops : int;
  mutable acc_max_hops : int;
}

val make_move_acc : unit -> move_acc

val walk_one :
  name:string ->
  max_hops:int ->
  kernel:move_kernel ->
  args:Arg.resolved array ->
  views:View.t array ->
  ctx:move_ctx ->
  p2c:map ->
  dh:(int -> int) option ->
  stop_at:(int -> bool) ->
  on_pending:(p:int -> cell:int -> unit) option ->
  on_particle:(p:int -> hops:int -> unit) option ->
  dead:bool array ->
  acc:move_acc ->
  int ->
  unit
(** Walk a single particle to completion: the shared core of the
    sequential, threaded and SIMT movers. *)

val particle_move :
  ?max_hops:int ->
  ?iterate:iterate ->
  ?dh:(int -> int) ->
  ?should_stop:(int -> bool) ->
  ?on_pending:(p:int -> cell:int -> unit) ->
  ?on_particle:(p:int -> hops:int -> unit) ->
  name:string ->
  move_kernel ->
  set ->
  p2c:map ->
  Arg.t list ->
  move_result
(** The [opp_particle_move] special loop (paper section 3.1.3): the
    kernel is applied at each particle's candidate cell until it
    answers [Move_done] or [Need_remove]; [dh] turns on direct-hop;
    [should_stop]/[on_pending] suspend walks at foreign cells for the
    distributed backend; [on_particle] observes per-particle hop
    counts (the SIMT divergence model). Removed and suspended
    particles are compacted out by hole filling before returning. *)
