(** Backend dispatch.

    An application declares its solver once against this interface; a
    runner binds the loops to a parallelization (sequential reference,
    Domains threads, simulated SIMT device, simulated-MPI rank) — the
    paper's separation of the science source from its parallel
    implementation.

    This is also the only place a loop launch is timed. Each launch
    reads the monotonic clock once when it starts and once when it
    returns ({!Profile.measure}); that pair becomes the launch's entry
    in the runner's ledger ([r_profile]: calls, elems, seconds, flops,
    bytes) and, when tracing is on, its span (cat ["par_loop"] or
    ["particle_move"]) carrying the same elems/flops/bytes. Kernel
    seconds therefore include the launch overhead of the engine
    (argument validation, view setup, scatter reduction). A launch
    that raises records nothing in the ledger; its span is unwound. *)

type t = {
  r_name : string;
  r_par_loop :
    string -> float -> Seq.kernel -> Types.set -> Seq.iterate -> Arg.t list -> unit;
  r_particle_move :
    string ->
    float ->
    (int -> int) option ->
    Seq.move_kernel ->
    Types.set ->
    Types.map ->
    Arg.t list ->
    Seq.move_result;
  r_profile : Profile.t;
      (** the ledger this runner's launches record into *)
  r_around : 'a. string -> Seq.iterate -> Arg.t list -> (unit -> 'a) -> 'a;
      (** runs around every launch, outside its measurement:
          [r_around name iterate args launch]. {!direct} everywhere
          except on a distributed world's runner, which derives its halo
          collectives and dirty bits here ([Opp_dist.World.derive]). *)
}

val direct : string -> Seq.iterate -> Arg.t list -> (unit -> 'a) -> 'a
(** The [r_around] of a runner with no halos: just launch. *)

val par_loop :
  t ->
  name:string ->
  ?flops_per_elem:float ->
  Seq.kernel ->
  Types.set ->
  Seq.iterate ->
  Arg.t list ->
  unit
(** Execute a parallel loop under this runner. *)

val particle_move :
  t ->
  name:string ->
  ?flops_per_elem:float ->
  ?dh:(int -> int) ->
  Seq.move_kernel ->
  Types.set ->
  p2c:Types.map ->
  Arg.t list ->
  Seq.move_result
(** Execute a particle move; [dh] supplies a direct-hop locator. The
    ledger's [elems] counts particles walked ([mv_moved + mv_removed +
    mv_sent]); flops and bytes are charged per hop, and the span
    carries the hop count as its [hops] arg. *)

val traced_move :
  t ->
  name:string ->
  ?flops_per_elem:float ->
  ?args:Arg.t list ->
  (unit -> Seq.move_result) ->
  Seq.move_result
(** The measurement and move metrics of {!particle_move}, around any
    move thunk, recorded into the given runner's ledger. Call sites
    that route around the runner's engine (distributed movers passing
    [should_stop]/[on_pending] straight to {!Seq.particle_move}) wrap
    their launch in this to stay measured. Pass the move's
    [flops_per_elem] (per hop) and arg list so the entry and span carry
    flops/bytes for roofline analysis; both default to zero-cost. *)

val seq : ?profile:Profile.t -> unit -> t
(** The sequential reference runner. *)

(** {2 Step boundaries}

    The runner only sees loop launches; the step structure of a run is
    announced from outside. Every sim step function (and the
    distributed drivers) calls {!step_end} when a step completes;
    subscribers — the [opp_watch] live health monitor first of all —
    register with {!on_step_end}. *)

val on_step_end : (step:int -> unit) -> unit
(** Register a hook fired at every step boundary. *)

val clear_step_hooks : unit -> unit
val step_end : step:int -> unit
