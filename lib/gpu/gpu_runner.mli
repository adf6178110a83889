(** Simulated SIMT (CUDA/HIP-analogue) backend.

    Kernels execute on the host with sequential semantics — results
    identical to the reference backend (bitwise for AT/UA, up to
    addition reordering for SR) — while a cost model charges what the
    launch would cost on the device: roofline time, launch overhead,
    per-warp atomic serialization (AT/UA) or an executed segmented
    reduction (SR), and warp divergence amplified by the device's
    sensitivity for the particle mover. Modelled seconds land in the
    runner's profile ledger. *)

open Opp_core

type atomic_mode = AT | UA | SR

val atomic_mode_to_string : atomic_mode -> string

type t = {
  device : Opp_perf.Device.t;
  mode : atomic_mode;
  work_scale : float;
      (** model multiplier: the executed problem stands for one
          [work_scale] times larger (bytes, flops, atomics scale;
          launch overhead does not) *)
  profile : Profile.t;
  exec_profile : Profile.t;
      (** host wall time of the launches, measured by {!runner} *)
  pairs : Segmented.t;
  atomic_parallelism : float;
  mutable last_divergence : float;
  mutable last_conflicts : int;
}

val create :
  ?profile:Profile.t ->
  ?mode:atomic_mode ->
  ?work_scale:float ->
  Opp_perf.Device.t ->
  t

val warp_conflicts : warp:int -> n:int -> targets:(int -> int -> int) -> int
(** Per-warp same-address conflict count; [targets w lane] gives the
    address for that lane (-1 when inactive). *)

val par_loop :
  t ->
  name:string ->
  ?flops_per_elem:float ->
  Seq.kernel ->
  Types.set ->
  Seq.iterate ->
  Arg.t list ->
  unit

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

val runner : t -> Runner.t
(** Modelled seconds go to [profile]; the packaging measures each
    launch's host wall time into [exec_profile]. *)
