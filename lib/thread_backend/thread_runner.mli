(** Shared-memory (OpenMP-analogue) backend on OCaml 5 domains.

    Indirect INC arguments are handled with the paper's CPU strategy —
    scatter arrays (section 3.3, Figure 2(b)) — or, alternatively,
    with greedy colouring ({!par_loop_colored}, the option the paper
    mentions and the colouring ablation prices). Indirect WRITE/RW is
    rejected as racy.

    Scatter copies are pooled and reduced over dirty ranges only (see
    docs/PERFORMANCE.md); [particle_move] uses an atomic grab-a-block
    work queue when the move carries no INC argument. Results are
    bit-identical to the seed backend for a fixed worker count. *)

open Opp_core

type t

val create :
  ?profile:Profile.t ->
  ?move_sched:[ `Dynamic | `Static ] ->
  workers:int ->
  unit ->
  t
(** [move_sched] selects the mover's work distribution for INC-free
    moves ([`Dynamic] blocks of 64 particles). When [move_sched]
    is omitted the runner picks [`Dynamic] only if [workers] does not
    oversubscribe [Domain.recommended_domain_count] — time-sliced
    domains have no imbalance for a work queue to fix. *)

val shutdown : t -> unit
val workers : t -> int

val scatter_pool : t -> Scatter_pool.t
(** The runner's scatter-buffer pool (exposed for tests/bench). *)

val par_loop :
  t ->
  name:string ->
  Seq.kernel ->
  Types.set ->
  Seq.iterate ->
  Arg.t list ->
  unit
(** Parallel loop with scatter-array race handling. *)

val particle_move :
  t ->
  name:string ->
  ?max_hops:int ->
  ?dh:(int -> int) ->
  Seq.move_kernel ->
  Types.set ->
  p2c:Types.map ->
  Arg.t list ->
  Seq.move_result
(** Parallel multi-hop/direct-hop mover; hole filling after the join. *)

val build_coloring : lo:int -> hi:int -> Arg.t list -> int array * int
(** Greedy conflict colouring of the iteration range against its
    indirect-INC targets; returns per-element colours and the colour
    count. *)

val par_loop_colored :
  t ->
  name:string ->
  Seq.kernel ->
  Types.set ->
  Seq.iterate ->
  Arg.t list ->
  unit
(** Colour-by-colour execution: direct increments, no scatter arrays,
    one parallel region per colour. *)

val runner : t -> Runner.t
(** The engines above only execute; this runner measures each launch
    into the [profile] given to {!create}. *)
