(** Per-kernel instrumentation ledger.

    Every loop launch records wall (or modelled) time, iteration
    count, and the estimated double-precision flops and bytes it moved;
    the roofline and runtime-breakdown reports of [Opp_perf] are
    generated from these records.

    Wall time is measured at three seams only, each with one pair of
    monotonic clock reads ({!measure}): a loop launch ([Runner]), a
    host phase ({!timed}) and a distributed rank phase
    ([Dist_watch.rank_scope]). The ledger entry, the trace span and
    the heartbeat phase times of a region all come from that one
    pair. *)

type entry = {
  mutable calls : int;
  mutable elems : int;
  mutable seconds : float;
  mutable flops : float;
  mutable bytes : float;
}

type t

val create : unit -> t

val global : t
(** The default ledger; runners record here unless given another. *)

val record :
  ?t:t -> name:string -> elems:int -> seconds:float -> flops:float -> bytes:float -> unit -> unit
(** Accumulate one execution of kernel [name]. *)

val measure :
  cat:string ->
  name:string ->
  ?on_exn:(float -> unit) ->
  (unit -> 'a) ->
  ('a -> float -> (string * float) list) ->
  'a
(** [measure ~cat ~name f k] reads the monotonic clock once before
    [f] and once after it, and reports that one duration everywhere.
    On return, [k result seconds] writes whatever ledger the caller
    keeps and returns the span args; when tracing is on the same clock
    pair opens and closes an [Opp_obs.Trace] span [name] of category
    [cat], so the span's duration equals [seconds]. On a raise,
    [on_exn seconds] runs (default: nothing), the trace is unwound to
    its depth at entry and the exception propagates. *)

val timed : ?t:t -> name:string -> ?elems:int -> ?flops:float -> ?bytes:float -> (unit -> 'a) -> 'a
(** Run a thunk as one {!measure} of category ["host"] recorded into
    the ledger (host-side phases such as the field solver that are not
    expressed as loops). A raising thunk is recorded too. *)

val reset : ?t:t -> unit -> unit

val entries : ?t:t -> unit -> (string * entry) list
(** Entries in first-recorded order. *)

val merge : into:t -> t -> unit
(** Fold a ledger into [into], summing entries that share a kernel
    name (combining per-rank ledgers into one report). *)

val total_seconds : ?t:t -> unit -> float

val intensity : entry -> float option
(** Arithmetic intensity (flop/byte), when traffic was recorded. *)

val pp : Format.formatter -> ?t:t -> unit -> unit
(** Table of kernels with calls, elements, seconds, achieved GF/s and
    GB/s, and arithmetic intensity (flop/byte; [-] when no traffic was
    recorded). *)
