(** Deterministic fault injector for the simulated-MPI substrate.

    Parse a schedule from a spec string (grammar in
    docs/RESILIENCE.md), {!install} it process-wide, and the
    communication modules ([Opp_dist.Exch], [Opp_dist.Mailbox]) inject
    message faults while their detection/recovery envelopes heal them;
    the distributed drivers fire rank crashes/stalls via
    {!begin_step}. Every decision is a pure hash of (seed, channel,
    sequence number, attempt), so a schedule replays identically. *)

type chan = Halo | Migrate
type kind = Drop | Corrupt | Dup | Reorder | Delay | Stale

type t

exception Rank_crash of { rank : int; step : int }

val create :
  ?seed:int ->
  ?max_attempts:int ->
  ?link_budget:int ->
  ?crash:int * int ->
  ?stall:int * int ->
  (kind * chan option * float) list ->
  t
(** Build a schedule directly (tests); [None] channel means any.
    [link_budget] caps retransmissions per (channel, link) per step
    (unbounded by default). *)

val parse : string -> (t, string) result
(** Parse a spec such as
    ["seed=42,drop=halo:0.05,corrupt=migrate:0.02,crash=1@7"]. *)

val fires : t -> kind -> chan -> seq:int -> attempt:int -> bool
(** Does [kind] fire for message [seq], delivery [attempt]? Pure and
    reproducible. *)

val corrupt_bit : t -> chan -> seq:int -> attempt:int -> nbits:int -> int
(** Which payload bit a [Corrupt] fault flips. *)

val rate : t -> kind -> chan -> float
val max_attempts : t -> int

val jitter : t -> chan:chan -> key:int -> attempt:int -> float
(** Seeded backoff jitter in [0,1): a pure decision like {!fires}, so
    identical schedules accrue identical backoff. *)

(** {2 Per-link retry budgets} *)

val take_retry_token : t -> chan:chan -> link:(int * int) option -> bool
(** Charge one retransmission on a (src, dst) link for this step;
    [false] when the link's budget is exhausted ([link_budget=N] in
    the spec). [None] links are never charged. Budgets reset at every
    {!begin_step}. *)

val link_budget : t -> int
val link_budget_used : t -> chan:chan -> link:int * int -> int

val begin_step : t -> step:int -> unit
(** Fire armed rank faults for [step]: stalls are recorded, crashes
    raise {!Rank_crash}. Both are one-shot. *)


(** {2 Stats} — counters mirrored into [opp_obs] metrics as
    [resil.<name>] when metrics are enabled. *)

val count : ?n:int -> t -> string -> unit
val stat : t -> string -> int
val stats : t -> (string * int) list

(** {2 Process-wide installation} *)

val install : t -> unit
val uninstall : unit -> unit
val active : unit -> t option

val pp : Format.formatter -> t -> unit
