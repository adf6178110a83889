(** The shared detection/recovery envelope for guarded message
    transmission: sequence numbers, epoch tags, and payload checksums
    over the installed fault injector (docs/RESILIENCE.md). {!round}
    is the one guarded round: {!Exch} runs its halo exchanges and
    reduces through it, {!Mailbox} its migration messages. *)

val round :
  Opp_resil.Fault.t ->
  chan:Opp_resil.Fault.chan ->
  what:string ->
  seq:int ->
  ?epoch:int ->
  ((int * int) * float array) list ->
  (float array, string) result list
(** One round of messages to one receiver, each [((src, dst), payload)]
    in canonical order; message [i] carries sequence number [seq + i].
    Each is pushed through the injector until the receiver validates
    it, healing drops, corruption and (with [epoch]) stale replays by
    bounded retransmission charged to its (src, dst) link's per-step
    budget. Then the duplicate roll and the round's arrival order
    (reorders, delays, duplicate copies) are simulated and counted,
    and the validated payloads come back in canonical order, whatever
    order they arrived in. [Error why] is a message whose retries ran
    out ([why] is the [Opp_resil.Retry.Exhausted] reason); it takes no
    part in the arrival order. *)

val flip_bit : float array -> int -> unit
(** Flip one bit of a payload's IEEE representation (test helper). *)
