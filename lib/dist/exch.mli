(** Halo exchange links: the simulated counterpart of OP2/OP-PIC's MPI
    halo lists. A link ties a halo copy on one rank to its owning
    element on another; [exchange] refreshes copies from owners,
    [reduce] pushes halo contributions back and zeroes the copies.
    Both count the bytes and neighbour messages a real MPI run would
    issue.

    Each halo-holding rank receives one message per owner rank,
    applied in canonical order. When a fault schedule is installed
    ([Opp_resil.Fault.install]) a rank's messages are one guarded
    {!Envelope.round}: drops, corruption, duplicates, reorders, and
    stale replays are detected and healed with bounded retransmission,
    and the recovered result is bit-for-bit the fault-free one
    (docs/RESILIENCE.md). *)

type link = {
  l_local : int;  (** halo element's local index on the halo-holding rank *)
  l_owner_rank : int;
  l_owner_index : int;  (** element's local index on its owner *)
}

type t

exception Invalid_links of string
(** Raised by {!create} on a structurally invalid link, with a
    diagnostic code in the message: [E070] owner rank out of range,
    [E071] a halo element that names its own rank as owner, [E072] a
    local or owner index outside the set (see docs/ANALYSIS.md). *)

val create : ?sizes:int array -> nranks:int -> link array array -> t
(** One link array per rank (its halo elements). Validates every link
    at construction — raising {!Invalid_links} on a bad one — and, when
    [sizes] gives the per-rank element count of the exchanged set,
    bounds-checks both link endpoints against it. *)

val count_messages : t -> int
(** Neighbour messages per collective: one per (halo-holder, owner)
    pair with at least one link. *)

val fence : ?stride:int -> t -> unit
(** Epoch-fence the exchange after a rank failure: bump the epoch far
    past anything in flight so stragglers from the dead epoch are
    rejected as stale instead of applied to recovered state. Counts
    [heal.fences] (opp_heal, docs/RESILIENCE.md "Online recovery"). *)

val adopt_wire_state : from:t -> t -> unit
(** Carry a pre-recovery exchange's wire state (sequence counter,
    epoch) into its rebuilt replacement so the deterministic fault
    schedule keeps advancing across a heal. *)

val exchange :
  ?traffic:Traffic.t ->
  ?dats:Opp_core.Types.dat array ->
  t ->
  dim:int ->
  data:(int -> float array) ->
  unit
(** Refresh halo copies from their owners. [data rank] is that rank's
    local storage of the exchanged dat ([dim] doubles per element).
    [dats] names the per-rank dat records being refreshed so their
    halo-freshness bit is cleared (see {!Freshness}). *)

val reduce : ?traffic:Traffic.t -> t -> dim:int -> data:(int -> float array) -> unit
(** Add halo contributions into the owners and clear the halo copies
    (after indirect-INC loops). *)
