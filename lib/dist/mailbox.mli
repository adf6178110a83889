(** Particle migration buffers: the pack/send/unpack path of the
    paper's distributed particle move (section 3.2.2). One message per
    (src, dst) rank pair: a flat float buffer with one row per migrant,
    its destination global cell, then its declared particle dats. *)

type t

val create : ?wire_seq:int -> nranks:int -> width:int -> unit -> t
(** [width] doubles of particle data travel with each migrant; the
    first guarded message carries sequence number [wire_seq]
    (default 0). *)

val wire_seq : t -> int
(** The sequence number of the next guarded message. *)

val total : t -> int
(** Particles currently posted and undelivered. *)

val post : t -> src:int -> dest:int -> cell:int -> Opp_core.Types.dat array -> int -> unit
(** [post t ~src ~dest ~cell dats p] writes particle [p]'s row into the
    (src, dest) buffer: [cell], then [p]'s values of each of [dats], in
    order; their dims must sum to the width. *)

val mark_dead : t -> int -> unit
(** Mark a destination rank dead: its pending and future batches miss
    the delivery deadline and are rerouted (or dead-lettered) by the
    next {!deliver} instead of waiting forever. *)

val is_dead : t -> int -> bool

type batch
(** One destination rank's delivered rows. *)

val length : batch -> int

val iter : batch -> (float array -> int -> unit) -> unit
(** [iter b f] calls [f buf off] per row in delivery order: [buf.(off)]
    is the destination global cell, the payload follows. [buf] is only
    valid during the call. *)

val deliver :
  ?traffic:Traffic.t -> ?reroute:(cell:int -> int) -> t -> (int -> batch -> unit) -> int
(** Hand each destination rank its batch, count the traffic, clear the
    mailbox; returns how many particles moved rank. A rank's batch
    holds its own migrants by source rank ascending, each source's in
    posting order, then those rerouted to it, likewise.

    Under an installed fault schedule each destination's messages are
    one {!Envelope.round}: one envelope per (src, dst) pair, its
    checksum over every row, cells included. A migrant carrying a
    non-finite value is quarantined before its message is sent, and
    every migrant of a message whose retries run out is quarantined
    with it: excluded from the batch and the return count and counted
    per migrant in the [quarantined] stat (the messaging analogue of
    NEED_REMOVE).

    Migrants addressed to a rank marked dead are forwarded to
    [reroute ~cell], their recovery owner ([migrate.rerouted]), or
    without [reroute] dropped ([migrate.dead_letter]). *)
