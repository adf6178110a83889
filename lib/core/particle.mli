(** Particle lifecycle: injection, removal with hole filling, and
    sorting by cell (paper section 3.2.2). *)

open Types

val inject : set -> int -> int
(** [inject set n] appends [n] zero-initialised particles, growing
    storage as needed; returns the index of the first one. Newly
    injected particles can be iterated with [Iterate_injected] until
    {!reset_injected}. *)

val reset_injected : set -> unit

val remove_flagged : set -> bool array -> int
(** Remove the particles flagged in the array (length >= size) by
    filling holes from the tail — the paper's hole-filling compaction.
    Returns the number removed. Survivor order is not preserved. The
    injected window is clamped to the surviving tail suffix, so every
    slot [Iterate_injected] visits afterwards still holds a particle
    of the injected batch (exact when all removals fell inside the
    window, conservative otherwise). *)

val resize : set -> int -> unit
(** Resize the population to exactly [n] slots, preserving survivor
    order (grow = zero-injection, shrink = tail truncation); clears
    the injected window. For checkpoint restore. *)

val sort_by_cell : set -> p2c:map -> unit
(** Permute all particle storage into ascending cell order (the
    auxiliary sort API; used for GPU locality and the sort
    ablations). Stable: ties are broken by original slot
    index, so intra-cell order — and non-associative INC accumulation
    order — is reproducible. Resets the injected window. *)

val per_cell_counts : set -> p2c:map -> int array
(** Particles currently residing in each cell. *)

val move_slot : set -> src:int -> dst:int -> unit
(** Copy one particle's data across every dat and map of the set
    (building block of compaction; exposed for the backends). Allocates
    nothing. *)
