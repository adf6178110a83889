(** Segmented reduction: the GPU data-race strategy of paper section
    3.3 (Figure 3), executed for real by the SIMT simulator. The three
    phases run explicitly: store_values_and_keys ([add]), sort_by_key
    and reduce_by_key (both inside [apply]). *)

type t

val create : ?capacity:int -> unit -> t
val clear : t -> unit
val length : t -> int

val add : t -> key:int -> value:float -> unit
(** Phase 1: store a value and its target key. *)

val apply : t -> float array -> int
(** Phases 2+3: sort by key, reduce runs of equal keys, and add each
    run's total into the target at its key. Returns the number of
    distinct keys; clears the buffer. A stream already stored in
    ascending key order — what a population sorted by cell produces — is
    detected in O(n) and reduced without sorting. *)

val last_sorted : t -> bool
(** Whether the last [apply] hit the pre-sorted fast path. *)
