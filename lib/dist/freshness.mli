(** Halo-freshness tracking: one dirty bit per dat, set when owned
    elements are written, cleared when the halo copies are refreshed
    ({!Exch.exchange} with [~dats]) or recomputed locally. Kept by
    {!World.derive}; read by the sanitizer runner
    ([Opp_check.checked]) to flag stale-halo reads. *)

val has_halo : Opp_core.Types.dat -> bool
(** The dat's set carries halo copies ([s_exec_size < s_size]). *)

val mark_dirty : Opp_core.Types.dat -> unit
(** Record a write to the dat; no-op on sets without halo copies. *)

val mark_fresh : Opp_core.Types.dat -> unit
(** Record that the halo copies match the owners again. *)

val is_dirty : Opp_core.Types.dat -> bool
