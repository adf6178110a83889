(** Halo-freshness tracking: one dirty bit per dat.

    A dat on a set that carries halo copies ([s_exec_size < s_size])
    goes stale the moment a loop writes its owned elements: the halo
    copies on neighbouring ranks (and the local copies of remote
    owners) do not change. {!World.derive} keeps the bit from every
    launch's access descriptors and refreshes a dirty dat with
    {!Exch.exchange} (which marks it fresh) before a loop reads its
    halo.

    The bit lives on the dat itself ([Types.dat.d_halo_dirty]); this
    module is the one place that flips it. The sanitizer runner
    ([Opp_check.checked]) reads it independently and raises a
    structured violation (E060) when a loop reads a halo element of a
    dirty dat — the stale-halo bugs that otherwise corrupt physics
    silently. *)

open Opp_core.Types

(** Does this dat's set carry halo copies at all? *)
let has_halo (d : dat) = d.d_set.s_size > d.d_set.s_exec_size

let mark_dirty (d : dat) = if has_halo d then d.d_halo_dirty <- true
let mark_fresh (d : dat) = d.d_halo_dirty <- false
let is_dirty (d : dat) = d.d_halo_dirty
