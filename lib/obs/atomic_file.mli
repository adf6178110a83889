(** Atomic file replacement: write into [path ^ ".tmp"], then rename
    over the final name, so a crash mid-write never leaves a torn file
    under the real path. This is the one temp+rename helper shared by
    the resilience layer's checkpoint shards ([Opp_resil.Codec]) and
    the watch layer's [status.json] snapshots. *)

val write : ?bin:bool -> string -> (out_channel -> unit) -> unit
(** [write path f] emits through [f] into a temp file next to [path]
    and renames it into place. [bin] (default [true]) selects binary
    mode. On any exception from [f] the temp file is removed and the
    previous content of [path] survives untouched. *)

val write_string : string -> string -> unit
(** [write_string path s] atomically replaces [path] with [s] (text
    mode). *)
