(** Backend-neutral distributed checkpoint/restart: per-rank binary
    shards of named, typed sections under [<dir>/ckpt-<step>/], with a
    checksummed manifest, temp-file+rename shard writes, and a single
    atomic directory-rename commit. [load] verifies every checksum and
    falls back to the newest older checkpoint when one is torn.

    {!encode} and {!decode} are the only shard (de)serialiser: the heal
    journal keeps each rank's state as the bytes a checkpoint would
    write for it. *)

exception Corrupt of string

type section =
  | Floats of string * float array
  | Ints of string * int array
  | I64s of string * int64 array

val section_name : section -> string

val section_length : section -> int
(** Number of values (each one 8-byte word in a shard). *)

val find : section list -> string -> section
val floats : section list -> string -> float array
val ints : section list -> string -> int array
val i64s : section list -> string -> int64 array
(** Typed lookup; raise {!Corrupt} on a missing or mistyped section. *)

(** {1 Shards} *)

type shard = { mutable bytes : bytes; mutable len : int; mutable sum : int64 }
(** One encoded shard: bytes [\[0, len)] of [bytes], and their FNV-64
    [sum] (the value a MANIFEST line records). [bytes] may be longer
    than [len]: {!encode} reuses it across calls. *)

val shard : unit -> shard
(** An empty shard, to {!encode} into. *)

val encode : shard -> section list -> unit
(** Encode [sections] into the shard, growing its buffer only when it
    is too small, and checksum the bytes in the same pass. *)

val decode : shard -> section list
(** Verify [sum] against the bytes, then parse them with every bound
    checked. Raises {!Corrupt} on any mismatch or malformed input. *)

(** {1 Checkpoints} *)

val save : ?keep:int -> dir:string -> step:int -> section list array -> unit
(** Atomically write one checkpoint (one section list per rank);
    prunes checkpoints beyond the newest [keep] (default 4) and
    abandoned temp directories. *)

val load : dir:string -> (int * section list array) option
(** Newest checkpoint whose manifest and shard checksums all verify,
    as [(step, shards)]; [None] if no valid checkpoint exists. *)

val available : dir:string -> int list
(** Steps of the valid checkpoints under [dir], newest first. *)
