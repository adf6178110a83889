(** Checksums and atomic writes shared by the resilience layer:
    FNV-1a 64-bit over big-endian 64-bit words, and the checksummed
    word writes an encoder builds on. The checkpoint shard format
    itself is [Ckpt]'s. *)

(** {2 Checksums} *)

val checksum_floats : ?tag:int -> float array -> int64
(** FNV-1a over the IEEE bit patterns, optionally salted with an
    integer tag (e.g. the destination cell riding with a payload).
    Sensitive to any single-bit flip. *)

val checksum_ints : int array -> int64
val checksum_i64s : int64 array -> int64

val checksum_bytes : bytes -> len:int -> int64
(** FNV-1a over bytes [\[0, len)]: a checkpoint shard's checksum, the
    value its MANIFEST line records. *)

val fnv_offset : int64
(** The checksum of no bytes. *)

val fold_bytes : int64 -> bytes -> pos:int -> len:int -> int64
(** A checksum continued over bytes [\[pos, pos + len)]. *)

(** {2 Checksummed word writes}

    [put_* b pos h a] writes [a] into [b] from [pos] as big-endian
    64-bit words (floats as IEEE bit patterns) and returns the checksum
    [h] continued over the written bytes: one pass for both. *)

val put_floats : bytes -> int -> int64 -> float array -> int64
val put_ints : bytes -> int -> int64 -> int array -> int64
val put_i64s : bytes -> int -> int64 -> int64 array -> int64

val write_atomic : string -> (out_channel -> unit) -> unit
(** [write_atomic path f] writes via [f] into [path ^ ".tmp"] and
    renames it over [path], so a crash mid-write never leaves a torn
    file under the final name. Delegates to
    {!Opp_obs.Atomic_file.write}. *)
