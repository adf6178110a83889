(** Checksums, checksummed word writes and atomic writes shared by
    the resilience layer.

    Everything on the "wire" (simulated messages) and on disk
    (checkpoint shards, encoded by [Ckpt]) is endian-fixed: big-endian
    64-bit words, with floats as IEEE bit patterns. Checksums are
    64-bit FNV-1a folded over those words' bytes — cheap,
    deterministic, and sensitive to every single-bit corruption the
    fault injector can produce. *)

(* --- FNV-1a 64-bit --- *)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

(* One FNV-1a round over the low byte of [b]. *)
let[@inline] mix_low h b = Int64.mul (Int64.logxor h (Int64.logand b 0xffL)) fnv_prime

(* The eight bytes of [v], most significant first: the order they are
   laid out in a big-endian word. *)
let[@inline] mix_i64 h v =
  let h = mix_low h (Int64.shift_right_logical v 56) in
  let h = mix_low h (Int64.shift_right_logical v 48) in
  let h = mix_low h (Int64.shift_right_logical v 40) in
  let h = mix_low h (Int64.shift_right_logical v 32) in
  let h = mix_low h (Int64.shift_right_logical v 24) in
  let h = mix_low h (Int64.shift_right_logical v 16) in
  let h = mix_low h (Int64.shift_right_logical v 8) in
  mix_low h v

let mix_int h v = mix_i64 h (Int64.of_int v)
let mix_float h v = mix_i64 h (Int64.bits_of_float v)

(** Checksum of a float payload (optionally salted with an integer
    tag, e.g. a destination cell id travelling with the payload). *)
let checksum_floats ?(tag = 0) a =
  Array.fold_left mix_float (mix_int fnv_offset tag) a

let checksum_ints a = Array.fold_left mix_int fnv_offset a
let checksum_i64s a = Array.fold_left mix_i64 fnv_offset a

(** [h] continued over bytes [\[pos, pos + len)] of [b], a whole word
    at a time. *)
let fold_bytes h b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Codec.fold_bytes";
  let h = ref h in
  let words = len / 8 in
  for w = 0 to words - 1 do
    h := mix_i64 !h (Bytes.get_int64_be b (pos + (8 * w)))
  done;
  for i = pos + (8 * words) to pos + len - 1 do
    h := mix_low !h (Int64.of_int (Bytes.get_uint8 b i))
  done;
  !h

(** Checksum of bytes [\[0, len)] of [b] (checkpoint-shard integrity). *)
let checksum_bytes b ~len = fold_bytes fnv_offset b ~pos:0 ~len

(* --- checksummed word writes ---

   An encoder writes each value as a big-endian word and folds the
   word into its running checksum in the same pass, so the checksum
   costs no second walk over the bytes. The FNV step is inlined here,
   in the loop's own module. *)

(** [put_floats b pos h a] writes [a] as IEEE bit patterns into [b]
    from [pos] and returns [h] continued over those words. *)
let put_floats b pos h a =
  let h = ref h in
  for i = 0 to Array.length a - 1 do
    let v = Int64.bits_of_float (Array.unsafe_get a i) in
    Bytes.set_int64_be b (pos + (8 * i)) v;
    h := mix_i64 !h v
  done;
  !h

let put_ints b pos h a =
  let h = ref h in
  for i = 0 to Array.length a - 1 do
    let v = Int64.of_int (Array.unsafe_get a i) in
    Bytes.set_int64_be b (pos + (8 * i)) v;
    h := mix_i64 !h v
  done;
  !h

let put_i64s b pos h a =
  let h = ref h in
  for i = 0 to Array.length a - 1 do
    let v = Array.unsafe_get a i in
    Bytes.set_int64_be b (pos + (8 * i)) v;
    h := mix_i64 !h v
  done;
  !h

(* --- atomic file writes --- *)

(** Write [path] atomically (binary). The temp+rename mechanics live
    in [Opp_obs.Atomic_file], shared with the watch layer's
    [status.json] snapshots. *)
let write_atomic path f = Opp_obs.Atomic_file.write ~bin:true path f
