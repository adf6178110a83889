(** Binary encoding and checksums shared by the resilience layer.

    Everything on the "wire" (simulated messages) and on disk
    (checkpoint shards) is endian-fixed: big-endian 64-bit words, with
    floats as IEEE bit patterns. Checksums are 64-bit FNV-1a folded
    over those words — cheap, deterministic, and sensitive to every
    single-bit corruption the fault injector can produce. *)

(* --- FNV-1a 64-bit --- *)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let mix_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let mix_i64 h v =
  let h = ref h in
  for byte = 7 downto 0 do
    h := mix_byte !h (Int64.to_int (Int64.shift_right_logical v (byte * 8)))
  done;
  !h

let mix_int h v = mix_i64 h (Int64.of_int v)
let mix_float h v = mix_i64 h (Int64.bits_of_float v)

(** Checksum of a float payload (optionally salted with an integer
    tag, e.g. a destination cell id travelling with the payload). *)
let checksum_floats ?(tag = 0) a =
  Array.fold_left mix_float (mix_int fnv_offset tag) a

let checksum_ints a = Array.fold_left mix_int fnv_offset a
let checksum_i64s a = Array.fold_left mix_i64 fnv_offset a

(** Checksum of a slice [off, off+len) of [a]. *)
let checksum_slice a ~off ~len =
  let h = ref fnv_offset in
  for i = off to off + len - 1 do
    h := mix_float !h a.(i)
  done;
  !h

(** Checksum of raw file bytes (checkpoint-shard integrity). *)
let checksum_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let h = ref fnv_offset in
      (try
         while true do
           h := mix_byte !h (input_byte ic)
         done
       with End_of_file -> ());
      !h)

(* --- big-endian channel IO --- *)

exception Corrupt of string

let write_i64 oc v =
  for byte = 7 downto 0 do
    output_byte oc (Int64.to_int (Int64.shift_right_logical v (byte * 8)) land 0xff)
  done

let rec read_i64_aux ic acc = function
  | 0 -> acc
  | k ->
      read_i64_aux ic
        (Int64.logor (Int64.shift_left acc 8) (Int64.of_int (input_byte ic)))
        (k - 1)

let read_i64 ic =
  try read_i64_aux ic 0L 8 with End_of_file -> raise (Corrupt "truncated file")

let write_int oc v = write_i64 oc (Int64.of_int v)
let read_int ic = Int64.to_int (read_i64 ic)
let write_float oc v = write_i64 oc (Int64.bits_of_float v)
let read_float ic = Int64.float_of_bits (read_i64 ic)

(* Array length guard: 2^40 elements is far beyond anything the
   simulations allocate, so a larger value means a torn/garbled file. *)
let check_len n = if n < 0 || n > 1 lsl 40 then raise (Corrupt "bad array length")

let write_floats oc a =
  write_int oc (Array.length a);
  Array.iter (write_float oc) a

let read_floats ic =
  let n = read_int ic in
  check_len n;
  Array.init n (fun _ -> read_float ic)

let write_ints oc a =
  write_int oc (Array.length a);
  Array.iter (write_int oc) a

let read_ints ic =
  let n = read_int ic in
  check_len n;
  Array.init n (fun _ -> read_int ic)

let write_i64s oc a =
  write_int oc (Array.length a);
  Array.iter (write_i64 oc) a

let read_i64s ic =
  let n = read_int ic in
  check_len n;
  Array.init n (fun _ -> read_i64 ic)

let write_string oc s =
  write_int oc (String.length s);
  output_string oc s

let read_string ic =
  let n = read_int ic in
  if n < 0 || n > 1 lsl 20 then raise (Corrupt "bad string length");
  really_input_string ic n

(* --- atomic file writes --- *)

(** Write [path] atomically (binary). The temp+rename mechanics live
    in [Opp_obs.Atomic_file], shared with the watch layer's
    [status.json] snapshots. *)
let write_atomic path f = Opp_obs.Atomic_file.write ~bin:true path f
