(** Backend-neutral distributed checkpoint/restart.

    A checkpoint is a directory [<dir>/ckpt-<step>/] holding one
    binary {e shard} per rank plus a [MANIFEST]. Shards carry named,
    typed sections (float / int / int64 arrays) — the app decides what
    state goes in; this module only guarantees integrity and
    atomicity:

    - every shard is written temp-file-then-rename;
    - the whole checkpoint is assembled in a hidden temp directory and
      committed with a single directory rename, so a crash mid-save
      can never leave a half-written [ckpt-*] directory;
    - the manifest records a whole-file FNV-64 checksum per shard,
      computed in memory as the shard is encoded, and {!load} verifies
      them — a torn or bit-flipped shard invalidates that checkpoint
      and {!load} falls back to the newest older one.

    It is the one persistence codec: [Opp_dist.World] derives every
    app's sections from its declared state, for the distributed drivers
    (one shard per rank) and the sequential runs (one shard) alike, and
    the heal journal ([Opp_heal.Journal]) keeps each rank's end-of-step
    state as the same shard bytes, decoded by the same {!decode}. *)

exception Corrupt of string

type section =
  | Floats of string * float array
  | Ints of string * int array
  | I64s of string * int64 array

let section_name = function Floats (n, _) | Ints (n, _) | I64s (n, _) -> n

let section_length = function
  | Floats (_, a) -> Array.length a
  | Ints (_, a) -> Array.length a
  | I64s (_, a) -> Array.length a

(* --- section lookup --- *)

let find sections name =
  match List.find_opt (fun s -> section_name s = name) sections with
  | Some s -> s
  | None -> raise (Corrupt (Printf.sprintf "missing section '%s'" name))

let floats sections name =
  match find sections name with
  | Floats (_, a) -> a
  | _ -> raise (Corrupt (Printf.sprintf "section '%s' is not a float section" name))

let ints sections name =
  match find sections name with
  | Ints (_, a) -> a
  | _ -> raise (Corrupt (Printf.sprintf "section '%s' is not an int section" name))

let i64s sections name =
  match find sections name with
  | I64s (_, a) -> a
  | _ -> raise (Corrupt (Printf.sprintf "section '%s' is not an int64 section" name))

(* --- shard binary format ---

   A shard is big-endian 64-bit words: the magic, the section count,
   then per section its tag (0 floats, 1 ints, 2 int64s), its name (a
   length word, then the bytes) and its values (a length word, then one
   word each, floats as IEEE bit patterns). {!encode} and {!decode} are
   the only code that knows this layout. *)

let shard_magic = 0x4F5050524553494CL (* "OPPRESIL" *)

type shard = { mutable bytes : bytes; mutable len : int; mutable sum : int64 }

let shard () = { bytes = Bytes.empty; len = 0; sum = 0L }

let encoded_size sections =
  List.fold_left
    (fun acc s -> acc + 24 + String.length (section_name s) + (8 * section_length s))
    16 sections

let encode into sections =
  let size = encoded_size sections in
  if Bytes.length into.bytes < size then into.bytes <- Bytes.create (size + (size / 8));
  let b = into.bytes in
  (* [sum] is the FNV-64 of bytes [0, summed); header words and names
     are folded in just before each section's values *)
  let pos = ref 0 and summed = ref 0 and sum = ref Codec.fnv_offset in
  let catch_up () =
    sum := Codec.fold_bytes !sum b ~pos:!summed ~len:(!pos - !summed);
    summed := !pos
  in
  let word v =
    Bytes.set_int64_be b !pos v;
    pos := !pos + 8
  in
  let int v = word (Int64.of_int v) in
  word shard_magic;
  int (List.length sections);
  List.iter
    (fun s ->
      int (match s with Floats _ -> 0 | Ints _ -> 1 | I64s _ -> 2);
      let name = section_name s in
      int (String.length name);
      Bytes.blit_string name 0 b !pos (String.length name);
      pos := !pos + String.length name;
      int (section_length s);
      catch_up ();
      (sum :=
         match s with
         | Floats (_, a) -> Codec.put_floats b !pos !sum a
         | Ints (_, a) -> Codec.put_ints b !pos !sum a
         | I64s (_, a) -> Codec.put_i64s b !pos !sum a);
      pos := !pos + (8 * section_length s);
      summed := !pos)
    sections;
  catch_up ();
  into.len <- size;
  into.sum <- !sum

let decode { bytes = b; len; sum } =
  if len < 0 || len > Bytes.length b then raise (Corrupt "bad shard length");
  if Codec.checksum_bytes b ~len <> sum then raise (Corrupt "shard checksum mismatch");
  let pos = ref 0 in
  let word () =
    if len - !pos < 8 then raise (Corrupt "truncated shard");
    let v = Bytes.get_int64_be b !pos in
    pos := !pos + 8;
    v
  in
  (* a length word: at most [max], and never more than what is left *)
  let length ~max ~unit what =
    let n = Int64.to_int (word ()) in
    if n < 0 || n > max || n > (len - !pos) / unit then
      raise (Corrupt (Printf.sprintf "bad %s length %d" what n));
    n
  in
  if word () <> shard_magic then raise (Corrupt "bad shard magic");
  (* a section is at least its three words *)
  let count = length ~max:4096 ~unit:24 "section count" in
  let sections =
    List.init count (fun _ ->
        let tag = Int64.to_int (word ()) in
        if tag < 0 || tag > 2 then raise (Corrupt (Printf.sprintf "bad section tag %d" tag));
        let nlen = length ~max:(1 lsl 20) ~unit:1 "section name" in
        let name = Bytes.sub_string b !pos nlen in
        pos := !pos + nlen;
        let n = length ~max:max_int ~unit:8 "section" in
        let p = !pos in
        pos := p + (8 * n);
        match tag with
        | 0 ->
            let a = Array.create_float n in
            for i = 0 to n - 1 do
              Array.unsafe_set a i (Int64.float_of_bits (Bytes.get_int64_be b (p + (8 * i))))
            done;
            Floats (name, a)
        | 1 -> Ints (name, Array.init n (fun i -> Int64.to_int (Bytes.get_int64_be b (p + (8 * i)))))
        | _ -> I64s (name, Array.init n (fun i -> Bytes.get_int64_be b (p + (8 * i)))))
  in
  if !pos <> len then raise (Corrupt "trailing bytes after the last section");
  sections

(* --- directory layout --- *)

let ckpt_dirname step = Printf.sprintf "ckpt-%08d" step
let shard_filename rank = Printf.sprintf "shard-%04d.bin" rank
let manifest_name = "MANIFEST"

let step_of_dirname name =
  if String.length name = 13 && String.sub name 0 5 = "ckpt-" then
    int_of_string_opt (String.sub name 5 8)
  else None

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* --- manifest --- *)

let write_manifest path ~step ~nranks ~checksums =
  Codec.write_atomic path (fun oc ->
      Printf.fprintf oc "OPPIC-RESIL-CKPT 1\nstep %d\nshards %d\n" step nranks;
      Array.iteri
        (fun r sum -> Printf.fprintf oc "%s %016Lx\n" (shard_filename r) sum)
        checksums)

let read_manifest path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let line () = try Some (input_line ic) with End_of_file -> None in
      match (line (), line (), line ()) with
      | Some header, Some step_l, Some shards_l
        when header = "OPPIC-RESIL-CKPT 1"
             && String.length step_l > 5
             && String.sub step_l 0 5 = "step "
             && String.length shards_l > 7
             && String.sub shards_l 0 7 = "shards " -> (
          match
            ( int_of_string_opt (String.sub step_l 5 (String.length step_l - 5)),
              int_of_string_opt (String.sub shards_l 7 (String.length shards_l - 7)) )
          with
          | Some step, Some nranks when nranks >= 1 && nranks <= 65536 ->
              let sums =
                List.init nranks (fun r ->
                    match line () with
                    | Some l -> (
                        match String.split_on_char ' ' l with
                        | [ name; hex ] when name = shard_filename r -> (
                            match Int64.of_string_opt ("0x" ^ hex) with
                            | Some sum -> sum
                            | None -> raise (Corrupt "bad manifest checksum"))
                        | _ -> raise (Corrupt "bad manifest shard line"))
                    | None -> raise (Corrupt "truncated manifest"))
              in
              (step, Array.of_list sums)
          | _ -> raise (Corrupt "bad manifest header values"))
      | _ -> raise (Corrupt "bad manifest header"))

(* --- save / load --- *)

(** Write one checkpoint of [shards] (one section list per rank) at
    [step] under [dir], atomically. Keeps the newest [keep]
    checkpoints (and prunes older ones, plus any abandoned temp
    directories from interrupted saves). *)
let save ?(keep = 4) ~dir ~step shards =
  let nranks = Array.length shards in
  if nranks = 0 then invalid_arg "Ckpt.save: no shards";
  mkdir_p dir;
  let final = Filename.concat dir (ckpt_dirname step) in
  let tmp = Filename.concat dir ("." ^ ckpt_dirname step ^ ".tmp") in
  rm_rf tmp;
  mkdir_p tmp;
  let buf = shard () in
  let checksums =
    Array.mapi
      (fun r sections ->
        encode buf sections;
        Codec.write_atomic (Filename.concat tmp (shard_filename r)) (fun oc ->
            output oc buf.bytes 0 buf.len);
        buf.sum)
      shards
  in
  write_manifest (Filename.concat tmp manifest_name) ~step ~nranks ~checksums;
  rm_rf final;
  Sys.rename tmp final;
  if !Opp_obs.Metrics.enabled then Opp_obs.Metrics.add "resil.checkpoints" 1.0;
  (* prune: old checkpoints beyond [keep], and stale temp dirs *)
  let entries = Sys.readdir dir in
  Array.iter
    (fun e ->
      if String.length e > 4 && e.[0] = '.' && Filename.check_suffix e ".tmp" then
        rm_rf (Filename.concat dir e))
    entries;
  let steps =
    Array.to_list entries |> List.filter_map step_of_dirname |> List.sort (fun a b -> compare b a)
  in
  List.iteri
    (fun i s -> if i >= keep then rm_rf (Filename.concat dir (ckpt_dirname s)))
    steps

(* Validate one checkpoint directory; return its shards on success. *)
let try_load_dir path =
  try
    let step, sums = read_manifest (Filename.concat path manifest_name) in
    let shards =
      Array.mapi
        (fun r expected ->
          let sp = Filename.concat path (shard_filename r) in
          if not (Sys.file_exists sp) then raise (Corrupt "missing shard");
          let bytes = Bytes.unsafe_of_string (In_channel.with_open_bin sp In_channel.input_all) in
          decode { bytes; len = Bytes.length bytes; sum = expected })
        sums
    in
    Some (step, shards)
  with Corrupt _ | Sys_error _ -> None

(** Newest valid checkpoint under [dir]: validates manifests and shard
    checksums, skipping torn or corrupted checkpoints. Returns
    [(step, shards)] or [None] when no valid checkpoint exists. *)
let load ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then None
  else
    let steps =
      Sys.readdir dir |> Array.to_list
      |> List.filter_map step_of_dirname
      |> List.sort (fun a b -> compare b a)
    in
    List.fold_left
      (fun acc s ->
        match acc with
        | Some _ -> acc
        | None -> try_load_dir (Filename.concat dir (ckpt_dirname s)))
      None steps

(** Steps of the valid checkpoints under [dir], newest first. *)
let available ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map step_of_dirname
    |> List.sort (fun a b -> compare b a)
    |> List.filter (fun s ->
           try_load_dir (Filename.concat dir (ckpt_dirname s)) <> None)
