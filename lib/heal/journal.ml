(** The per-rank snapshot behind respawn recovery (docs/RESILIENCE.md,
    "Online recovery").

    A durable checkpoint ({!Opp_resil.Ckpt}) bounds how much work a
    restart loses, but respawning a dead rank {e in place} needs its
    state at the last completed step, not the last checkpoint. The
    journal closes that gap: at every step boundary it keeps each
    rank's newest checkpoint sections together with their per-section
    FNV-64 checksums, replacing the previous step's.

    Crash faults fire at the {e top} of a step, before any state
    mutates, so the newest snapshot is exactly the dead rank's
    end-of-previous-step state. {!reconstruct} verifies it and returns
    sections bit-identical to what the rank held, which is what makes
    respawned continuation exact. *)

module Ckpt = Opp_resil.Ckpt
module Codec = Opp_resil.Codec

type snapshot = { sections : Ckpt.section list; sums : int64 list }

type t = {
  mutable step : int;
  mutable ranks : snapshot array;
}

exception Corrupt = Ckpt.Corrupt

let section_sum = function
  | Ckpt.Floats (_, a) -> Codec.checksum_floats a
  | Ckpt.Ints (_, a) -> Codec.checksum_ints a
  | Ckpt.I64s (_, a) -> Codec.checksum_i64s a

let section_words = function
  | Ckpt.Floats (_, a) -> Array.length a
  | Ckpt.Ints (_, a) -> Array.length a
  | Ckpt.I64s (_, a) -> Array.length a

(** Snapshot footprint in 8-byte words (metrics): one step's sections. *)
let words t =
  Array.fold_left
    (fun acc s -> List.fold_left (fun acc sec -> acc + section_words sec) acc s.sections)
    0 t.ranks

(** Keep every rank's sections as of the end of step [step]. The lists
    are stored as given — [World.sections] hands out fresh copies — and
    the rank count may differ from the previous record's (after a
    shrink). *)
let record t ~step sections_per_rank =
  if Array.length sections_per_rank = 0 then invalid_arg "Journal.record: no ranks";
  t.step <- step;
  t.ranks <-
    Array.map
      (fun sections -> { sections; sums = List.map section_sum sections })
      sections_per_rank;
  if !Opp_obs.Metrics.enabled then
    Opp_obs.Metrics.set "heal.journal.words" (float_of_int (words t))

(** A journal holding every rank's sections at [step]. *)
let create ~step sections_per_rank =
  let t = { step; ranks = [||] } in
  record t ~step sections_per_rank;
  t

let step t = t.step

(** Rank [rank]'s sections at {!step}, bit-identical to what the rank
    held. Raises {!Corrupt} when a section no longer matches its
    recorded checksum. *)
let reconstruct t ~rank =
  if rank < 0 || rank >= Array.length t.ranks then invalid_arg "Journal.reconstruct: bad rank";
  let { sections; sums } = t.ranks.(rank) in
  List.iter2
    (fun sec sum ->
      if section_sum sec <> sum then
        raise
          (Corrupt
             (Printf.sprintf "journal: checksum mismatch in '%s' at step %d"
                (Ckpt.section_name sec) t.step)))
    sections sums;
  sections
