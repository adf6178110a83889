(** The per-rank snapshot behind respawn recovery (docs/RESILIENCE.md,
    "Online recovery").

    A durable checkpoint ({!Opp_resil.Ckpt}) bounds how much work a
    restart loses, but respawning a dead rank {e in place} needs its
    state at the last completed step, not the last checkpoint. The
    journal closes that gap: at every step boundary it encodes each
    rank's checkpoint sections into that rank's shard buffer — the
    bytes and whole-shard FNV-64 a checkpoint would write for it —
    replacing the previous step's. The buffers are reused across steps.

    Crash faults fire at the {e top} of a step, before any state
    mutates, so the newest snapshot is exactly the dead rank's
    end-of-previous-step state. {!reconstruct} verifies and decodes it
    with {!Opp_resil.Ckpt.decode}, the restart path's decoder, and
    returns sections bit-identical to what the rank held, which is what
    makes respawned continuation exact. *)

module Ckpt = Opp_resil.Ckpt

type t = {
  mutable step : int;
  mutable ranks : Ckpt.shard array;
}

exception Corrupt = Ckpt.Corrupt

(** Encode every rank's sections as of the end of step [step], over the
    previous record's buffers. The rank count may differ from the
    previous record's (after a shrink). *)
let record t ~step sections_per_rank =
  let nranks = Array.length sections_per_rank in
  if nranks = 0 then invalid_arg "Journal.record: no ranks";
  t.step <- step;
  if Array.length t.ranks <> nranks then
    t.ranks <-
      Array.init nranks (fun r -> if r < Array.length t.ranks then t.ranks.(r) else Ckpt.shard ());
  Array.iteri (fun r sections -> Ckpt.encode t.ranks.(r) sections) sections_per_rank;
  if !Opp_obs.Metrics.enabled then
    (* footprint in 8-byte values: one step's sections *)
    Opp_obs.Metrics.set "heal.journal.words"
      (float_of_int
         (Array.fold_left
            (List.fold_left (fun acc sec -> acc + Ckpt.section_length sec))
            0 sections_per_rank))

(** A journal holding every rank's sections at [step]. *)
let create ~step sections_per_rank =
  let t = { step; ranks = [||] } in
  record t ~step sections_per_rank;
  t

let step t = t.step

(** Rank [rank]'s sections at {!step}, bit-identical to what the rank
    held. Raises {!Corrupt} when its shard no longer matches its
    recorded checksum or does not decode. *)
let reconstruct t ~rank =
  if rank < 0 || rank >= Array.length t.ranks then invalid_arg "Journal.reconstruct: bad rank";
  try Ckpt.decode t.ranks.(rank)
  with Corrupt msg ->
    raise (Corrupt (Printf.sprintf "journal: rank %d at step %d: %s" rank t.step msg))
