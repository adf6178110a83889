(** Online recovery drivers: the glue between the generic heal
    machinery ([Opp_heal]) and the handle ({!Dist_handle}) both apps
    run on every backend (docs/RESILIENCE.md, "Online recovery").

    A healer owns the per-rank snapshot journal for one handle and
    exposes the hooks the stepping loop drives:

    - {!record} after every completed step (re-encodes each rank's
      current sections over its checksummed snapshot shard);
    - {!recover} when a rank dies: verify and take the dead rank's
      end-of-step sections from its snapshot, then either respawn it in
      place (bit-identical continuation) or shrink the job onto the
      survivors and record the new world shape.

    The first {!record} call seeds the journal, so drivers just call
    it right after creating (or restoring) the app — no separate
    initialisation step. *)

module Journal = Opp_heal.Journal
module Heal = Opp_heal.Heal

(* A healer of one handle ['h]: the mode and the snapshot journal,
   created by the first {!record}. *)
type 'h t = { mode : Heal.mode; mutable journal : Journal.t option }
  constraint 'h = (_, _, _) Dist_handle.handle

let mode t = t.mode

(** A healer in [mode]. *)
let make ~mode () = { mode; journal = None }

(** Whether [mode] can recover a world of [nranks] ranks: a shrink needs
    a survivor to shrink onto. *)
let applicable ~nranks mode =
  match mode with
  | Heal.Shrink when nranks < 2 ->
      Error "shrink needs at least 2 ranks: one rank has no survivor to shrink onto"
  | _ -> Ok ()

(** Snapshot every rank of [h] at the end of [step]; the first call
    creates the journal (fresh run: step 0; restored run: the
    checkpoint step). *)
let record (t : 'h t) (h : 'h) ~step =
  match t.journal with
  | Some j -> Journal.record j ~step (Dist_handle.sections_all h)
  | None -> t.journal <- Some (Journal.create ~step (Dist_handle.sections_all h))

(** Recover [rank] from its newest snapshot, whatever [step] it died in;
    returns a human-readable detail line for the A008 alert and the
    driver's log. *)
let recover (t : 'h t) (h : 'h) ~rank ~step:_ =
  match t.journal with
  | None -> invalid_arg "Dist_heal.recover: no journal (record was never called)"
  | Some j -> (
      let sections = Journal.reconstruct j ~rank in
      match t.mode with
      | Heal.Respawn ->
          Dist_handle.respawn h ~rank sections;
          Printf.sprintf "respawned in place from the step-%d snapshot" (Journal.step j)
      | Heal.Shrink ->
          let nranks = Dist_handle.shrink h ~dead:rank sections in
          (* the survivors now hold the snapshot step's state in the
             new shape *)
          Journal.record j ~step:(Journal.step j) (Dist_handle.sections_all h);
          Printf.sprintf "continuing degraded on %d ranks" nranks)

(** {!record} under its old name, kept only because
    [bench/suite/oppic_bench.ml] calls it after each checkpoint. *)
let rebase = record

(** {!make} under its old name, kept only because
    [bench/suite/oppic_bench.ml] calls it. *)
let fempic = make
