(** Online recovery drivers: the glue between the generic heal
    machinery ([Opp_heal]) and the two distributed apps
    (docs/RESILIENCE.md, "Online recovery").

    A healer owns the per-rank snapshot journal for one app handle and
    exposes the hooks the stepping loop drives:

    - {!record} after every completed step (replaces each rank's
      checksummed snapshot with its current sections);
    - {!recover} when a rank dies: verify and take the dead rank's
      end-of-step sections from its snapshot, then either respawn it in
      place (bit-identical continuation) or shrink the job onto the
      survivors and record the new world shape.

    The first {!record} call seeds the journal, so drivers just call
    it right after creating (or restoring) the app — no separate
    initialisation step. *)

module Journal = Opp_heal.Journal
module Heal = Opp_heal.Heal

type 'a t = {
  h_mode : Heal.mode;
  h_record : 'a -> step:int -> unit;
  h_recover : 'a -> rank:int -> string;
      (** recover the dead rank; returns a human-readable detail line
          for the A008 alert and the driver's log *)
}

let mode t = t.h_mode
let record t app ~step = t.h_record app ~step

(** {!record} under its old name: [bench/suite/oppic_bench.ml] calls it after each checkpoint. *)
let rebase = record

(** Recover [rank] from its newest snapshot, whatever [step] it died in. *)
let recover t app ~rank ~step:_ = t.h_recover app ~rank

(* Build a healer from an app's three recovery primitives. The journal
   is created by the first record, at whatever step the driver is on
   (fresh run: 0; restored run: the checkpoint step). *)
let make ~mode ~sections_all ~respawn ~shrink =
  let journal = ref None in
  let h_record app ~step =
    match !journal with
    | Some j -> Journal.record j ~step (sections_all app)
    | None -> journal := Some (Journal.create ~step (sections_all app))
  in
  let h_recover app ~rank =
    match !journal with
    | None -> invalid_arg "Dist_heal.recover: no journal (record was never called)"
    | Some j -> (
        let sections = Journal.reconstruct j ~rank in
        match mode with
        | Heal.Respawn ->
            respawn app ~rank sections;
            Printf.sprintf "respawned in place from the step-%d snapshot" (Journal.step j)
        | Heal.Shrink ->
            let nranks = shrink app ~rank sections in
            (* the survivors now hold the snapshot step's state in the
               new shape *)
            Journal.record j ~step:(Journal.step j) (sections_all app);
            Printf.sprintf "continuing degraded on %d ranks" nranks)
  in
  { h_mode = mode; h_record; h_recover }

(** Healer for the distributed fempic driver. *)
let fempic ~mode () =
  make ~mode ~sections_all:Fempic_dist.sections_all
    ~respawn:(fun app ~rank sections -> Fempic_dist.respawn app ~rank sections)
    ~shrink:(fun app ~rank sections -> Fempic_dist.shrink app ~dead:rank sections)

(** Healer for the distributed CabanaPIC driver. *)
let cabana ~mode () =
  make ~mode ~sections_all:Cabana_dist.sections_all
    ~respawn:(fun app ~rank sections -> Cabana_dist.respawn app ~rank sections)
    ~shrink:(fun app ~rank sections -> Cabana_dist.shrink app ~dead:rank sections)
