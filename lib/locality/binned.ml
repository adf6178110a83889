(** Sequential runner driving every particle loop through the
    scheduler's canonical binned order. Mesh loops and windowed
    iterates run natively; full particle loops and movers visit
    particles cell by cell, which is bit-identical to the sorted run
    (see {!Bins}) while restoring the memory locality the paper's
    sort ablation measures. *)

open Opp_core

let runner ?(profile = Profile.global) sched =
  {
    Runner.r_name = "seq+loc";
    Runner.r_par_loop =
      (fun name _ kernel set iterate args ->
        let order =
          match iterate with Seq.Iterate_all -> Sched.order sched set | _ -> None
        in
        Seq.par_loop ?order ~name kernel set iterate args);
    Runner.r_particle_move =
      (fun name _ dh kernel set p2c args ->
        let order = Sched.order sched set in
        Seq.particle_move ?order ?dh ~name kernel set ~p2c args);
    Runner.r_profile = profile;
    Runner.r_around = Runner.direct;
  }
