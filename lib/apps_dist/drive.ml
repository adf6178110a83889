(** The stepping loop every driver runs, on every backend.

    A distributed app steps here with its optional healer and balancer;
    a single-rank backend (seq, omp, gpu) steps here as a one-rank run
    with neither. Checkpointing, restart, the monitor's policy requests
    and crash recovery are therefore the same code for all of them. *)

(** Step the handle [make] builds until [step_count] reaches [steps],
    calling [do_step h s] for step [s] and checkpointing every
    [ckpt_every] steps into [ckpt_dir]; [restart] names a directory to
    resume from first. A rank crash (fired by the injector at the top
    of a step, before any state mutates) is healed online when a
    [healer] is armed; otherwise it tears the world down, rebuilds it
    deterministically, restores the newest valid checkpoint — falling
    back to the restart directory, then to a cold start — and replays.
    Because checkpoints resume bit-for-bit and every message fault is
    healed by the detection envelope, the recovered run's final state
    equals the fault-free one's. Returns the final handle. *)
let drive ?watch ?healer ?balancer ~steps ~ckpt_every ~ckpt_dir ~restart ~make ~destroy
    ~step_count ~save ~restore ~do_step () =
  let sim = ref (make ()) in
  let try_restore dirs =
    List.find_map (fun dir -> Option.map (fun s -> (dir, s)) (restore !sim ~dir)) dirs
  in
  (match restart with
  | Some dir -> (
      match try_restore [ dir ] with
      | Some (_, s) -> Printf.printf "restart: resumed at step %d from %s\n%!" s dir
      | None -> Printf.printf "restart: no valid checkpoint under %s, starting fresh\n%!" dir)
  | None -> ());
  let recovery_dirs =
    ckpt_dir :: (match restart with Some d when d <> ckpt_dir -> [ d ] | _ -> [])
  in
  (* seed the heal snapshot with the initial (or just-restored) state,
     so a crash on the very first step is recoverable *)
  Option.iter (fun h -> Dist_heal.record h !sim ~step:(step_count !sim)) healer;
  (* Recover rank [rank] online, in place, without tearing the world
     down: take its verified snapshot, respawn or shrink, raise A008,
     and account the recovery latency. *)
  let heal_recover h ~rank ~step =
    let t0 = Opp_obs.Clock.now_s () in
    let detail = Dist_heal.recover h !sim ~rank ~step in
    let ms = (Opp_obs.Clock.now_s () -. t0) *. 1000.0 in
    let mode = Dist_heal.mode h in
    Opp_heal.Heal.record_recovery ~mode ~ms;
    Option.iter
      (fun mon ->
        Opp_watch.Monitor.raise_alert mon
          (Opp_watch.Alert.recovered
             ~mode:(Opp_heal.Heal.mode_to_string mode)
             ~rank ~step ~ms detail))
      watch;
    Printf.printf "heal: rank %d %s at step %d — %s (%.2f ms)\n%!" rank
      (match mode with Opp_heal.Heal.Respawn -> "respawned" | Opp_heal.Heal.Shrink -> "lost")
      step detail ms
  in
  let running = ref true in
  while !running && step_count !sim < steps do
    let s = step_count !sim + 1 in
    match do_step !sim s with
    | () ->
        if ckpt_every > 0 && s mod ckpt_every = 0 then save !sim ~dir:ckpt_dir;
        Option.iter
          (fun mon ->
            (* the policy hook can demand an immediate checkpoint, an
               online recovery, or a clean stop at the next boundary *)
            if Opp_watch.Monitor.take_checkpoint_request mon then begin
              Printf.printf "watch: policy requested a checkpoint at step %d\n%!" s;
              save !sim ~dir:ckpt_dir
            end;
            if Opp_watch.Monitor.abort_requested mon then begin
              Printf.printf "watch: policy requested abort at step %d\n%!" s;
              running := false
            end)
          watch;
        Option.iter
          (fun b ->
            match Dist_balance.check b !sim ~step:s with
            | None -> ()
            | Some ev ->
                Printf.printf "balance: step %d — %s (%.2f ms)\n%!" s
                  ev.Dist_balance.ev_detail ev.Dist_balance.ev_ms)
          balancer;
        Option.iter
          (fun h ->
            (* snapshot the step just completed, in the world's current
               shape (a rebalance above may have changed it) *)
            Dist_heal.record h !sim ~step:s;
            Option.iter
              (fun mon ->
                match Opp_watch.Monitor.take_heal_request mon with
                | Some rank ->
                    Printf.printf "watch: policy requested recovery of rank %d at step %d\n%!"
                      rank s;
                    heal_recover h ~rank ~step:s
                | None -> ())
              watch)
          healer
    | exception Opp_resil.Rank_crash { rank; step } -> (
        Option.iter
          (fun mon ->
            Opp_watch.Monitor.raise_alert mon (Opp_watch.Alert.crash ~rank ~step))
          watch;
        match healer with
        | Some h ->
            (* online path: no teardown, no restart — the survivors
               fence the communicator and recover in place *)
            Printf.printf "rank %d crashed at step %d; healing online\n%!" rank step;
            heal_recover h ~rank ~step
        | None ->
            Printf.printf "rank %d crashed at step %d; recovering\n%!" rank step;
            destroy !sim;
            sim := make ();
            (match try_restore recovery_dirs with
            | Some (dir, s') ->
                Printf.printf "recovered: replaying from step %d (checkpoint in %s)\n%!" s' dir
            | None ->
                Printf.printf "recovered: no checkpoint found, replaying from the start\n%!"))
  done;
  !sim
