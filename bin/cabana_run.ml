(* CabanaPIC driver (electromagnetic two-stream).

   Examples:
     dune exec bin/cabana_run.exe -- --steps 200
     dune exec bin/cabana_run.exe -- --nz 64 --ppc 128 --steps 500
     dune exec bin/cabana_run.exe -- --backend mpi --ranks 4
     dune exec bin/cabana_run.exe -- --validate    (against the structured original) *)

open Cmdliner

let device_of_name = function
  | "v100" -> Some Opp_perf.Device.v100
  | "h100" -> Some Opp_perf.Device.h100
  | "mi210" -> Some Opp_perf.Device.mi210
  | "mi250x" -> Some Opp_perf.Device.mi250x_gcd
  | _ -> None

(* Fold the locality flags into a scheduler config; [None] (the
   as-stored iteration of the seed) unless at least one flag is set. *)
let locality_config ~binned ~sort_auto ~sort_every ~sort_threshold =
  if (not binned) && (not sort_auto) && sort_every = 0 && sort_threshold <= 0.0 then None
  else
    Some
      {
        Opp_locality.Sched.default_config with
        Opp_locality.Sched.auto_sort = sort_auto || sort_threshold > 0.0;
        sort_threshold =
          (if sort_threshold > 0.0 then sort_threshold
           else Opp_locality.Sched.default_config.Opp_locality.Sched.sort_threshold);
        sort_every;
      }

(* Per-step energy gauges + tick (energies are three par_loops, so
   only run them when metrics are on). *)
let tick_energies ~step (e : Cabana.Cabana_sim.energies) nparticles =
  if !Opp_obs.Metrics.enabled then begin
    Opp_obs.Metrics.set "energy.e" e.Cabana.Cabana_sim.e_field;
    Opp_obs.Metrics.set "energy.b" e.Cabana.Cabana_sim.b_field;
    Opp_obs.Metrics.set "energy.k" e.Cabana.Cabana_sim.kinetic;
    (match nparticles with
    | Some n -> Opp_obs.Metrics.set "particles" (float_of_int n)
    | None -> ());
    Opp_obs.Metrics.tick ~step
  end

let run nx ny nz ppc v0 steps backend workers ranks hybrid seed validate check binned sort_auto
    sort_every sort_threshold plan faults ckpt_every ckpt_dir restart heal balance
    balance_threshold balance_every trace metrics obs_summary watch watch_dir heartbeat_every
    watch_strict inject_nan =
  Resil_cli.obs_setup ~trace ~metrics ~obs_summary;
  let locality = locality_config ~binned ~sort_auto ~sort_every ~sort_threshold in
  if locality <> None then Printf.printf "locality: cell-binned iteration enabled\n%!";
  if check then Printf.printf "sanitizer: opp_check runtime checks enabled\n%!";
  Resil_cli.install_faults faults;
  let prm =
    {
      Cabana.Cabana_params.default with
      Cabana.Cabana_params.nx;
      ny;
      nz;
      ppc;
      v0;
      seed;
    }
  in
  Printf.printf "CabanaPIC: %d cells, %d particles, dt=%.4f, backend=%s\n%!"
    (Cabana.Cabana_params.ncells prm)
    (Cabana.Cabana_params.nparticles prm)
    (Cabana.Cabana_params.dt prm) backend;
  let profile = Opp_core.Profile.create () in
  let report_every = max 1 (steps / 10) in
  if validate then begin
    let dsl = Cabana.Cabana_sim.create ~prm ~profile () in
    let reference = Cabana_ref.create ~prm () in
    let max_diff = ref 0.0 in
    for s = 1 to steps do
      Cabana.Cabana_sim.step dsl;
      Cabana_ref.step reference;
      let a = (Cabana.Cabana_sim.energies dsl).Cabana.Cabana_sim.e_field in
      let b = (Cabana_ref.energies reference).Cabana_ref.e_field in
      max_diff := Float.max !max_diff (Float.abs (a -. b));
      if s mod report_every = 0 then Printf.printf "step %4d: E=%.6e |dsl-ref|=%.3e\n%!" s a (Float.abs (a -. b))
    done;
    Printf.printf "max |E energy difference| over %d steps: %.3e\n%!" steps !max_diff;
    Resil_cli.obs_finish ~trace ~metrics ~obs_summary
  end
  else
    match backend with
    | "mpi" ->
        Opp_obs.Trace.name_track ranks "driver";
        let mon =
          Resil_cli.watch_setup ~watch ~watch_dir ~heartbeat_every ~watch_strict
            ~meta:
              [ ("app", "cabana"); ("backend", "mpi"); ("ranks", string_of_int ranks) ]
            ~nranks:ranks
        in
        let healer =
          Option.map
            (fun mode -> Apps_dist.Dist_heal.cabana ~mode ())
            (Resil_cli.parse_heal heal)
        in
        let balancer =
          Option.map
            (fun config -> Apps_dist.Dist_balance.cabana ~config ())
            (Resil_cli.parse_balance ~balance ~balance_threshold ~balance_every)
        in
        let dist =
          Resil_cli.drive ?watch:mon ?healer ?balancer ~steps ~ckpt_every ~ckpt_dir ~restart
            ~make:(fun () ->
              let d =
                Apps_dist.Cabana_dist.create ~prm ~nranks:ranks
                  ?workers:(if hybrid then Some workers else None)
                  ~checked:check ?locality ~plan ~profile ()
              in
              Option.iter (Apps_dist.Cabana_dist.set_watch d) mon;
              d)
            ~destroy:Apps_dist.Cabana_dist.shutdown
            ~step_count:(fun d -> d.Apps_dist.Cabana_dist.step_count)
            ~save:(fun d ~dir -> Apps_dist.Cabana_dist.save_checkpoint d ~dir)
            ~restore:(fun d ~dir -> Apps_dist.Cabana_dist.restore_checkpoint d ~dir)
            ~do_step:(fun dist s ->
              if inject_nan > 0 && s = inject_nan then Apps_dist.Cabana_dist.poison dist;
              Opp_obs.Trace.with_track ranks (fun () ->
                  Opp_obs.Trace.with_span ~cat:"step" "step" (fun () ->
                      Apps_dist.Cabana_dist.step dist));
              if !Opp_obs.Metrics.enabled then
                tick_energies ~step:s
                  (Apps_dist.Cabana_dist.energies dist)
                  (Some (Apps_dist.Cabana_dist.total_particles dist));
              if s mod report_every = 0 then begin
                let e = Apps_dist.Cabana_dist.energies dist in
                Printf.printf "step %4d: E=%.6e B=%.6e K=%.6e migrated=%d\n%!" s
                  e.Cabana.Cabana_sim.e_field e.Cabana.Cabana_sim.b_field
                  e.Cabana.Cabana_sim.kinetic dist.Apps_dist.Cabana_dist.last_migrated
              end)
            ()
        in
        Format.printf "traffic: %a@." (fun fmt -> Opp_dist.Traffic.pp fmt)
          dist.Apps_dist.Cabana_dist.traffic;
        (match Apps_dist.Cabana_dist.exec dist with
        | Some e ->
            Printf.printf "%s; exchanges skipped %d of %d\n%!"
              (Opp_plan.Plan.summary (Opp_plan.Exec.plan e))
              (Opp_plan.Exec.skipped e)
              (Opp_plan.Exec.skipped e + Opp_plan.Exec.performed e)
        | None -> ());
        Option.iter
          (fun b ->
            let p = Apps_dist.Dist_balance.policy b in
            Printf.printf "balance: %d rebalance(s) over %d check(s)\n%!"
              (Opp_balance.Policy.fired p) (Opp_balance.Policy.checks p))
          balancer;
        Apps_dist.Cabana_dist.shutdown dist;
        Resil_cli.report_faults ();
        Resil_cli.obs_finish ~trace ~metrics ~obs_summary;
        Resil_cli.watch_finish mon
    | _ ->
        if heal <> None then
          Printf.printf "heal: --heal only applies to the mpi backend; ignored\n%!";
        if balance <> "off" then
          Printf.printf "balance: --balance only applies to the mpi backend; ignored\n%!";
        let sched = Option.map (fun config -> Opp_locality.Sched.create ~config ()) locality in
        let runner, cleanup =
          match backend with
          | "seq" ->
              ( (match sched with
                | Some s -> Opp_locality.Binned.runner ~profile s
                | None -> Opp_core.Runner.seq ~profile ()),
                fun () -> () )
          | "omp" ->
              let th = Opp_thread.Thread_runner.create ~profile ?sched ~workers () in
              (Opp_thread.Thread_runner.runner th, fun () -> Opp_thread.Thread_runner.shutdown th)
          | name -> (
              match device_of_name name with
              | Some device ->
                  let gpu = Opp_gpu.Gpu_runner.create ~profile ?sched device in
                  (Opp_gpu.Gpu_runner.runner gpu, fun () -> ())
              | None ->
                  Printf.eprintf "unknown backend '%s' (seq|omp|mpi|v100|h100|mi210|mi250x)\n"
                    name;
                  exit 1)
        in
        let runner = if check then Opp_check.checked ~profile runner else runner in
        let sim = Cabana.Cabana_sim.create ~prm ~runner ~profile ?locality:sched () in
        (* sequential checkpointing: a one-shard Opp_resil.Ckpt of the
           same declared state the distributed driver shards *)
        (match restart with
        | Some dir -> (
            match Apps_dist.Cabana_dist.restore_sim sim ~dir with
            | Some s -> Printf.printf "restart: resumed at step %d from %s\n%!" s dir
            | None -> Printf.printf "restart: no valid checkpoint under %s, starting fresh\n%!" dir)
        | None -> ());
        let mon =
          Resil_cli.watch_setup ~watch ~watch_dir ~heartbeat_every ~watch_strict
            ~meta:[ ("app", "cabana"); ("backend", backend) ]
            ~nranks:1
        in
        let wtick = Resil_cli.seq_watch_ticker mon runner in
        let first = sim.Cabana.Cabana_sim.step_count + 1 in
        for s = first to steps do
          if inject_nan > 0 && s = inject_nan then
            sim.Cabana.Cabana_sim.cell_e.Opp_core.Types.d_data.(0) <- Float.nan;
          Opp_obs.Trace.with_span ~cat:"step" "step" (fun () -> Cabana.Cabana_sim.step sim);
          wtick ~step:s ~particles:sim.Cabana.Cabana_sim.parts.Opp_core.Types.s_size
            ~capacity:sim.Cabana.Cabana_sim.parts.Opp_core.Types.s_capacity
            ~nonfinite:
              (if Option.is_none mon then 0
               else
                 Opp_watch.Canary.nonfinite_dats
                   [
                     sim.Cabana.Cabana_sim.cell_e;
                     sim.Cabana.Cabana_sim.cell_b;
                     sim.Cabana.Cabana_sim.cell_j;
                   ]);
          if ckpt_every > 0 && s mod ckpt_every = 0 then
            Apps_dist.Cabana_dist.save_sim sim ~dir:ckpt_dir;
          if !Opp_obs.Metrics.enabled then
            tick_energies ~step:s (Cabana.Cabana_sim.energies sim)
              (Some sim.Cabana.Cabana_sim.parts.Opp_core.Types.s_size);
          if s mod report_every = 0 then begin
            let e = Cabana.Cabana_sim.energies sim in
            Printf.printf "step %4d: E=%.6e B=%.6e K=%.6e\n%!" s e.Cabana.Cabana_sim.e_field
              e.Cabana.Cabana_sim.b_field e.Cabana.Cabana_sim.kinetic
          end
        done;
        cleanup ();
        Format.printf "@.%a@." (fun fmt () -> Opp_core.Profile.pp fmt ~t:profile ()) ();
        (match sched with
        | Some s -> Printf.printf "locality: %d sorts performed\n%!" (Opp_locality.Sched.sorts s)
        | None -> ());
        Resil_cli.report_faults ();
        Resil_cli.obs_finish ~trace ~metrics ~obs_summary;
        Resil_cli.watch_finish mon

let cmd =
  let nx = Arg.(value & opt int 4 & info [ "nx" ] ~doc:"cells in x") in
  let ny = Arg.(value & opt int 4 & info [ "ny" ] ~doc:"cells in y") in
  let nz = Arg.(value & opt int 32 & info [ "nz" ] ~doc:"cells in z (stream axis)") in
  let ppc = Arg.(value & opt int 32 & info [ "ppc" ] ~doc:"particles per cell") in
  let v0 = Arg.(value & opt float 0.2 & info [ "v0" ] ~doc:"stream speed (fraction of c)") in
  let steps = Arg.(value & opt int 100 & info [ "steps" ] ~doc:"time steps") in
  let backend =
    Arg.(value & opt string "seq" & info [ "backend" ] ~doc:"seq|omp|mpi|v100|h100|mi210|mi250x")
  in
  let workers = Arg.(value & opt int 2 & info [ "workers" ] ~doc:"omp worker domains") in
  let ranks = Arg.(value & opt int 2 & info [ "ranks" ] ~doc:"simulated MPI ranks") in
  let hybrid =
    Arg.(value & flag & info [ "hybrid" ] ~doc:"MPI+OpenMP: per-rank Domains runners")
  in
  let seed = Arg.(value & opt int 99 & info [ "seed" ] ~doc:"RNG seed") in
  let validate =
    Arg.(value & flag & info [ "validate" ] ~doc:"compare against the structured-mesh original")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "run under the opp_check sanitizer backend (instrumented sequential execution; \
             aborts on the first contract violation)")
  in
  let binned =
    Arg.(
      value & flag
      & info [ "binned" ]
          ~doc:"iterate particle loops in the canonical cell-binned order (opp_locality)")
  in
  let sort_auto =
    Arg.(
      value & flag
      & info [ "sort-auto" ]
          ~doc:"enable the automatic sort scheduler (implies $(b,--binned)): physically sort \
                particles by cell when the locality metric degrades")
  in
  let sort_every =
    Arg.(
      value & opt int 0
      & info [ "sort-every" ] ~docv:"N"
          ~doc:"sort particles by cell every $(docv) steps (implies $(b,--binned); 0 disables)")
  in
  let sort_threshold =
    Arg.(
      value & opt float 0.0
      & info [ "sort-threshold" ] ~docv:"X"
          ~doc:"mean p2c jump distance that triggers an automatic sort (implies \
                $(b,--sort-auto); 0 keeps the default)")
  in
  let plan =
    Arg.(
      value & flag
      & info [ "plan" ]
          ~doc:
            "mpi backend: record the first step's program, prove a plan (opp_plan), and skip \
             redundant halo exchanges from step 2 on")
  in
  Cmd.v
    (Cmd.info "cabana_run" ~doc:"CabanaPIC: electromagnetic two-stream PIC in OP-PIC")
    Term.(
      const run $ nx $ ny $ nz $ ppc $ v0 $ steps $ backend $ workers $ ranks $ hybrid $ seed
      $ validate $ check $ binned $ sort_auto $ sort_every $ sort_threshold $ plan
      $ Resil_cli.faults_arg $ Resil_cli.ckpt_every_arg $ Resil_cli.ckpt_dir_arg
      $ Resil_cli.restart_arg $ Resil_cli.heal_arg $ Resil_cli.balance_arg
      $ Resil_cli.balance_threshold_arg $ Resil_cli.balance_every_arg $ Resil_cli.trace_arg
      $ Resil_cli.metrics_arg $ Resil_cli.obs_summary_arg $ Resil_cli.watch_arg
      $ Resil_cli.watch_dir_arg $ Resil_cli.heartbeat_every_arg $ Resil_cli.watch_strict_arg
      $ Resil_cli.inject_nan_arg)

let () =
  try exit (Cmd.eval ~catch:false cmd)
  with Opp_check.Violation v ->
    prerr_endline (Opp_check.Diag.violation_to_string v);
    exit 3
