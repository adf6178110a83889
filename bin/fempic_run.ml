(* Mini-FEM-PIC driver.

   Examples:
     dune exec bin/fempic_run.exe -- --steps 100
     dune exec bin/fempic_run.exe -- --nx 6 --ny 6 --nz 12 --particles 50000 --direct-hop
     dune exec bin/fempic_run.exe -- --backend omp --workers 4
     dune exec bin/fempic_run.exe -- --backend mpi --ranks 4
     dune exec bin/fempic_run.exe -- --backend v100 --steps 20   (modelled GPU)
     dune exec bin/fempic_run.exe -- --write-mesh duct.dat *)

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

(* NaN poison for the single-rank backends (--inject-nan): the
   potential seeds the in-place Newton solve, so the NaN survives into
   the scattered field and the canary sees it at the next boundary. *)
let poison_seq (sim : Fempic.Fempic_sim.t) =
  sim.Fempic.Fempic_sim.node_phi.Opp_core.Types.d_data.(0) <- Float.nan

let run nx ny nz lx ly lz particles steps backend workers ranks hybrid partitioner direct_hop
    prefill seed write_mesh neutral_density check binned sort_auto sort_every sort_threshold
    plan faults ckpt_every ckpt_dir restart heal balance balance_threshold balance_every trace
    metrics obs_summary watch watch_dir heartbeat_every watch_strict inject_nan =
  Resil_cli.obs_setup ~trace ~metrics ~obs_summary;
  let locality = locality_config ~binned ~sort_auto ~sort_every ~sort_threshold in
  if locality <> None then Printf.printf "locality: cell-binned iteration enabled\n%!";
  if check then Printf.printf "sanitizer: opp_check runtime checks enabled\n%!";
  Resil_cli.install_faults faults;
  let mesh = Opp_mesh.Tet_mesh.build ~nx ~ny ~nz ~lx ~ly ~lz in
  (match write_mesh with
  | Some path ->
      Opp_mesh.Mesh_io.write_tet mesh path;
      Printf.printf "mesh written to %s\n%!" path
  | None -> ());
  let prm =
    { Fempic.Params.default with Fempic.Params.target_particles = float_of_int particles; seed }
  in
  Printf.printf "Mini-FEM-PIC: %d cells, %d nodes, %d inlet faces, backend=%s\n%!"
    mesh.Opp_mesh.Tet_mesh.ncells mesh.Opp_mesh.Tet_mesh.nnodes
    (Array.length mesh.Opp_mesh.Tet_mesh.inlet_faces)
    backend;
  let finish profile sim_diag =
    Format.printf "@.%a@." (fun fmt () -> Opp_core.Profile.pp fmt ~t:profile ()) ();
    sim_diag ();
    Resil_cli.report_faults ();
    Resil_cli.obs_finish ~trace ~metrics ~obs_summary
  in
  let profile = Opp_core.Profile.create () in
  match backend with
  | "mpi" ->
      (* the step span lives on a dedicated driver track, one past the
         last rank, so per-rank timelines stay rank-only *)
      Opp_obs.Trace.name_track ranks "driver";
      let mon =
        Resil_cli.watch_setup ~watch ~watch_dir ~heartbeat_every ~watch_strict
          ~meta:
            [ ("app", "fempic"); ("backend", "mpi"); ("ranks", string_of_int ranks) ]
          ~nranks:ranks
      in
      let healer =
        Option.map (fun mode -> Apps_dist.Dist_heal.fempic ~mode ()) (Resil_cli.parse_heal heal)
      in
      let balancer =
        Option.map
          (fun config -> Apps_dist.Dist_balance.fempic ~config ())
          (Resil_cli.parse_balance ~balance ~balance_threshold ~balance_every)
      in
      let part_scheme =
        match partitioner with
        | "columns" -> `Columns
        | "slab" -> `Slab
        | "rcb" -> `Rcb
        | s ->
            Printf.eprintf "unknown --partitioner '%s' (columns|slab|rcb)\n" s;
            exit 1
      in
      let dist =
        Resil_cli.drive ?watch:mon ?healer ?balancer ~steps ~ckpt_every ~ckpt_dir ~restart
          ~make:(fun () ->
            let d =
              Apps_dist.Fempic_dist.create ~prm ~nranks:ranks ~partitioner:part_scheme
                ~use_direct_hop:direct_hop
                ?workers:(if hybrid then Some workers else None)
                ~checked:check ?locality ~profile ~plan mesh
            in
            Option.iter (Apps_dist.Fempic_dist.set_watch d) mon;
            d)
          ~destroy:Apps_dist.Fempic_dist.shutdown
          ~step_count:(fun d -> d.Apps_dist.Fempic_dist.step_count)
          ~save:(fun d ~dir -> Apps_dist.Fempic_dist.save_checkpoint d ~dir)
          ~restore:(fun d ~dir -> Apps_dist.Fempic_dist.restore_checkpoint d ~dir)
          ~do_step:(fun dist s ->
            if inject_nan > 0 && s = inject_nan then Apps_dist.Fempic_dist.poison dist;
            Opp_obs.Trace.with_track ranks (fun () ->
                Opp_obs.Trace.with_span ~cat:"step" "step" (fun () ->
                    ignore (Apps_dist.Fempic_dist.step dist)));
            if !Opp_obs.Metrics.enabled then Opp_obs.Metrics.tick ~step:s;
            if s mod 10 = 0 || s = steps then
              Printf.printf "step %4d: particles=%d migrated=%d\n%!" s
                (Apps_dist.Fempic_dist.total_particles dist)
                dist.Apps_dist.Fempic_dist.last_migrated)
          ()
      in
      finish profile (fun () ->
          Format.printf "traffic: %a@." (fun fmt -> Opp_dist.Traffic.pp fmt)
            dist.Apps_dist.Fempic_dist.traffic;
          match Apps_dist.Fempic_dist.exec dist with
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
      Apps_dist.Fempic_dist.shutdown dist;
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
                Printf.eprintf "unknown backend '%s' (seq|omp|mpi|v100|h100|mi210|mi250x)\n" name;
                exit 1)
      in
      let runner = if check then Opp_check.checked ~profile runner else runner in
      let sim =
        Fempic.Fempic_sim.create ~prm ~runner ~profile ?locality:sched
          ~use_direct_hop:direct_hop mesh
      in
      if prefill then Printf.printf "prefilled %d particles\n%!" (Fempic.Fempic_sim.prefill sim);
      (* sequential checkpointing: a one-shard Opp_resil.Ckpt of the
         same declared state the distributed driver shards *)
      (match restart with
      | Some dir -> (
          match Apps_dist.Fempic_dist.restore_sim sim ~dir with
          | Some s -> Printf.printf "restart: resumed at step %d from %s\n%!" s dir
          | None -> Printf.printf "restart: no valid checkpoint under %s, starting fresh\n%!" dir)
      | None -> ());
      let mon =
        Resil_cli.watch_setup ~watch ~watch_dir ~heartbeat_every ~watch_strict
          ~meta:[ ("app", "fempic"); ("backend", backend) ]
          ~nranks:1
      in
      let wtick = Resil_cli.seq_watch_ticker mon runner in
      let first = sim.Fempic.Fempic_sim.step_count + 1 in
      let mcc =
        if neutral_density > 0.0 then
          Some
            (Fempic.Collisions.create ~neutral_density ~dt:prm.Fempic.Params.dt
               ~parts:sim.Fempic.Fempic_sim.parts ~part_vel:sim.Fempic.Fempic_sim.part_vel
               ~seed:(seed + 1) ())
        else None
      in
      for s = first to steps do
        if inject_nan > 0 && s = inject_nan then poison_seq sim;
        Opp_obs.Trace.with_span ~cat:"step" "step" (fun () ->
            ignore (Fempic.Fempic_sim.step sim);
            match mcc with Some m -> ignore (Fempic.Collisions.apply ~runner m) | None -> ());
        wtick ~step:s ~particles:sim.Fempic.Fempic_sim.parts.Opp_core.Types.s_size
          ~capacity:sim.Fempic.Fempic_sim.parts.Opp_core.Types.s_capacity
          ~nonfinite:
            (if Option.is_none mon then 0
             else
               Opp_watch.Canary.nonfinite_dats
                 [
                   sim.Fempic.Fempic_sim.node_phi;
                   sim.Fempic.Fempic_sim.node_charge_den;
                   sim.Fempic.Fempic_sim.cell_ef;
                 ]);
        if ckpt_every > 0 && s mod ckpt_every = 0 then
          Apps_dist.Fempic_dist.save_sim sim ~dir:ckpt_dir;
        if !Opp_obs.Metrics.enabled then begin
          let d = Fempic.Fempic_sim.diagnostics sim in
          Opp_obs.Metrics.set "particles" (float_of_int d.Fempic.Fempic_sim.particles);
          Opp_obs.Metrics.set "phi.min" d.Fempic.Fempic_sim.min_potential;
          Opp_obs.Metrics.set "phi.max" d.Fempic.Fempic_sim.max_potential;
          Opp_obs.Metrics.set "ef.mean" d.Fempic.Fempic_sim.mean_ef_magnitude;
          Opp_obs.Metrics.tick ~step:s
        end;
        if s mod 10 = 0 || s = steps then begin
          let d = Fempic.Fempic_sim.diagnostics sim in
          Printf.printf "step %4d: particles=%7d phi=[%.3f, %.3f] |E|=%.3e\n%!" s
            d.Fempic.Fempic_sim.particles d.Fempic.Fempic_sim.min_potential
            d.Fempic.Fempic_sim.max_potential d.Fempic.Fempic_sim.mean_ef_magnitude
        end
      done;
      (match mcc with
      | Some m ->
          Printf.printf "collisions: %d charge-exchange, %d elastic\n%!"
            m.Fempic.Collisions.cx_count m.Fempic.Collisions.elastic_count
      | None -> ());
      cleanup ();
      finish profile (fun () ->
          match sched with
          | Some s -> Printf.printf "locality: %d sorts performed\n%!" (Opp_locality.Sched.sorts s)
          | None -> ());
      Resil_cli.watch_finish mon

let cmd =
  let nx = Arg.(value & opt int 4 & info [ "nx" ] ~doc:"duct hexes in x") in
  let ny = Arg.(value & opt int 4 & info [ "ny" ] ~doc:"duct hexes in y") in
  let nz = Arg.(value & opt int 8 & info [ "nz" ] ~doc:"duct hexes in z (flow axis)") in
  let lx = Arg.(value & opt float 4e-5 & info [ "lx" ] ~doc:"duct width (m)") in
  let ly = Arg.(value & opt float 4e-5 & info [ "ly" ] ~doc:"duct height (m)") in
  let lz = Arg.(value & opt float 8e-5 & info [ "lz" ] ~doc:"duct length (m)") in
  let particles =
    Arg.(value & opt int 20_000 & info [ "particles" ] ~doc:"steady-state macro-particle target")
  in
  let steps = Arg.(value & opt int 50 & info [ "steps" ] ~doc:"time steps") in
  let backend =
    Arg.(value & opt string "seq" & info [ "backend" ] ~doc:"seq|omp|mpi|v100|h100|mi210|mi250x")
  in
  let workers = Arg.(value & opt int 2 & info [ "workers" ] ~doc:"omp worker domains") in
  let ranks = Arg.(value & opt int 2 & info [ "ranks" ] ~doc:"simulated MPI ranks") in
  let hybrid =
    Arg.(value & flag & info [ "hybrid" ] ~doc:"MPI+OpenMP: per-rank Domains runners")
  in
  let partitioner =
    Arg.(
      value & opt string "columns"
      & info [ "partitioner" ] ~docv:"SCHEME"
          ~doc:
            "mpi backend: initial mesh partitioner — $(b,columns) (balanced, flow-aligned), \
             $(b,slab) (z slabs; skews under inlet injection, useful with $(b,--balance)), \
             or $(b,rcb) (recursive coordinate bisection)")
  in
  let direct_hop = Arg.(value & flag & info [ "direct-hop" ] ~doc:"use the direct-hop mover") in
  let prefill = Arg.(value & flag & info [ "prefill" ] ~doc:"start from the steady-state fill") in
  let seed = Arg.(value & opt int 1234 & info [ "seed" ] ~doc:"RNG seed") in
  let write_mesh =
    Arg.(value & opt (some string) None & info [ "write-mesh" ] ~doc:"dump the mesh as ASCII .dat")
  in
  let neutral_density =
    Arg.(
      value & opt float 0.0
      & info [ "collisions" ]
          ~doc:"neutral background density (m^-3) for Monte-Carlo collisions; 0 disables")
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
    (Cmd.info "fempic_run" ~doc:"Mini-FEM-PIC: electrostatic unstructured-mesh PIC in OP-PIC")
    Term.(
      const run $ nx $ ny $ nz $ lx $ ly $ lz $ particles $ steps $ backend $ workers $ ranks
      $ hybrid $ partitioner $ direct_hop $ prefill $ seed $ write_mesh $ neutral_density
      $ check $ binned $ sort_auto $ sort_every $ sort_threshold $ plan $ Resil_cli.faults_arg
      $ Resil_cli.ckpt_every_arg $ Resil_cli.ckpt_dir_arg $ Resil_cli.restart_arg
      $ Resil_cli.heal_arg $ Resil_cli.balance_arg $ Resil_cli.balance_threshold_arg
      $ Resil_cli.balance_every_arg $ Resil_cli.trace_arg $ Resil_cli.metrics_arg
      $ Resil_cli.obs_summary_arg $ Resil_cli.watch_arg $ Resil_cli.watch_dir_arg
      $ Resil_cli.heartbeat_every_arg $ Resil_cli.watch_strict_arg $ Resil_cli.inject_nan_arg)

let () =
  try exit (Cmd.eval ~catch:false cmd)
  with Opp_check.Violation v ->
    prerr_endline (Opp_check.Diag.violation_to_string v);
    exit 3
