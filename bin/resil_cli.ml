(* Plumbing shared by the drivers: the --faults / --ckpt-* / --restart
   flags, fault-schedule installation, the end-of-run stats line, the
   crash-recovery stepping loop used by the mpi backends, and the
   standard observability flags (--trace / --metrics / --obs-summary)
   with their enable/export bookends. *)

open Cmdliner

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "inject deterministic communication faults, e.g. \
           $(b,seed=42,drop=halo:0.05,corrupt=migrate:0.02,crash=1\\@7) (grammar in \
           docs/RESILIENCE.md); detection and recovery keep the run bit-for-bit correct")

let ckpt_every_arg =
  Arg.(
    value & opt int 0
    & info [ "ckpt-every" ] ~docv:"N"
        ~doc:"write a checkpoint every $(docv) steps (0 disables)")

let ckpt_dir_arg =
  Arg.(
    value & opt string "checkpoints"
    & info [ "ckpt-dir" ] ~docv:"DIR" ~doc:"directory for checkpoints")

let restart_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "restart" ] ~docv:"DIR"
        ~doc:"resume from the newest valid checkpoint under $(docv)")

let heal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "heal" ] ~docv:"MODE"
        ~doc:
          "mpi backend: recover rank failures online instead of restarting the job — \
           $(b,respawn) rebuilds the dead rank in place from its checkpoint shard plus the \
           replayed delta journal (bit-identical continuation), $(b,shrink) re-partitions its \
           cells onto the survivors and continues degraded (docs/RESILIENCE.md)")

(* Resolve --heal before any simulation state exists. *)
let parse_heal = function
  | None -> None
  | Some s -> (
      match Opp_heal.Heal.mode_of_string s with
      | Ok m ->
          Printf.printf "heal: online recovery armed (mode=%s)\n%!"
            (Opp_heal.Heal.mode_to_string m);
          Some m
      | Error msg ->
          Printf.eprintf "error: bad --heal: %s\n%!" msg;
          exit 1)

(* --- dynamic load balancing (opp_balance) ---

   The same flag trio on both distributed drivers: --balance picks the
   load signal, --balance-threshold the max/mean ratio that arms the
   policy, --balance-every the refire floor. The policy itself (with
   hysteresis and the netmodel predicted-gain guard) lives in
   Opp_balance.Policy; this is just parsing. *)

let balance_arg =
  Arg.(
    value & opt string "off"
    & info [ "balance" ] ~docv:"MODE"
        ~doc:
          "mpi backend: migrate cell ownership between ranks live when load skews — \
           $(b,particles) watches per-rank particle counts, $(b,phases) watches measured \
           per-rank phase wall time (falls back to particle counts without $(b,--watch)); \
           $(b,off) disables (docs/PERFORMANCE.md)")

let balance_threshold_arg =
  Arg.(
    value & opt float 1.5
    & info [ "balance-threshold" ] ~docv:"R"
        ~doc:"max/mean load ratio above which a rebalance is considered (must be > 1)")

let balance_every_arg =
  Arg.(
    value & opt int 10
    & info [ "balance-every" ] ~docv:"N"
        ~doc:"minimum steps between rebalances (hysteresis refire floor)")

(* Resolve the --balance trio into a policy config before any
   simulation state exists; [None] when balancing is off. *)
let parse_balance ~balance ~balance_threshold ~balance_every =
  match Opp_balance.Policy.mode_of_string balance with
  | Error msg ->
      Printf.eprintf "error: bad --balance: %s\n%!" msg;
      exit 1
  | Ok Opp_balance.Policy.Off -> None
  | Ok mode ->
      if balance_threshold <= 1.0 then begin
        Printf.eprintf "error: --balance-threshold must be > 1\n%!";
        exit 1
      end;
      if balance_every < 1 then begin
        Printf.eprintf "error: --balance-every must be >= 1\n%!";
        exit 1
      end;
      Printf.printf "balance: dynamic load balancing armed (mode=%s threshold=%.2f every=%d)\n%!"
        (Opp_balance.Policy.mode_to_string mode)
        balance_threshold balance_every;
      Some
        {
          Opp_balance.Policy.default_config with
          Opp_balance.Policy.mode;
          threshold = balance_threshold;
          min_interval = balance_every;
          net = Some Opp_perf.Netmodel.slingshot_cpu;
        }

(* The standard observability artifact flags. Every driver takes the
   same trio so that a trace or metrics file from any of them feeds
   bin/oppic_prof unchanged. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"write a Chrome trace-event JSON timeline to $(docv)")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"write per-step metrics to $(docv) (JSONL, or CSV when $(docv) ends in .csv)")

let obs_summary_arg =
  Arg.(value & flag & info [ "obs-summary" ] ~doc:"print trace and metrics summaries at exit")

(* Enable the global trace/metrics sinks up front, export and
   summarize at exit. A metrics path ending in [.csv] selects the CSV
   exporter, anything else gets JSONL. *)
let obs_setup ~trace ~metrics ~obs_summary =
  if trace <> None || obs_summary then Opp_obs.Trace.enable ();
  if metrics <> None || obs_summary then Opp_obs.Metrics.enable ()

let try_write what path f =
  try f path
  with Sys_error msg ->
    Printf.eprintf "error: cannot write %s file: %s\n%!" what msg;
    exit 1

let obs_finish ~trace ~metrics ~obs_summary =
  (match trace with
  | Some path ->
      try_write "trace" path Opp_obs.Trace.write_chrome;
      Printf.printf "trace: %d spans written to %s (open in chrome://tracing or Perfetto)\n%!"
        (Opp_obs.Trace.span_count ()) path
  | None -> ());
  (match metrics with
  | Some path ->
      try_write "metrics" path (fun p ->
          if Filename.check_suffix p ".csv" then Opp_obs.Metrics.write_csv p
          else Opp_obs.Metrics.write_jsonl p);
      Printf.printf "metrics: %d rows written to %s\n%!"
        (List.length (Opp_obs.Metrics.rows ()))
        path
  | None -> ());
  if obs_summary then begin
    Format.printf "@.-- trace summary --@.%a" (fun fmt () -> Opp_obs.Trace.summary fmt ()) ();
    Format.printf "@.-- metrics summary --@.%a" (fun fmt () -> Opp_obs.Metrics.summary fmt ()) ()
  end

(* --- live health monitoring (opp_watch) ---

   The same flag quartet on every driver: --watch turns the monitor
   on, --watch-dir places its artifacts (heartbeats.jsonl,
   alerts.jsonl, status.json — the file oppic_top renders),
   --heartbeat-every decimates collection, and --watch-strict turns
   any alert into a non-zero exit for CI. --inject-nan is the canary's
   self-test hook: it poisons one value at a chosen step so a pipeline
   can assert that A003 actually fires. *)

let watch_arg =
  Arg.(
    value & flag
    & info [ "watch" ]
        ~doc:
          "monitor the run live: per-rank heartbeats, anomaly detectors with stable A00x alert \
           codes, and a status.json snapshot that $(b,oppic_top) renders (docs/OBSERVABILITY.md)")

let watch_dir_arg =
  Arg.(
    value & opt string "watch"
    & info [ "watch-dir" ] ~docv:"DIR" ~doc:"directory for watch artifacts")

let heartbeat_every_arg =
  Arg.(
    value & opt int 1
    & info [ "heartbeat-every" ] ~docv:"N" ~doc:"collect heartbeats every $(docv)-th step")

let watch_strict_arg =
  Arg.(
    value & flag
    & info [ "watch-strict" ] ~doc:"exit with status 5 if any watch alert fired during the run")

let inject_nan_arg =
  Arg.(
    value & opt int 0
    & info [ "inject-nan" ] ~docv:"STEP"
        ~doc:
          "poison one field/particle value with NaN at step $(docv) (0 disables) — the watch \
           canary's self-test")

let watch_setup ~watch ~watch_dir ~heartbeat_every ~watch_strict ~meta ~nranks =
  if not watch then None
  else begin
    if heartbeat_every < 1 then begin
      Printf.eprintf "error: --heartbeat-every must be >= 1\n%!";
      exit 1
    end;
    (* alerts are mirrored into the metrics registry (watch.alerts,
       watch.A00x), so monitoring implies metrics collection *)
    Opp_obs.Metrics.enable ();
    let config =
      {
        Opp_watch.Monitor.default_config with
        Opp_watch.Monitor.dir = watch_dir;
        heartbeat_every;
        strict = watch_strict;
      }
    in
    Some (Opp_watch.Monitor.create ~config ~meta ~nranks ())
  end

(* Final snapshot, alert recap, and the strict-mode exit. *)
let watch_finish mon =
  match mon with
  | None -> ()
  | Some mon ->
      Opp_watch.Monitor.close mon;
      let cfg = Opp_watch.Monitor.config mon in
      let dir = cfg.Opp_watch.Monitor.dir in
      let total = Opp_watch.Monitor.alerts_total mon in
      if total = 0 then Printf.printf "watch: clean run, no alerts (%s/status.json)\n%!" dir
      else begin
        let by_code =
          List.filter_map
            (fun c ->
              match Opp_watch.Monitor.alert_count mon c with
              | 0 -> None
              | n -> Some (Printf.sprintf "%s=%d" c n))
            Opp_watch.Alert.codes
        in
        Printf.printf "watch: %d alert(s) [%s] (%s/alerts.jsonl)\n%!" total
          (String.concat " " by_code) dir;
        if cfg.Opp_watch.Monitor.strict then exit 5
      end

(* Heartbeat collection for the single-rank backends (seq / omp /
   gpu): a one-rank Dist_watch over the runner's ledger, so each
   heartbeat's phase times are the ledger's per-kernel seconds since
   the last one (measured host time on the gpu backend, whose runner
   ledger is its host-side [exec_profile]). Returns a closure to call
   after every step. *)
let seq_watch_ticker mon (runner : Opp_core.Runner.t) =
  let w = Option.map (Apps_dist.Dist_watch.of_ledger runner.Opp_core.Runner.r_profile) mon in
  fun ~step ~particles ~capacity ~nonfinite ->
    Apps_dist.Dist_watch.step_done w ~step
      ~particles:(fun _ -> particles)
      ~capacity:(fun _ -> capacity)
      ~nonfinite:(fun _ -> nonfinite)
      ~dirty:(fun _ -> 0.0)

(* Parse and install the schedule before any simulation state exists,
   so every message of the run is subject to it. *)
let install_faults = function
  | None -> ()
  | Some spec -> (
      match Opp_resil.Fault.parse spec with
      | Ok inj ->
          Opp_resil.Fault.install inj;
          Format.printf "faults: %a@." Opp_resil.Fault.pp inj
      | Error msg ->
          Printf.eprintf "error: bad --faults spec: %s\n%!" msg;
          exit 1)

let report_faults () =
  match Opp_resil.Fault.active () with
  | Some inj ->
      let stats = Opp_resil.Fault.stats inj in
      if stats <> [] then
        Printf.printf "resilience: %s\n%!"
          (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) stats))
  | None -> ()

(* Step a distributed app to [steps] with checkpointing and crash
   recovery: a rank crash (fired by the injector at the top of a step,
   before any state mutates) tears the world down, rebuilds it
   deterministically, restores the newest valid checkpoint — falling
   back to the restart directory, then to a cold start — and replays.
   Because checkpoints resume bit-for-bit and every message fault is
   healed by the detection envelope, the recovered run's final state
   equals the fault-free one's. *)
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
  (* seed the heal journal with the initial (or just-restored) state,
     so a crash on the very first step is recoverable *)
  Option.iter (fun h -> Apps_dist.Dist_heal.record h !sim ~step:(step_count !sim)) healer;
  (* Recover rank [rank] online, in place, without tearing the world
     down: reconstruct from journal replay, respawn or shrink, raise
     A008, and account the recovery latency. *)
  let heal_recover h ~rank ~step =
    let t0 = Opp_obs.Clock.now_s () in
    let detail = Apps_dist.Dist_heal.recover h !sim ~rank ~step in
    let ms = (Opp_obs.Clock.now_s () -. t0) *. 1000.0 in
    let mode = Apps_dist.Dist_heal.mode h in
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
        let saved = ref false in
        if ckpt_every > 0 && s mod ckpt_every = 0 then begin
          save !sim ~dir:ckpt_dir;
          saved := true
        end;
        Option.iter
          (fun mon ->
            (* the policy hook can demand an immediate checkpoint, an
               online recovery, or a clean stop at the next boundary *)
            if Opp_watch.Monitor.take_checkpoint_request mon then begin
              Printf.printf "watch: policy requested a checkpoint at step %d\n%!" s;
              save !sim ~dir:ckpt_dir;
              saved := true
            end;
            if Opp_watch.Monitor.abort_requested mon then begin
              Printf.printf "watch: policy requested abort at step %d\n%!" s;
              running := false
            end)
          watch;
        Option.iter
          (fun b ->
            match Apps_dist.Dist_balance.check b !sim ~step:s with
            | None -> ()
            | Some ev ->
                Printf.printf "balance: step %d — %s (%.2f ms)\n%!" s
                  ev.Apps_dist.Dist_balance.ev_detail ev.Apps_dist.Dist_balance.ev_ms;
                (* every rank's section shapes just changed under the
                   heal journal; cut a durable shard at the new
                   partition and re-base so online recovery stays
                   consistent with the rebalanced world *)
                if healer <> None then begin
                  save !sim ~dir:ckpt_dir;
                  saved := true
                end)
          balancer;
        Option.iter
          (fun h ->
            (* a durable checkpoint re-bases the journal (the chains
               only need to cover steps past the newest shard on disk);
               otherwise journal this step's deltas *)
            if !saved then Apps_dist.Dist_heal.rebase h !sim ~step:s
            else Apps_dist.Dist_heal.record h !sim ~step:s;
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
