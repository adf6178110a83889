(* The driver both app CLIs share: one flag set, one backend choice,
   one handle, one stepping loop ([Apps_dist.Drive.drive]) and one
   end-of-run report. An app adds its own flags, prints its banner
   between [setup] and [run], and hands [run] its handle's [create]
   and its progress and summary lines. Every backend is a handle:
   seq, omp and the modelled GPUs are one-rank worlds. *)

open Cmdliner

type flags = {
  steps : int;
  backend : string;
  workers : int;
  ranks : int;
  hybrid : bool;
  check : bool;
  locality : Opp_locality.Sched.config option;
  faults : string option;
  ckpt_every : int;
  ckpt_dir : string;
  restart : string option;
  heal : string option;
  balance : string;
  balance_threshold : float;
  balance_every : int;
  trace : string option;
  metrics : string option;
  obs_summary : bool;
  watch : bool;
  watch_dir : string;
  heartbeat_every : int;
  watch_strict : bool;
  inject_nan : int;
}

(* The shared flags as one term; [steps] is the app's default. *)
let flags ~steps =
  let open Term.Syntax in
  let+ steps = Arg.(value & opt int steps & info [ "steps" ] ~doc:"time steps")
  and+ backend =
    Arg.(value & opt string "seq" & info [ "backend" ] ~doc:"seq|omp|mpi|v100|h100|mi210|mi250x")
  and+ workers = Arg.(value & opt int 2 & info [ "workers" ] ~doc:"omp worker domains")
  and+ ranks = Arg.(value & opt int 2 & info [ "ranks" ] ~doc:"simulated MPI ranks")
  and+ hybrid =
    Arg.(value & flag & info [ "hybrid" ] ~doc:"MPI+OpenMP: per-rank Domains runners")
  and+ check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "run under the opp_check sanitizer backend (instrumented sequential execution; \
             aborts on the first contract violation)")
  and+ binned =
    Arg.(
      value & flag
      & info [ "binned" ]
          ~doc:"iterate particle loops in the canonical cell-binned order (opp_locality)")
  and+ sort_auto =
    Arg.(
      value & flag
      & info [ "sort-auto" ]
          ~doc:"enable the automatic sort scheduler (implies $(b,--binned)): physically sort \
                particles by cell when the locality metric degrades")
  and+ sort_every =
    Arg.(
      value & opt int 0
      & info [ "sort-every" ] ~docv:"N"
          ~doc:"sort particles by cell every $(docv) steps (implies $(b,--binned); 0 disables)")
  and+ sort_threshold =
    Arg.(
      value & opt float 0.0
      & info [ "sort-threshold" ] ~docv:"X"
          ~doc:"mean p2c jump distance that triggers an automatic sort (implies \
                $(b,--sort-auto); 0 keeps the default)")
  and+ faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "inject deterministic communication faults, e.g. \
             $(b,seed=42,drop=halo:0.05,corrupt=migrate:0.02,crash=1@7) (grammar in \
             docs/RESILIENCE.md); detection and recovery keep the run bit-for-bit correct")
  and+ ckpt_every =
    Arg.(
      value & opt int 0
      & info [ "ckpt-every" ] ~docv:"N" ~doc:"write a checkpoint every $(docv) steps (0 disables)")
  and+ ckpt_dir =
    Arg.(
      value & opt string "checkpoints"
      & info [ "ckpt-dir" ] ~docv:"DIR" ~doc:"directory for checkpoints")
  and+ restart =
    Arg.(
      value
      & opt (some string) None
      & info [ "restart" ] ~docv:"DIR" ~doc:"resume from the newest valid checkpoint under $(docv)")
  and+ heal =
    Arg.(
      value
      & opt (some string) None
      & info [ "heal" ] ~docv:"MODE"
          ~doc:
            "mpi backend: recover rank failures online instead of restarting the job — \
             $(b,respawn) rebuilds the dead rank in place from a checksummed snapshot of its \
             last completed step (bit-identical continuation), $(b,shrink) re-partitions its \
             cells onto the survivors and continues degraded (docs/RESILIENCE.md)")
  and+ balance =
    Arg.(
      value & opt string "off"
      & info [ "balance" ] ~docv:"MODE"
          ~doc:
            "mpi backend: migrate cell ownership between ranks live when load skews — \
             $(b,particles) watches per-rank particle counts, $(b,phases) watches measured \
             per-rank phase wall time (falls back to particle counts without $(b,--watch)); \
             $(b,off) disables (docs/PERFORMANCE.md)")
  and+ balance_threshold =
    Arg.(
      value & opt float 1.5
      & info [ "balance-threshold" ] ~docv:"R"
          ~doc:"max/mean load ratio above which a rebalance is considered (must be > 1)")
  and+ balance_every =
    Arg.(
      value & opt int 10
      & info [ "balance-every" ] ~docv:"N"
          ~doc:"minimum steps between rebalances (hysteresis refire floor)")
  and+ trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"write a Chrome trace-event JSON timeline to $(docv)")
  and+ metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"write per-step metrics to $(docv) (JSONL, or CSV when $(docv) ends in .csv)")
  and+ obs_summary =
    Arg.(value & flag & info [ "obs-summary" ] ~doc:"print trace and metrics summaries at exit")
  and+ watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "monitor the run live: per-rank heartbeats, anomaly detectors with stable A00x \
             alert codes, and a status.json snapshot that $(b,oppic_top) renders \
             (docs/OBSERVABILITY.md)")
  and+ watch_dir =
    Arg.(
      value & opt string "watch"
      & info [ "watch-dir" ] ~docv:"DIR" ~doc:"directory for watch artifacts")
  and+ heartbeat_every =
    Arg.(
      value & opt int 1
      & info [ "heartbeat-every" ] ~docv:"N" ~doc:"collect heartbeats every $(docv)-th step")
  and+ watch_strict =
    Arg.(
      value & flag
      & info [ "watch-strict" ] ~doc:"exit with status 5 if any watch alert fired during the run")
  and+ inject_nan =
    Arg.(
      value & opt int 0
      & info [ "inject-nan" ] ~docv:"STEP"
          ~doc:
            "poison one field/particle value with NaN at step $(docv) (0 disables) — the watch \
             canary's self-test")
  in
  {
    steps;
    backend;
    workers;
    ranks;
    hybrid;
    check;
    locality = Apps_dist.Backend.locality ~binned ~sort_auto ~sort_every ~sort_threshold;
    faults;
    ckpt_every;
    ckpt_dir;
    restart;
    heal;
    balance;
    balance_threshold;
    balance_every;
    trace;
    metrics;
    obs_summary;
    watch;
    watch_dir;
    heartbeat_every;
    watch_strict;
    inject_nan;
  }

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

(* --- set-up: observability, faults, monitor, heal and balance --- *)

let try_write what path f =
  try f path with Sys_error msg -> fail "error: cannot write %s file: %s" what msg

(* Every driver writes the same trace and metrics artifacts, so a file
   from any of them feeds bin/oppic_prof unchanged. A metrics path
   ending in [.csv] selects the CSV exporter, anything else JSONL. *)
let obs_finish f =
  (match f.trace with
  | Some path ->
      try_write "trace" path Opp_obs.Trace.write_chrome;
      Printf.printf "trace: %d spans written to %s (open in chrome://tracing or Perfetto)\n%!"
        (Opp_obs.Trace.span_count ()) path
  | None -> ());
  (match f.metrics with
  | Some path ->
      try_write "metrics" path (fun p ->
          if Filename.check_suffix p ".csv" then Opp_obs.Metrics.write_csv p
          else Opp_obs.Metrics.write_jsonl p);
      Printf.printf "metrics: %d rows written to %s\n%!"
        (List.length (Opp_obs.Metrics.rows ()))
        path
  | None -> ());
  if f.obs_summary then begin
    Format.printf "@.-- trace summary --@.%a" (fun fmt () -> Opp_obs.Trace.summary fmt ()) ();
    Format.printf "@.-- metrics summary --@.%a" (fun fmt () -> Opp_obs.Metrics.summary fmt ()) ()
  end

(* Everything that must precede the app's own set-up: the trace and
   metrics sinks, the run's mode lines, and the fault schedule (parsed
   and installed before any simulation state exists, so every message
   of the run is subject to it). *)
let setup f =
  if f.trace <> None || f.obs_summary then Opp_obs.Trace.enable ();
  if f.metrics <> None || f.obs_summary then Opp_obs.Metrics.enable ();
  if f.locality <> None then Printf.printf "locality: cell-binned iteration enabled\n%!";
  if f.check then Printf.printf "sanitizer: opp_check runtime checks enabled\n%!";
  match f.faults with
  | None -> ()
  | Some spec -> (
      match Opp_resil.Fault.parse spec with
      | Ok inj ->
          Opp_resil.Fault.install inj;
          Format.printf "faults: %a@." Opp_resil.Fault.pp inj
      | Error msg -> fail "error: bad --faults spec: %s" msg)

let report_faults () =
  match Opp_resil.Fault.active () with
  | Some inj ->
      let stats = Opp_resil.Fault.stats inj in
      if stats <> [] then
        Printf.printf "resilience: %s\n%!"
          (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) stats))
  | None -> ()

(* --watch turns the monitor on, --watch-dir places its artifacts
   (heartbeats.jsonl, alerts.jsonl, status.json — the file oppic_top
   renders), --heartbeat-every decimates collection, and
   --watch-strict turns any alert into exit status 5. *)
let watch_setup f ~meta ~nranks =
  if not f.watch then None
  else begin
    if f.heartbeat_every < 1 then fail "error: --heartbeat-every must be >= 1";
    (* alerts are mirrored into the metrics registry (watch.alerts,
       watch.A00x), so monitoring implies metrics collection *)
    Opp_obs.Metrics.enable ();
    let config =
      {
        Opp_watch.Monitor.default_config with
        Opp_watch.Monitor.dir = f.watch_dir;
        heartbeat_every = f.heartbeat_every;
        strict = f.watch_strict;
      }
    in
    Some (Opp_watch.Monitor.create ~config ~meta ~nranks ())
  end

(* Final snapshot, alert recap, and the strict-mode exit. *)
let watch_finish = function
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

(* --heal as a mode; a mode the world cannot recover with is an error
   before any step runs. *)
let parse_heal f ~nranks =
  Option.map
    (fun s ->
      match Result.bind (Opp_heal.Heal.mode_of_string s) (fun m ->
                Result.map (fun () -> m) (Apps_dist.Dist_heal.applicable ~nranks m))
      with
      | Ok m ->
          Printf.printf "heal: online recovery armed (mode=%s)\n%!"
            (Opp_heal.Heal.mode_to_string m);
          m
      | Error msg -> fail "error: bad --heal: %s" msg)
    f.heal

(* The --balance trio as a policy config (hysteresis and the netmodel
   predicted-gain guard live in Opp_balance.Policy); [None] when off. *)
let parse_balance f =
  match Opp_balance.Policy.mode_of_string f.balance with
  | Error msg -> fail "error: bad --balance: %s" msg
  | Ok Opp_balance.Policy.Off -> None
  | Ok mode ->
      if f.balance_threshold <= 1.0 then fail "error: --balance-threshold must be > 1";
      if f.balance_every < 1 then fail "error: --balance-every must be >= 1";
      Printf.printf "balance: dynamic load balancing armed (mode=%s threshold=%.2f every=%d)\n%!"
        (Opp_balance.Policy.mode_to_string mode)
        f.balance_threshold f.balance_every;
      Some
        {
          Opp_balance.Policy.default_config with
          Opp_balance.Policy.mode;
          threshold = f.balance_threshold;
          min_interval = f.balance_every;
          net = Some Opp_perf.Netmodel.slingshot_cpu;
        }

(* --- the run --- *)

(* Where a backend runs: its modelled device, its worker pool (on mpi,
   the per-rank Domains pool of the MPI+OpenMP hybrid) and its rank
   count. *)
let target f =
  match f.backend with
  | "seq" -> (None, None, 1)
  | "omp" -> (None, Some f.workers, 1)
  | "mpi" -> (None, (if f.hybrid then Some f.workers else None), f.ranks)
  | b -> (
      match Opp_perf.Device.of_name b with
      | Some d when Opp_perf.Device.is_gpu d -> (Some d, None, 1)
      | _ -> fail "unknown backend '%s' (seq|omp|mpi|v100|h100|mi210|mi250x)" b)

(* Run an app on the backend [f.backend] names: one handle from
   [create ~profile ~device ~workers ~nranks], stepped through the one
   loop with the step span on the driver track (one past the last rank,
   so per-rank timelines stay rank-only). Before each step's metrics
   row the app sets its [gauges]; [line d s] prints its progress line
   for step [s], and [summary] its end-of-run lines. *)
let run f ~name ~create ~gauges ~line ~summary =
  let module H = Apps_dist.Dist_handle in
  let device, workers, nranks = target f in
  if f.hybrid && f.backend <> "mpi" then
    Printf.printf "hybrid: --hybrid only applies to the mpi backend; ignored\n%!";
  let profile = Opp_core.Profile.create () in
  let monitor =
    watch_setup f
      ~meta:[ ("app", name); ("backend", f.backend); ("ranks", string_of_int nranks) ]
      ~nranks
  in
  Opp_obs.Trace.name_track nranks "driver";
  let healer = Option.map (fun mode -> Apps_dist.Dist_heal.make ~mode ()) (parse_heal f ~nranks) in
  let balancer =
    Option.map (fun config -> Apps_dist.Dist_balance.make ~config ()) (parse_balance f)
  in
  let h =
    Apps_dist.Drive.drive ?watch:monitor ?healer ?balancer ~steps:f.steps
      ~ckpt_every:f.ckpt_every ~ckpt_dir:f.ckpt_dir ~restart:f.restart
      ~make:(fun () ->
        let d = create ~profile ~device ~workers ~nranks in
        Option.iter (H.set_watch d) monitor;
        d)
      ~do_step:(fun d s ->
        if f.inject_nan > 0 && s = f.inject_nan then H.poison d;
        Opp_obs.Trace.with_track nranks (fun () ->
            Opp_obs.Trace.with_span ~cat:"step" "step" (fun () -> H.step d));
        if !Opp_obs.Metrics.enabled then begin
          gauges d;
          Opp_obs.Metrics.tick ~step:s
        end;
        line d s)
      ()
  in
  H.shutdown h;
  Format.printf "@.%a@." (fun fmt () -> Opp_core.Profile.pp fmt ~t:profile ()) ();
  Format.printf "traffic: %a@." (fun fmt -> Opp_dist.Traffic.pp fmt) h.H.traffic;
  summary h;
  Option.iter
    (fun b ->
      let p = Apps_dist.Dist_balance.policy b in
      Printf.printf "balance: %d rebalance(s) over %d check(s)\n%!" (Opp_balance.Policy.fired p)
        (Opp_balance.Policy.checks p))
    balancer;
  Option.iter
    (fun s -> Printf.printf "locality: %d sorts performed\n%!" (Opp_locality.Sched.sorts s))
    h.H.locality;
  report_faults ();
  obs_finish f;
  watch_finish monitor

let main cmd =
  try exit (Cmd.eval ~catch:false cmd) with
  | Opp_check.Violation v ->
      prerr_endline (Opp_check.Diag.violation_to_string v);
      exit 3
  | Opp_resil.Ckpt.Corrupt msg -> fail "error: checkpoint rejected: %s" msg
