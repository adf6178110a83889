(** The one place a run's loop executor is chosen.

    Every app, on every backend, gets its {!Opp_core.Runner.t} here,
    through {!Dist_handle.create}: the runner a handle's ranks share. *)

(** The runner and the function that releases it. [device] selects
    the modelled GPU runner, otherwise [workers] the Domains pool,
    otherwise the sequential one. [checked]
    wraps the result in the opp_check sanitizer, which instruments
    every loop (stale-halo reads included, see [Opp_dist.Freshness]). *)
let select ~profile ?workers ?device ~checked () =
  let runner, shutdown =
    match (device, workers) with
    | Some device, _ ->
        (Opp_gpu.Gpu_runner.runner (Opp_gpu.Gpu_runner.create ~profile device), ignore)
    | None, Some workers ->
        let th = Opp_thread.Thread_runner.create ~profile ~workers () in
        (Opp_thread.Thread_runner.runner th, fun () -> Opp_thread.Thread_runner.shutdown th)
    | None, None -> (Opp_core.Runner.seq ~profile (), ignore)
  in
  ((if checked then Opp_check.checked ~profile runner else runner), shutdown)
