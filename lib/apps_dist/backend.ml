(** The one place a run's loop executor is chosen.

    Every app, on every backend, gets its {!Opp_core.Runner.t} here,
    through {!Dist_handle.create}: the runner a handle's ranks share. *)

(** Fold the locality flags into a scheduler config; [None] (the
    as-stored iteration) unless at least one of them is set.
    [sort_auto], [sort_every > 0] and [sort_threshold > 0] each imply
    binned iteration; a positive threshold implies [sort_auto]. *)
let locality ~binned ~sort_auto ~sort_every ~sort_threshold =
  if (not binned) && (not sort_auto) && sort_every = 0 && sort_threshold <= 0.0 then None
  else
    let default = Opp_locality.Sched.default_config in
    Some
      {
        default with
        Opp_locality.Sched.auto_sort = sort_auto || sort_threshold > 0.0;
        sort_threshold =
          (if sort_threshold > 0.0 then sort_threshold
           else default.Opp_locality.Sched.sort_threshold);
        sort_every;
      }

(** The runner, its sort scheduler (from [locality]) and the function
    that releases it. [device] selects the modelled GPU runner,
    otherwise [workers] the Domains pool, otherwise the binned runner
    when [locality] is set, otherwise the sequential one. [checked]
    wraps the result in the opp_check sanitizer, which instruments
    every loop (stale-halo reads included, see [Opp_dist.Freshness]). *)
let select ~profile ?locality ?workers ?device ~checked () =
  let sched = Option.map (fun config -> Opp_locality.Sched.create ~config ()) locality in
  let runner, shutdown =
    match (device, workers) with
    | Some device, _ ->
        (Opp_gpu.Gpu_runner.runner (Opp_gpu.Gpu_runner.create ~profile ?sched device), ignore)
    | None, Some workers ->
        let th = Opp_thread.Thread_runner.create ~profile ?sched ~workers () in
        (Opp_thread.Thread_runner.runner th, fun () -> Opp_thread.Thread_runner.shutdown th)
    | None, None -> (
        match sched with
        | Some s -> (Opp_locality.Binned.runner ~profile s, ignore)
        | None -> (Opp_core.Runner.seq ~profile (), ignore))
  in
  ((if checked then Opp_check.checked ~profile runner else runner), sched, shutdown)
