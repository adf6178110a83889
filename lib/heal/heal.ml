(** Online rank-failure recovery: shared mode, metrics, and recovery
    bookkeeping (docs/RESILIENCE.md, "Online recovery").

    When a rank crashes ([A007]) or stalls past its deadline ([A006]),
    the surviving ranks epoch-fence the communicator
    ({!Opp_dist.Exch.fence} — stragglers stamped with the dead epoch
    are quarantined by the stale-tag check) and drain the mailbox
    (dead-destination migrants reroute to their recovery owner), then
    recover in one of two modes:

    - {!Respawn}: the dead rank is reconstructed in-process from its
      checksummed end-of-step snapshot ({!Journal}); survivors are
      untouched and the continuation is bit-identical to the
      fault-free run.
    - {!Shrink}: the job degrades to the surviving ranks — the dead
      rank's cells are re-bisected among its neighbours
      ({!Opp_dist.Partition.heal_reassign}), its particles, dats, and
      halo links redistributed, exchanges rebuilt (revalidating E07x)
      and freshness re-derived. Not bit-identical (float reduction
      order changes); conservation and the state-hash oracle validate
      it instead.

    The app-specific reconstruction lives in [Opp_apps_dist]
    ([Dist_heal]); this module owns what both apps and the CLI share:
    the mode, its spelling, and the [heal.*] metrics. *)

type mode = Respawn | Shrink

let mode_to_string = function Respawn -> "respawn" | Shrink -> "shrink"

let mode_of_string = function
  | "respawn" -> Ok Respawn
  | "shrink" -> Ok Shrink
  | s -> Error (Printf.sprintf "unknown heal mode '%s' (respawn|shrink)" s)

(** One completed recovery: counts [heal.recoveries] and
    [heal.<mode>], and records the wall-clock latency under
    [heal.recovery_ms] (gauge: last recovery) and the
    [heal.recovery_ms] histogram. *)
let record_recovery ~mode ~ms =
  if !Opp_obs.Metrics.enabled then begin
    Opp_obs.Metrics.add "heal.recoveries" 1.0;
    Opp_obs.Metrics.add ("heal." ^ mode_to_string mode) 1.0;
    Opp_obs.Metrics.set "heal.recovery_ms" ms;
    Opp_obs.Metrics.observe "heal.recovery_ms" ms
  end
