(** [opp_watch]: live in-run health monitoring (docs/OBSERVABILITY.md,
    "Live monitoring").

    A streaming health layer observing every step boundary:

    - {!Heartbeat}: the per-rank, per-step health record (wall time,
      particle count and fill ratio, the fraction of the rank's declared
      mesh dats whose halo is dirty at the step boundary — 0 on one
      rank, which has no halo —, traffic and retransmit deltas, non-finite
      canary count, per-phase µs).
    - {!Detect}: the sliding-window anomaly detectors — EWMA step-time
      regression, particle imbalance, non-finite canary, monotonic
      particle leak, retransmit storm, stalled rank — all with
      hysteresis, all deterministic over the observation stream.
    - {!Alert}: structured alerts with stable [A00x] codes.
    - {!Monitor}: the run-level aggregator — append-only
      [heartbeats.jsonl] / [alerts.jsonl] streams, the atomically
      replaced [status.json] snapshot that [oppic_top] renders, alert
      routing into [Opp_obs.Metrics], and the policy hook.
    - {!Canary}: the non-finite scan over watched field dats.

    The seq/omp/gpu drivers feed the monitor from the
    [Opp_core.Runner] step boundary and phase ledger; the distributed
    drivers ([Opp_apps_dist]) feed it per simulated rank. *)

module Heartbeat = Heartbeat
module Alert = Alert
module Detect = Detect
module Monitor = Monitor
module Canary = Canary
