(** [opp_resil]: fault injection, detection, and recovery for the
    distributed substrate (docs/RESILIENCE.md).

    - {!Fault}: deterministic, seeded fault schedules (message drops,
      bit corruption, duplication, reordering, delays, stale replays,
      rank crashes/stalls) installed process-wide.
    - {!Retry}: bounded retry-with-accounted-backoff used by the
      communication modules to heal transient faults.
    - {!Ckpt}: the shard format ({!Ckpt.encode}/{!Ckpt.decode}, also
      the heal journal's) and backend-neutral sharded checkpoint/restart
      with checksummed manifests and atomic commits.
    - {!Codec}: FNV-64 checksums, checksummed big-endian word writes
      and atomic file writes.

    The detection envelope itself (sequence numbers, epoch tags,
    payload checksums) lives where the messages are:
    [Opp_dist.Exch] and [Opp_dist.Mailbox]. *)

module Codec = Codec
module Fault = Fault
module Retry = Retry
module Ckpt = Ckpt

exception Rank_crash = Fault.Rank_crash
