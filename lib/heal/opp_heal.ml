(** [opp_heal]: online rank-failure recovery — respawn and shrinking
    re-partition without a job restart (docs/RESILIENCE.md, "Online
    recovery").

    - {!Heal}: the recovery mode ([Respawn] / [Shrink]), its CLI
      spelling, and the [heal.*] metrics.
    - {!Journal}: each rank's newest end-of-step state as the encoded
      checkpoint shard ([Opp_resil.Ckpt.encode]) and its checksum, from
      which recovery decodes a dead rank's exact state with the
      restart path's [Opp_resil.Ckpt.decode].

    The communicator-side pieces live with the communicators
    ([Opp_dist.Exch.fence], [Opp_dist.Mailbox.mark_dead]/reroute,
    [Opp_dist.Partition.heal_reassign]); the app-specific
    reconstruction drivers live in [Opp_apps_dist.Dist_heal]. *)

module Heal = Heal
module Journal = Journal
