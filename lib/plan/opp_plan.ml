(** [opp_plan] — whole-step cross-loop dataflow analysis and the
    legality-proved plan optimizer.

    Per-loop analysis ({!Opp_check}) sees launches in isolation; this
    library restores the schedule. A {!Prog.t} step program (ordered
    par_loops, particle_moves, halo collectives and host phases) comes
    from a manifest whose [exchange]/[reduce]/[fresh] statements
    interleave with its loops ({!Prog.of_ir}). {!Flow} runs cyclic forward halo-freshness and backward
    halo-liveness fixpoints over it, emitting W110 (redundant
    exchange), W111 (dead write), I120 (fusable pair) and E090
    (exchange-ordering violation); {!Plan} turns the analysis into an
    optimized plan — exchange elision plus fused loop groups — and
    independently re-proves its legality on the optimized program.
    {!Interp} is the deterministic synthetic executor behind the
    qcheck properties (planned == unplanned owned-state hash). The
    running apps need no plan: their halo collectives are derived from
    the same access descriptors at every launch
    ([Opp_dist.World.derive]).

    Full diagnostic catalogue: docs/ANALYSIS.md. *)

module Prog = Prog
module Flow = Flow
module Plan = Plan
module Interp = Interp
