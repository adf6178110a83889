(** Watch plumbing shared by the distributed drivers.

    Both SPMD drivers ({!Fempic_dist}, {!Cabana_dist}) feed the same
    [Opp_watch.Monitor] the same way: per-rank phase wall times
    accumulated inside {!rank_scope} (every rank phase and move), and
    one heartbeat per rank at each monitored step boundary carrying
    population, fill, stale-halo fraction, the canary count over the
    rank's field dats, and the run-wide traffic/retransmit deltas
    (reported on rank 0 so summing across ranks stays correct). This
    module is that shared state: the monitor handle plus the delta
    baselines.

    Everything is [option]-shaped: a driver without a monitor pays one
    match per phase and per step. When a monitor is attached but a
    step is not [due] (heartbeat decimation), phase times and traffic
    keep accumulating so the next heartbeat covers the whole
    interval. *)

open Opp_core

type t = {
  mon : Opp_watch.Monitor.t;
  nranks : int;
  phases : (string, float array) Hashtbl.t;  (** phase -> per-rank µs *)
  mutable order : string list;  (** first-use phase order, reversed *)
  mutable last_mono : float;
  mutable last_bytes : float;
  mutable last_retries : int;
  mutable last_totals : float array;
      (** per-rank total phase µs of the last drained heartbeat
          interval — the live load signal [--balance=phases] reads
          (the phase table itself is cleared at every heartbeat) *)
}

let create ~nranks mon =
  {
    mon;
    nranks;
    phases = Hashtbl.create 16;
    order = [];
    last_mono = Opp_obs.Clock.now_s ();
    last_bytes = 0.0;
    last_retries = 0;
    last_totals = Array.make nranks 0.0;
  }

let monitor w = w.mon

(** Accumulate [f]'s wall time under [name] for rank [r]. *)
let timed wo r name f =
  match wo with
  | None -> f ()
  | Some w ->
      let t0 = Opp_obs.Clock.now_s () in
      let res = f () in
      let dt_us = (Opp_obs.Clock.now_s () -. t0) *. 1e6 in
      let arr =
        match Hashtbl.find_opt w.phases name with
        | Some a -> a
        | None ->
            let a = Array.make w.nranks 0.0 in
            Hashtbl.add w.phases name a;
            w.order <- name :: w.order;
            a
      in
      arr.(r) <- arr.(r) +. dt_us;
      res

(** Run rank [r]'s share of phase [name] under the planner's rank
    scope, on the rank's trace track inside a phase span, with the
    phase timer running — so each rank's par-loop spans land nested on
    its own timeline in the exported trace. *)
let rank_scope plan wo r name f =
  Opp_plan.Exec.with_rank plan r (fun () ->
      Opp_obs.Trace.with_track r (fun () ->
          Opp_obs.Trace.with_span ~cat:"phase" name (fun () -> timed wo r name f)))

(** Mark a rank's health state on the monitor (e.g. "respawned"). *)
let set_rank_state wo rank state =
  Option.iter (fun w -> Opp_watch.Monitor.set_rank_state w.mon rank state) wo

(** The world shrank onto [nranks] survivors: drop the dead slot on the
    monitor and restart the per-rank plumbing at the new shape. *)
let shrink wo ~dead ~step ~nranks =
  Option.map
    (fun w ->
      Opp_watch.Monitor.shrink_ranks w.mon ~dead
        ~detail:(Printf.sprintf "rank %d lost at step %d; shrunk to %d ranks" dead step nranks);
      create ~nranks w.mon)
    wo

(* Drain rank [r]'s accumulated phase times in first-use order. *)
let phases_of w r =
  List.rev_map
    (fun name ->
      match Hashtbl.find_opt w.phases name with
      | Some a -> (name, a.(r))
      | None -> (name, 0.0))
    w.order

let clear_phases w = Hashtbl.iter (fun _ a -> Array.fill a 0 (Array.length a) 0.0) w.phases

(** Per-rank total phase wall time (µs) over the last completed
    heartbeat interval — a snapshot that survives the heartbeat drain,
    so the load balancer can read it at any step boundary. *)
let rank_load_us w = w.last_totals

(** Fraction of [dats] whose halo copies are stale at this boundary. *)
let stale_halo_frac dats =
  match dats with
  | [] -> 0.0
  | _ ->
      let dirty =
        List.fold_left (fun acc d -> if d.Types.d_halo_dirty then acc + 1 else acc) 0 dats
      in
      float_of_int dirty /. float_of_int (List.length dats)

(** One monitored step boundary: assemble every rank's heartbeat and
    run the detector bank. The per-rank closures index simulated
    ranks; [traffic] supplies the run-wide byte counter. *)
let step_done wo ~step ~particles ~capacity ~nonfinite ~dirty ~(traffic : Opp_dist.Traffic.t) =
  match wo with
  | None -> ()
  | Some w ->
      if Opp_watch.Monitor.due w.mon ~step then begin
        let now = Opp_obs.Clock.now_s () in
        let step_us = (now -. w.last_mono) *. 1e6 in
        w.last_mono <- now;
        let bytes = Opp_dist.Traffic.total_bytes traffic in
        let dbytes = bytes -. w.last_bytes in
        w.last_bytes <- bytes;
        let fault_stats =
          match Opp_resil.Fault.active () with
          | Some inj -> Opp_resil.Fault.stats inj
          | None -> []
        in
        let retries = Option.value ~default:0 (List.assoc_opt "retries" fault_stats) in
        let dretries = retries - w.last_retries in
        w.last_retries <- retries;
        for r = 0 to w.nranks - 1 do
          let cap = capacity r in
          let n = particles r in
          Opp_watch.Monitor.beat w.mon
            (Opp_watch.Heartbeat.make ~rank:r ~step ~step_us ~particles:n
               ~fill:(if cap > 0 then float_of_int n /. float_of_int cap else 0.0)
               ~dirty_frac:(dirty r)
               ~comm_bytes:(if r = 0 then dbytes else 0.0)
               ~retransmits:(if r = 0 then float_of_int dretries else 0.0)
               ~nonfinite:(nonfinite r) ~phase_us:(phases_of w r) ())
        done;
        (let totals = Array.make w.nranks 0.0 in
         Hashtbl.iter
           (fun _ a -> Array.iteri (fun r v -> totals.(r) <- totals.(r) +. v) a)
           w.phases;
         w.last_totals <- totals);
        clear_phases w;
        Opp_watch.Monitor.step_done ~fault_stats w.mon ~step
      end
