(** Watch plumbing shared by the distributed drivers and the
    single-rank backends.

    Both SPMD drivers ({!Fempic_dist}, {!Cabana_dist}) feed the same
    [Opp_watch.Monitor] the same way: per-rank phase wall times
    measured by {!rank_scope} (every rank phase and move), and one
    heartbeat per rank at each monitored step boundary carrying
    population, fill, stale-halo fraction, the canary count over the
    rank's field dats, and the run-wide traffic/retransmit deltas
    (reported on rank 0 so summing across ranks stays correct). The
    single-rank backends use the same path through {!of_ledger}: one
    rank whose phase times are read from the runner's ledger.

    A heartbeat's [phase_us] is the per-entry change of a rank's
    [Profile] ledger since the previous heartbeat, so it covers the
    whole interval when heartbeats are decimated and sums to the
    ledger's own seconds. Everything is [option]-shaped: a driver
    without a monitor pays one match per phase and per step. *)

open Opp_core

type t = {
  mon : Opp_watch.Monitor.t;
  ledgers : Profile.t array;  (** per-rank phase ledgers *)
  seen : (string, int * float) Hashtbl.t array;
      (** per rank: each entry's (calls, seconds) at the last heartbeat *)
  mutable last_mono : float;
  mutable last_bytes : float;
  mutable last_retries : int;
  mutable last_totals : float array;
      (** per-rank total phase µs of the last heartbeat interval — the
          live load signal [--balance=phases] reads *)
}

(* Rank [r]'s phase µs since the last call, in first-recorded order;
   entries not launched in the interval are left out. *)
let drain w r =
  let seen = w.seen.(r) in
  List.filter_map
    (fun (name, (e : Profile.entry)) ->
      let calls0, s0 = Option.value ~default:(0, 0.0) (Hashtbl.find_opt seen name) in
      Hashtbl.replace seen name (e.calls, e.seconds);
      if e.calls > calls0 then Some (name, (e.seconds -. s0) *. 1e6) else None)
    (Profile.entries ~t:w.ledgers.(r) ())

let of_ledgers ledgers mon =
  let n = Array.length ledgers in
  let w =
    {
      mon;
      ledgers;
      seen = Array.init n (fun _ -> Hashtbl.create 16);
      last_mono = Opp_obs.Clock.now_s ();
      last_bytes = 0.0;
      last_retries = 0;
      last_totals = Array.make n 0.0;
    }
  in
  (* what the ledgers hold already (set-up, restart) is not a phase *)
  Array.iteri (fun r _ -> ignore (drain w r)) ledgers;
  w

(** [nranks] ranks, each with a fresh phase ledger fed by {!rank_scope}. *)
let create ~nranks mon = of_ledgers (Array.init nranks (fun _ -> Profile.create ())) mon

(** One rank whose phases are the entries of [ledger] — a single-rank
    backend's runner ledger, where every launch and host phase is
    already measured. *)
let of_ledger ledger mon = of_ledgers [| ledger |] mon

let monitor w = w.mon

(** Run rank [r]'s share of phase [name] on the rank's trace track,
    as one measurement: the same clock pair is the phase span and the
    rank's phase-ledger entry — so each rank's par-loop spans land
    nested on its own timeline in the exported trace. *)
let rank_scope wo r name f =
  Opp_obs.Trace.with_track r (fun () ->
      match wo with
      | None when not !Opp_obs.Trace.enabled -> f ()
      | _ ->
          Profile.measure ~cat:"phase" ~name f (fun _ seconds ->
              Option.iter
                (fun w ->
                  Profile.record ~t:w.ledgers.(r) ~name ~elems:0 ~seconds ~flops:0.0 ~bytes:0.0
                    ())
                wo;
              []))

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
let step_done ?traffic wo ~step ~particles ~capacity ~nonfinite ~dirty =
  match wo with
  | None -> ()
  | Some w ->
      if Opp_watch.Monitor.due w.mon ~step then begin
        let now = Opp_obs.Clock.now_s () in
        let step_us = (now -. w.last_mono) *. 1e6 in
        w.last_mono <- now;
        let bytes = Option.fold ~none:0.0 ~some:Opp_dist.Traffic.total_bytes traffic in
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
        let totals = Array.make (Array.length w.ledgers) 0.0 in
        for r = 0 to Array.length w.ledgers - 1 do
          let phase_us = drain w r in
          totals.(r) <- List.fold_left (fun acc (_, us) -> acc +. us) 0.0 phase_us;
          let cap = capacity r in
          let n = particles r in
          Opp_watch.Monitor.beat w.mon
            (Opp_watch.Heartbeat.make ~rank:r ~step ~step_us ~particles:n
               ~fill:(if cap > 0 then float_of_int n /. float_of_int cap else 0.0)
               ~dirty_frac:(dirty r)
               ~comm_bytes:(if r = 0 then dbytes else 0.0)
               ~retransmits:(if r = 0 then float_of_int dretries else 0.0)
               ~nonfinite:(nonfinite r) ~phase_us ())
        done;
        w.last_totals <- totals;
        Opp_watch.Monitor.step_done ~fault_stats w.mon ~step
      end
