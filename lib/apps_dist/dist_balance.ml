(** Dynamic load-balancing drivers: the glue between the generic
    policy ([Opp_balance.Policy]) and the handle ({!Dist_handle}) both
    apps run on every backend (docs/PERFORMANCE.md, "Dynamic load balancing").

    A balancer owns one policy instance and exposes a single per-step
    hook, {!check}: read the configured load signal (per-rank particle
    counts, or measured per-rank phase wall time from the attached
    [Dist_watch]), ask the policy, and — when it fires — execute the
    app's live migration epoch, account the [balance.*] metrics, and
    raise the A009 alert on the app's monitor. The caller
    ([Drive.drive]) takes its heal snapshot after this check, so a
    rebalanced step is snapshotted in its new shape. *)

module Policy = Opp_balance.Policy

(* straggler seconds per excess load unit, for the netmodel
   predicted-gain guard: one particle-step of push+deposit, and the
   µs -> s conversion for the phase signal *)
let work_per_particle = 1e-7
let work_per_us = 1e-6

(** One executed migration epoch, for the driver's log and the A009
    alert already raised on the app's monitor. *)
type event = {
  ev_step : int;
  ev_imbalance : float;  (** max/mean load ratio that tripped the policy *)
  ev_after : float;  (** max/mean particle ratio after the epoch *)
  ev_moved : int;  (** cells that changed owner *)
  ev_ms : float;  (** epoch wall latency *)
  ev_detail : string;
}

(** A balancer: one policy instance. *)
type t = Policy.t

let policy (t : t) = t
let mode t = (Policy.config t).Policy.mode
let make ~config () : t = Policy.create config

(** Per-step scheduling point; [Some event] when a rebalance executed
    this boundary. The load signal, the move-cost estimate (one
    declared migrant payload plus its cell id per excess particle), the
    epoch and the A009 alert all read the handle; the [Phases] mode
    falls back to particle counts without a monitor (documented in
    PERFORMANCE.md). *)
let check (b_policy : t) app ~step =
  let config = Policy.config b_policy in
  if config.Policy.mode = Policy.Off then None
  else begin
    let ploads =
      Array.init (Array.length app.Dist_handle.sims) (fun r ->
          float_of_int (Dist_handle.rank_parts app r).Opp_core.Types.s_size)
    in
    let phase_loads = Option.map Dist_watch.rank_load_us app.Dist_handle.watch in
    let loads, work_per_unit =
      match config.Policy.mode with
      | Policy.Phases -> (
          match phase_loads with
          | Some l when Array.fold_left ( +. ) 0.0 l > 0.0 -> (l, work_per_us)
          | _ -> (ploads, work_per_particle))
      | _ -> (ploads, work_per_particle)
    in
    (* the epoch ships roughly the straggler's excess particles *)
    let n = Array.length ploads in
    let mean = Array.fold_left ( +. ) 0.0 ploads /. float_of_int (max n 1) in
    let mx = Array.fold_left Float.max 0.0 ploads in
    let payload_bytes = (Dist_handle.payload_width app * 8) + 4 in
    let move_bytes = int_of_float ((mx -. mean) *. float_of_int payload_bytes) in
    Opp_balance.Balance.count "checks";
    match Policy.decide b_policy ~step ~loads ~move_bytes ~work_per_unit () with
    | Policy.No_action -> None
    | Policy.Rebalance { imbalance; predicted_gain = _ } ->
        let t0 = Opp_obs.Clock.now_s () in
        let weight =
          match config.Policy.mode with
          | Policy.Phases -> (
              match phase_loads with
              | Some l when Array.fold_left ( +. ) 0.0 l > 0.0 ->
                  (* spread each rank's measured load uniformly over
                     its owned cells, so moving cells moves load *)
                  let cr = app.Dist_handle.shape.Opp_dist.World.cell_rank app.Dist_handle.part in
                  let counts = Array.make (Array.length l) 0 in
                  Array.iter (fun r -> counts.(r) <- counts.(r) + 1) cr;
                  let w = Array.make (Array.length cr) 0.0 in
                  Array.iteri
                    (fun c r ->
                      if counts.(r) > 0 then w.(c) <- l.(r) /. float_of_int counts.(r))
                    cr;
                  w
              | _ -> Dist_handle.cell_particle_weights app)
          | _ -> Dist_handle.cell_particle_weights app
        in
        let moved =
          Dist_handle.rebalance ~max_move_frac:config.Policy.max_move_frac app ~weight:(fun c ->
              weight.(c))
        in
        if moved = 0 then None
        else begin
          let ms = (Opp_obs.Clock.now_s () -. t0) *. 1000.0 in
          let after = 1.0 +. Dist_handle.particle_imbalance app in
          Opp_balance.Balance.record_rebalance ~ms ~moved_cells:moved ~before:imbalance
            ~after ~step;
          let detail =
            Printf.sprintf "%d cells changed owner; load ratio %.2f -> %.2f (%s signal)"
              moved imbalance after
              (Policy.mode_to_string config.Policy.mode)
          in
          Option.iter
            (fun mon ->
              Opp_watch.Monitor.raise_alert mon
                (Opp_watch.Alert.rebalanced ~step ~imbalance
                   ~threshold:config.Policy.threshold detail))
            (Option.map Dist_watch.monitor app.Dist_handle.watch);
          Some
            {
              ev_step = step;
              ev_imbalance = imbalance;
              ev_after = after;
              ev_moved = moved;
              ev_ms = ms;
              ev_detail = detail;
            }
        end
  end

