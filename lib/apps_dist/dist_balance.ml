(** Dynamic load-balancing drivers: the glue between the generic
    policy ([Opp_balance.Policy]) and the two distributed apps
    (docs/PERFORMANCE.md, "Dynamic load balancing").

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

type 'a t = {
  b_policy : Policy.t;
  b_check : 'a -> step:int -> event option;
}

let policy t = t.b_policy
let mode t = (Policy.config t.b_policy).Policy.mode

(** Per-step scheduling point; [Some event] when a rebalance executed
    this boundary. *)
let check t app ~step = t.b_check app ~step

(* Build a balancer from an app's observation and execution
   primitives. [payload_width] is the app's declared migrant payload in
   doubles (the move-cost estimate ships one payload plus its cell id
   per excess particle); [phase_loads] returns the measured per-rank
   wall-time signal when a monitor is attached (the [Phases] mode falls
   back to particle counts without one — documented in PERFORMANCE.md);
   [cell_weights] is the per-global-cell particle count; [cell_rank]
   the current ownership (used to spread a rank's phase load uniformly
   over its cells); [execute] runs the app's migration epoch and
   returns cells moved; [ratio_after] re-reads the particle load ratio;
   [monitor] reaches the app's health monitor for the A009 alert. *)
let make ~config ~payload_width ~particle_loads ~phase_loads ~cell_weights ~cell_rank ~execute
    ~ratio_after ~monitor =
  let b_policy = Policy.create config in
  let b_check app ~step =
    if config.Policy.mode = Policy.Off then None
    else begin
      let ploads = particle_loads app in
      let loads, work_per_unit =
        match config.Policy.mode with
        | Policy.Phases -> (
            match phase_loads app with
            | Some l when Array.fold_left ( +. ) 0.0 l > 0.0 -> (l, work_per_us)
            | _ -> (ploads, work_per_particle))
        | _ -> (ploads, work_per_particle)
      in
      (* the epoch ships roughly the straggler's excess particles *)
      let n = Array.length ploads in
      let mean = Array.fold_left ( +. ) 0.0 ploads /. float_of_int (max n 1) in
      let mx = Array.fold_left Float.max 0.0 ploads in
      let payload_bytes = (payload_width app * 8) + 4 in
      let move_bytes = int_of_float ((mx -. mean) *. float_of_int payload_bytes) in
      Opp_balance.Balance.count "checks";
      match Policy.decide b_policy ~step ~loads ~move_bytes ~work_per_unit () with
      | Policy.No_action -> None
      | Policy.Rebalance { imbalance; predicted_gain = _ } ->
          let t0 = Opp_obs.Clock.now_s () in
          let weight =
            match config.Policy.mode with
            | Policy.Phases -> (
                match phase_loads app with
                | Some l when Array.fold_left ( +. ) 0.0 l > 0.0 ->
                    (* spread each rank's measured load uniformly over
                       its owned cells, so moving cells moves load *)
                    let cr = cell_rank app in
                    let counts = Array.make (Array.length l) 0 in
                    Array.iter (fun r -> counts.(r) <- counts.(r) + 1) cr;
                    let w = Array.make (Array.length cr) 0.0 in
                    Array.iteri
                      (fun c r ->
                        if counts.(r) > 0 then w.(c) <- l.(r) /. float_of_int counts.(r))
                      cr;
                    w
                | _ -> cell_weights app)
            | _ -> cell_weights app
          in
          let moved = execute app ~max_move_frac:config.Policy.max_move_frac ~weight in
          if moved = 0 then None
          else begin
            let ms = (Opp_obs.Clock.now_s () -. t0) *. 1000.0 in
            let after = ratio_after app in
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
              (monitor app);
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
  in
  { b_policy; b_check }

(** Balancer for the distributed fempic driver. *)
let fempic ~config () =
  make ~config ~payload_width:Fempic_dist.payload_width
    ~particle_loads:(fun (app : Fempic_dist.t) ->
      Array.map
        (fun sim -> float_of_int sim.Fempic.Fempic_sim.parts.Opp_core.Types.s_size)
        app.Fempic_dist.sims)
    ~phase_loads:(fun app -> Option.map Dist_watch.rank_load_us app.Fempic_dist.watch)
    ~cell_weights:Fempic_dist.cell_particle_weights
    ~cell_rank:(fun app -> app.Fempic_dist.part.Opp_dist.Tet_part.cell_rank)
    ~execute:(fun app ~max_move_frac ~weight ->
      Fempic_dist.rebalance ~max_move_frac app ~weight:(fun c -> weight.(c)))
    ~ratio_after:(fun app -> 1.0 +. Fempic_dist.particle_imbalance app)
    ~monitor:(fun app -> Option.map Dist_watch.monitor app.Fempic_dist.watch)

(** Balancer for the distributed CabanaPIC driver. *)
let cabana ~config () =
  make ~config ~payload_width:Cabana_dist.payload_width
    ~particle_loads:(fun (app : Cabana_dist.t) ->
      Array.map
        (fun sim -> float_of_int sim.Cabana.Cabana_sim.parts.Opp_core.Types.s_size)
        app.Cabana_dist.sims)
    ~phase_loads:(fun app -> Option.map Dist_watch.rank_load_us app.Cabana_dist.watch)
    ~cell_weights:Cabana_dist.cell_particle_weights
    ~cell_rank:(fun app -> app.Cabana_dist.cell_rank)
    ~execute:(fun app ~max_move_frac ~weight ->
      Cabana_dist.rebalance ~max_move_frac app ~weight:(fun c -> weight.(c)))
    ~ratio_after:(fun app -> 1.0 +. Cabana_dist.particle_imbalance app)
    ~monitor:(fun app -> Option.map Dist_watch.monitor app.Cabana_dist.watch)
