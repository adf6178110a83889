(** One rank's per-step health record.

    A heartbeat is everything the live monitor knows about a rank at a
    step boundary: progress (step), wall time spent, population
    (particle count, fill ratio of the allocated storage), halo
    health (the fraction of the rank's declared mesh dats whose halo
    is dirty at the step boundary), traffic
    (communication bytes and retransmissions since the previous
    heartbeat), the non-finite canary count over the watched field
    dats, and the per-phase microsecond breakdown. Heartbeats are
    appended to [heartbeats.jsonl] (one JSON object per line) and the
    newest one per rank is mirrored into the [status.json] snapshot
    that [oppic_top] renders.

    Timestamps come in pairs — monotonic seconds for intra-run deltas
    and wall-clock epoch seconds so external tailers can align streams
    across ranks and machines (same convention as the
    [Opp_obs.Metrics] JSONL rows). *)

type t = {
  hb_rank : int;
  hb_step : int;
  hb_t_mono : float;  (** monotonic seconds at emission *)
  hb_t_epoch : float;  (** wall-clock epoch seconds at emission *)
  hb_step_us : float;
      (** wall time covered by this heartbeat (µs) — the whole
          interval since the rank's previous heartbeat *)
  hb_particles : int;  (** live particles on this rank *)
  hb_fill : float;  (** particles / allocated capacity *)
  hb_dirty_frac : float;
      (** fraction of the rank's declared mesh dats whose halo is dirty
          at the step boundary; 0 on one rank, which has no halo *)
  hb_comm_bytes : float;  (** communication bytes since last heartbeat *)
  hb_retransmits : float;  (** healed retransmissions since last heartbeat *)
  hb_nonfinite : int;  (** non-finite values found by the field canary *)
  hb_phase_us : (string * float) list;  (** per-phase µs, launch order *)
}

let make ~rank ~step ~step_us ~particles ~fill ?(dirty_frac = 0.0) ?(comm_bytes = 0.0)
    ?(retransmits = 0.0) ?(nonfinite = 0) ?(phase_us = []) () =
  {
    hb_rank = rank;
    hb_step = step;
    hb_t_mono = Opp_obs.Clock.now_s ();
    hb_t_epoch = Unix.gettimeofday ();
    (* whole µs is plenty of resolution, and integer-valued numbers
       take the cheap path through the JSON emitter *)
    hb_step_us = Float.round step_us;
    hb_particles = particles;
    hb_fill = fill;
    hb_dirty_frac = dirty_frac;
    hb_comm_bytes = comm_bytes;
    hb_retransmits = retransmits;
    hb_nonfinite = nonfinite;
    hb_phase_us = List.map (fun (n, us) -> (n, Float.round us)) phase_us;
  }

module J = Opp_obs.Json

let to_json hb =
  J.Obj
    [
      ("rank", J.Num (float_of_int hb.hb_rank));
      ("step", J.Num (float_of_int hb.hb_step));
      ("t_mono", J.Num hb.hb_t_mono);
      ("t_epoch", J.Num hb.hb_t_epoch);
      ("step_us", J.Num hb.hb_step_us);
      ("particles", J.Num (float_of_int hb.hb_particles));
      ("fill", J.Num hb.hb_fill);
      ("dirty_frac", J.Num hb.hb_dirty_frac);
      ("comm_bytes", J.Num hb.hb_comm_bytes);
      ("retransmits", J.Num hb.hb_retransmits);
      ("nonfinite", J.Num (float_of_int hb.hb_nonfinite));
      ("phase_us", J.Obj (List.map (fun (n, us) -> (n, J.Num us)) hb.hb_phase_us));
    ]

let of_json j =
  let num name =
    match Option.bind (J.member name j) J.num with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "heartbeat: missing numeric field '%s'" name)
  in
  let ( let* ) = Result.bind in
  let* rank = num "rank" in
  let* step = num "step" in
  let* t_mono = num "t_mono" in
  let* t_epoch = num "t_epoch" in
  let* step_us = num "step_us" in
  let* particles = num "particles" in
  let* fill = num "fill" in
  let* dirty_frac = num "dirty_frac" in
  let* comm_bytes = num "comm_bytes" in
  let* retransmits = num "retransmits" in
  let* nonfinite = num "nonfinite" in
  let phase_us =
    match J.member "phase_us" j with
    | Some (J.Obj fields) ->
        List.filter_map (fun (n, v) -> Option.map (fun us -> (n, us)) (J.num v)) fields
    | _ -> []
  in
  Ok
    {
      hb_rank = int_of_float rank;
      hb_step = int_of_float step;
      hb_t_mono = t_mono;
      hb_t_epoch = t_epoch;
      hb_step_us = step_us;
      hb_particles = int_of_float particles;
      hb_fill = fill;
      hb_dirty_frac = dirty_frac;
      hb_comm_bytes = comm_bytes;
      hb_retransmits = retransmits;
      hb_nonfinite = int_of_float nonfinite;
      hb_phase_us = phase_us;
    }
