(* opp_watch: detector hysteresis, determinism, heartbeat/alert
   round-trips and the monitor's file outputs (docs/OBSERVABILITY.md,
   live monitoring). The detector bank is pure over the observation
   stream, so every test here drives it with synthetic heartbeats and
   asserts on the exact alert codes that come back. *)

open Opp_watch

(* A synthetic heartbeat: the fields the detectors look at, everything
   else defaulted. *)
let hb ?(rank = 0) ?(step = 0) ?(step_us = 1000.0) ?(particles = 500) ?(nonfinite = 0) () =
  Heartbeat.make ~rank ~step ~step_us ~particles ~fill:0.5 ~nonfinite ()

(* Feed [steps] observations built by [beats_of : step -> beats] and
   collect every alert fired, in order. *)
let drive ?config ?(nranks = 2) ?(fault_delta = fun _ -> 0.0) ?(stall_delta = fun _ -> 0.0)
    ~steps beats_of =
  let det = Detect.create ?config ~nranks () in
  let alerts = ref [] in
  for s = 1 to steps do
    let fired =
      Detect.observe det ~step:s ~fault_delta:(fault_delta s) ~stall_delta:(stall_delta s)
        (beats_of s)
    in
    alerts := !alerts @ fired
  done;
  !alerts

let codes alerts = List.map (fun a -> a.Alert.al_code) alerts

let balanced_beats s =
  [ hb ~rank:0 ~step:s ~particles:500 (); hb ~rank:1 ~step:s ~particles:520 () ]

(* --- clean stream: no alerts --- *)

let test_clean_silent () =
  let alerts = drive ~steps:60 balanced_beats in
  Alcotest.(check (list string)) "clean run fires nothing" [] (codes alerts)

(* Bounded jitter in step time and population must never alert: the
   detectors' whole job is to ride out exactly this noise. The jitter
   is pseudo-random but derived from the qcheck seed, so failures
   shrink and replay. *)
let prop_jitter_silent =
  QCheck.Test.make ~name:"bounded jitter never alerts" ~count:100
    QCheck.(pair small_nat (list_of_size Gen.(return 40) (pair small_nat small_nat)))
    (fun (base, noise) ->
      let noise = Array.of_list noise in
      let n = Array.length noise in
      if n = 0 then true
      else
        let beats_of s =
          let ja, jb = noise.((s - 1) mod n) in
          (* step time within +-30% of nominal; ranks stay close; the
             population trend must dominate the noise amplitude, or the
             generator itself manufactures real leak episodes *)
          let us = 1000.0 +. float_of_int (ja mod 600) -. 300.0 in
          let p0 = 400 + base + (20 * s) + (jb mod 16) in
          let p1 = 400 + base + (20 * s) + (jb * 7 mod 16) in
          [ hb ~rank:0 ~step:s ~step_us:us ~particles:p0 ();
            hb ~rank:1 ~step:s ~step_us:us ~particles:p1 () ]
        in
        drive ~steps:40 beats_of = [])

(* --- A001: step-time regression, with hysteresis and re-arm --- *)

let test_slow_step () =
  (* nominal for 20 steps, a sustained 20x slowdown for 10, nominal
     again for 10, then slow again: two alerts, not one per slow step *)
  let beats_of s =
    let us = if (s > 20 && s <= 30) || s > 40 then 20000.0 else 1000.0 in
    [ hb ~rank:0 ~step:s ~step_us:us (); hb ~rank:1 ~step:s ~step_us:us () ]
  in
  let alerts = drive ~steps:50 beats_of in
  Alcotest.(check (list string)) "one alert per sustained episode" [ "A001"; "A001" ]
    (codes alerts);
  let first = List.hd alerts in
  Alcotest.(check int) "fires after the persistence count" 23 first.Alert.al_step;
  Alcotest.(check int) "run-wide alert" (-1) first.Alert.al_rank

(* --- A002: particle imbalance --- *)

let test_imbalance () =
  (* max/mean-1 tops out at nranks-1, so rank skew needs a few ranks
     to express: one rank hoards 90% of a 4-rank population *)
  let counts s = if s <= 10 then [ 250; 250; 250; 250 ] else [ 900; 40; 30; 30 ] in
  let beats_of s = List.mapi (fun r p -> hb ~rank:r ~step:s ~particles:p ()) (counts s) in
  let alerts = drive ~nranks:4 ~steps:30 beats_of in
  Alcotest.(check (list string)) "sustained imbalance fires once" [ "A002" ] (codes alerts)

let test_imbalance_needs_population () =
  (* the same lopsidedness below the population floor stays quiet *)
  let beats_of s =
    [ hb ~rank:0 ~step:s ~particles:90 (); hb ~rank:1 ~step:s ~particles:2 () ]
  in
  Alcotest.(check (list string)) "tiny populations never alert" []
    (codes (drive ~steps:30 beats_of))

(* --- A003: non-finite canary, per rank, re-arming --- *)

let test_canary () =
  let beats_of s =
    let nf = if (s >= 5 && s <= 8) || s = 15 then 3 else 0 in
    [ hb ~rank:0 ~step:s (); hb ~rank:1 ~step:s ~nonfinite:nf () ]
  in
  let alerts = drive ~steps:20 beats_of in
  Alcotest.(check (list string)) "two episodes, two alerts" [ "A003"; "A003" ] (codes alerts);
  List.iter
    (fun a -> Alcotest.(check int) "attributed to the poisoned rank" 1 a.Alert.al_rank)
    alerts

(* --- A004: particle leak --- *)

let test_leak () =
  (* 2% lost per step: five consecutive decreases cross the 5%
     cumulative threshold *)
  let beats_of s =
    let p = if s <= 5 then 1000 else 1000 - (20 * (s - 5)) in
    [ hb ~rank:0 ~step:s ~particles:p (); hb ~rank:1 ~step:s ~particles:p () ]
  in
  let alerts = drive ~steps:20 beats_of in
  Alcotest.(check (list string)) "leak fires once" [ "A004" ] (codes alerts)

let test_migration_dip_is_not_a_leak () =
  (* a one-step dip (a migration burst in flight) re-arms on recovery *)
  let beats_of s =
    let p = if s mod 4 = 0 then 450 else 500 in
    [ hb ~rank:0 ~step:s ~particles:p (); hb ~rank:1 ~step:s ~particles:p () ]
  in
  Alcotest.(check (list string)) "dips never alert" [] (codes (drive ~steps:40 beats_of))

(* --- A005: retransmit storm --- *)

let test_storm () =
  let fault_delta s = if s >= 10 && s <= 13 then 2.0 else 0.0 in
  let alerts = drive ~steps:40 ~fault_delta balanced_beats in
  Alcotest.(check (list string)) "storm fires once while the window drains" [ "A005" ]
    (codes alerts)

(* --- A006: stalls, both flavours --- *)

let test_stall_impulse () =
  let stall_delta s = if s = 7 then 1.0 else 0.0 in
  let alerts = drive ~steps:12 ~stall_delta balanced_beats in
  Alcotest.(check (list string)) "injector stall surfaces immediately" [ "A006" ]
    (codes alerts);
  Alcotest.(check int) "at the stall step" 7 (List.hd alerts).Alert.al_step

let test_stall_lagging_rank () =
  (* rank 1's heartbeats freeze at step 5 while rank 0 advances *)
  let beats_of s =
    [ hb ~rank:0 ~step:s (); hb ~rank:1 ~step:(min s 5) () ]
  in
  let alerts = drive ~steps:12 beats_of in
  Alcotest.(check (list string)) "lagging rank flagged once" [ "A006" ] (codes alerts);
  Alcotest.(check int) "names the laggard" 1 (List.hd alerts).Alert.al_rank

(* --- determinism: same stream, same alerts --- *)

let prop_deterministic =
  QCheck.Test.make ~name:"detection replays identically over the same stream" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 40) (triple small_nat small_nat small_nat))
    (fun script ->
      let beats_of s =
        match List.nth_opt script (s - 1) with
        | None -> balanced_beats s
        | Some (a, b, c) ->
            [ hb ~rank:0 ~step:s ~step_us:(500.0 +. float_of_int (a * 100)) ~particles:(100 + b)
                ~nonfinite:(c mod 3) ();
              hb ~rank:1 ~step:s ~particles:(100 + (b * 3 mod 200)) () ]
      in
      let steps = List.length script in
      let key a = (a.Alert.al_code, a.Alert.al_step, a.Alert.al_rank) in
      List.map key (drive ~steps beats_of) = List.map key (drive ~steps beats_of))

(* --- heartbeat / alert JSON round-trips --- *)

let test_heartbeat_roundtrip () =
  let b =
    Heartbeat.make ~rank:2 ~step:17 ~step_us:1234.6 ~particles:482 ~fill:0.47 ~dirty_frac:0.25
      ~comm_bytes:8192.0 ~retransmits:3.0 ~nonfinite:1
      ~phase_us:[ ("Push", 400.2); ("Deposit", 300.9) ]
      ()
  in
  match Heartbeat.of_json (Heartbeat.to_json b) with
  | Error e -> Alcotest.fail e
  | Ok b' ->
      Alcotest.(check int) "rank" b.Heartbeat.hb_rank b'.Heartbeat.hb_rank;
      Alcotest.(check int) "step" b.Heartbeat.hb_step b'.Heartbeat.hb_step;
      Alcotest.(check int) "particles" b.Heartbeat.hb_particles b'.Heartbeat.hb_particles;
      Alcotest.(check (float 1e-9)) "fill" b.Heartbeat.hb_fill b'.Heartbeat.hb_fill;
      (* make rounds durations to whole us so they take the cheap
         integer path through the JSON emitter *)
      Alcotest.(check (float 0.0)) "step_us rounded" 1235.0 b'.Heartbeat.hb_step_us;
      Alcotest.(check (list (pair string (float 0.0)))) "phases"
        [ ("Push", 400.0); ("Deposit", 301.0) ]
        b'.Heartbeat.hb_phase_us

let test_alert_roundtrip () =
  let a = Alert.make ~code:"A004" ~step:33 ~rank:(-1) ~value:0.07 ~threshold:0.05 "leak" in
  match Alert.of_json (Alert.to_json a) with
  | Error e -> Alcotest.fail e
  | Ok a' ->
      Alcotest.(check string) "code" a.Alert.al_code a'.Alert.al_code;
      Alcotest.(check int) "step" a.Alert.al_step a'.Alert.al_step;
      Alcotest.(check int) "rank" a.Alert.al_rank a'.Alert.al_rank;
      Alcotest.(check (float 1e-9)) "value" a.Alert.al_value a'.Alert.al_value

let test_alert_codes_described () =
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " has a description") true (String.length (Alert.describe c) > 0))
    Alert.codes

(* --- the monitor's file outputs --- *)

let with_monitor ?(config = Monitor.default_config) ?on_alert ~nranks f =
  let dir = Filename.temp_file "opp_watch" "" in
  Sys.remove dir;
  let mon = Monitor.create ~config:{ config with Monitor.dir } ~meta:[ ("app", "test") ] ~nranks () in
  Option.iter (Monitor.on_alert mon) on_alert;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.file_exists p then Sys.remove p)
        [ "heartbeats.jsonl"; "alerts.jsonl"; "status.json" ];
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () -> f dir mon)

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let test_monitor_files () =
  with_monitor ~nranks:2 (fun dir mon ->
      for s = 1 to 6 do
        Monitor.beat mon (hb ~rank:0 ~step:s ());
        Monitor.beat mon (hb ~rank:1 ~step:s ());
        Monitor.step_done mon ~step:s
      done;
      Monitor.close mon;
      let beats = read_lines (Filename.concat dir "heartbeats.jsonl") in
      Alcotest.(check int) "one heartbeat line per rank per step" 12 (List.length beats);
      List.iter
        (fun line ->
          match Opp_obs.Json.of_string line with
          | Error e -> Alcotest.fail e
          | Ok j -> (
              match Heartbeat.of_json j with
              | Error e -> Alcotest.fail e
              | Ok _ -> ()))
        beats;
      Alcotest.(check (list string)) "clean run leaves alerts.jsonl empty" []
        (read_lines (Filename.concat dir "alerts.jsonl"));
      match Opp_obs.Json.of_string (String.concat "\n" (read_lines (Filename.concat dir "status.json"))) with
      | Error e -> Alcotest.fail e
      | Ok st ->
          Alcotest.(check (option string)) "schema stamped"
            (Some "oppic-watch-status 1")
            (Option.bind (Opp_obs.Json.member "schema" st) Opp_obs.Json.str);
          Alcotest.(check (option (float 0.0))) "zero alerts" (Some 0.0)
            (Option.bind (Opp_obs.Json.member "alerts_total" st) Opp_obs.Json.num);
          (match Opp_obs.Json.member "ranks" st with
          | Some (Opp_obs.Json.Arr rs) -> Alcotest.(check int) "both ranks in snapshot" 2 (List.length rs)
          | _ -> Alcotest.fail "status.json has no ranks array"))

let test_monitor_routes_alerts () =
  let saw = ref [] in
  let on_alert a =
    saw := a.Alert.al_code :: !saw;
    Monitor.Checkpoint_now
  in
  with_monitor ~nranks:1 ~on_alert (fun dir mon ->
      for s = 1 to 4 do
        Monitor.beat mon (hb ~rank:0 ~step:s ~nonfinite:(if s = 3 then 2 else 0) ());
        Monitor.step_done mon ~step:s
      done;
      Alcotest.(check int) "canary alert counted" 1 (Monitor.alerts_total mon);
      Alcotest.(check int) "under its code" 1 (Monitor.alert_count mon "A003");
      Alcotest.(check (list string)) "policy hook saw it" [ "A003" ] !saw;
      Alcotest.(check bool) "policy requested a checkpoint" true
        (Monitor.take_checkpoint_request mon);
      Alcotest.(check bool) "request is one-shot" false (Monitor.take_checkpoint_request mon);
      Monitor.close mon;
      Alcotest.(check int) "alert persisted to alerts.jsonl" 1
        (List.length (read_lines (Filename.concat dir "alerts.jsonl"))))

(* The seq backend runs a one-rank handle, whose heartbeats carry the
   rank's phases — the move as [Move], the gathered solve as rank 0's
   [Solve] — and, summed over the beats, each phase's phase_us is that
   phase's seconds in the rank's phase ledger since the watch was
   attached (to the rounding of 1 us per beat), decimated intervals
   included. *)
let test_seq_phase_us_is_ledger () =
  let config = { Monitor.default_config with Monitor.heartbeat_every = 2 } in
  with_monitor ~config ~nranks:1 (fun dir mon ->
      let h =
        Apps_dist.Fempic_dist.create ~prm:Experiments.Config.fempic_small_prm ~nranks:1
          ~profile:(Opp_core.Profile.create ()) (Experiments.Config.fempic_mesh ())
      in
      Apps_dist.Fempic_dist.set_watch h mon;
      let profile =
        match h.Apps_dist.Fempic_dist.watch with
        | Some w -> w.Apps_dist.Dist_watch.ledgers.(0)
        | None -> Alcotest.fail "set_watch attached no watch"
      in
      let seconds () =
        List.map (fun (n, e) -> (n, e.Opp_core.Profile.seconds)) (Opp_core.Profile.entries ~t:profile ())
      in
      let before = seconds () in
      let steps = 8 in
      Apps_dist.Fempic_dist.run h ~steps;
      Monitor.close mon;
      let beats =
        List.map
          (fun line ->
            match Result.bind (Opp_obs.Json.of_string line) Heartbeat.of_json with
            | Ok b -> b
            | Error e -> Alcotest.fail e)
          (read_lines (Filename.concat dir "heartbeats.jsonl"))
      in
      let nbeats = List.length beats in
      Alcotest.(check int) "one beat every other step" (steps / 2) nbeats;
      List.iter
        (fun b ->
          List.iter
            (fun k ->
              Alcotest.(check bool) (k ^ " in phase_us") true (List.mem_assoc k b.Heartbeat.hb_phase_us))
            [ "Move"; "Solve" ])
        beats;
      List.iter
        (fun (name, s) ->
          let ledger_us = (s -. Option.value ~default:0.0 (List.assoc_opt name before)) *. 1e6 in
          let beat_us =
            List.fold_left
              (fun acc b -> acc +. Option.value ~default:0.0 (List.assoc_opt name b.Heartbeat.hb_phase_us))
              0.0 beats
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: beats %.0f us, ledger %.1f us" name beat_us ledger_us)
            true
            (Float.abs (beat_us -. ledger_us) <= float_of_int nbeats))
        (seconds ()))

(* A distributed heartbeat's dirty_frac is the fraction of the rank's
   declared mesh dats whose halo is dirty at that step boundary; on 4
   ranks that is [today] at every boundary of both apps. *)
let check_dirty_frac label (d : (_, _, _) Apps_dist.Dist_handle.handle) ~today =
  let module H = Apps_dist.Dist_handle in
  with_monitor ~nranks:d.H.nranks (fun dir mon ->
      H.set_watch d mon;
      let expected = Hashtbl.create 16 in
      for _ = 1 to 4 do
        H.step d;
        Array.iteri
          (fun r sim ->
            let dats = Opp_dist.World.mesh_dats (d.H.shape.Opp_dist.World.state sim) in
            let dirty = List.filter (fun dat -> dat.Opp_core.Types.d_halo_dirty) dats in
            Hashtbl.replace expected (d.H.step_count, r)
              (float_of_int (List.length dirty) /. float_of_int (List.length dats)))
          d.H.sims
      done;
      H.shutdown d;
      Monitor.close mon;
      let beats = read_lines (Filename.concat dir "heartbeats.jsonl") in
      Alcotest.(check int) (label ^ ": one heartbeat per rank per step") (4 * d.H.nranks)
        (List.length beats);
      List.iter
        (fun line ->
          match Result.bind (Opp_obs.Json.of_string line) Heartbeat.of_json with
          | Error e -> Alcotest.fail e
          | Ok b ->
              let rank = b.Heartbeat.hb_rank and step = b.Heartbeat.hb_step in
              let at = Printf.sprintf "%s rank %d step %d" label rank step in
              Alcotest.(check (float 1e-9))
                (at ^ ": dirty_frac is the declared dats' dirty fraction")
                (Hashtbl.find expected (step, rank))
                b.Heartbeat.hb_dirty_frac;
              Alcotest.(check (float 1e-3))
                (at ^ ": dirty_frac today")
                today b.Heartbeat.hb_dirty_frac)
        beats)

let test_dist_dirty_frac () =
  check_dirty_frac "fempic" ~today:0.5
    (Apps_dist.Fempic_dist.create ~prm:Experiments.Config.fempic_small_prm ~nranks:4
       ~profile:(Opp_core.Profile.create ())
       (Experiments.Config.fempic_mesh ()));
  check_dirty_frac "cabana" ~today:(2.0 /. 3.0)
    (Apps_dist.Cabana_dist.create
       ~prm:{ Cabana.Cabana_params.default with Cabana.Cabana_params.nz = 16; ppc = 8 }
       ~nranks:4 ~profile:(Opp_core.Profile.create ()) ())

let test_atomic_write () =
  let path = Filename.temp_file "opp_atomic" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Opp_obs.Atomic_file.write_string path "first";
      Opp_obs.Atomic_file.write_string path "second";
      Alcotest.(check (list string)) "replace is last-writer-wins" [ "second" ]
        (read_lines path);
      Alcotest.(check bool) "no temp file left behind" false
        (Sys.file_exists (path ^ ".tmp")))

let suite =
  [
    ("clean stream is silent", `Quick, test_clean_silent);
    QCheck_alcotest.to_alcotest prop_jitter_silent;
    ("A001 slow step, hysteresis + re-arm", `Quick, test_slow_step);
    ("A002 imbalance fires once", `Quick, test_imbalance);
    ("A002 respects the population floor", `Quick, test_imbalance_needs_population);
    ("A003 canary per rank, re-arming", `Quick, test_canary);
    ("A004 leak fires once", `Quick, test_leak);
    ("A004 ignores one-step dips", `Quick, test_migration_dip_is_not_a_leak);
    ("A005 storm fires once per window", `Quick, test_storm);
    ("A006 injector stall is immediate", `Quick, test_stall_impulse);
    ("A006 lagging rank", `Quick, test_stall_lagging_rank);
    QCheck_alcotest.to_alcotest prop_deterministic;
    ("heartbeat json round-trip", `Quick, test_heartbeat_roundtrip);
    ("alert json round-trip", `Quick, test_alert_roundtrip);
    ("every alert code is described", `Quick, test_alert_codes_described);
    ("monitor writes parseable artifacts", `Quick, test_monitor_files);
    ("monitor routes alerts and policy actions", `Quick, test_monitor_routes_alerts);
    ("seq heartbeat phase_us sums to the runner ledger", `Quick, test_seq_phase_us_is_ledger);
    ("4-rank heartbeat dirty_frac is the declared mesh dats' dirty fraction", `Quick,
      test_dist_dirty_frac);
    ("atomic file replace", `Quick, test_atomic_write);
  ]
