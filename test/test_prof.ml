(* Tests for the profiling/analysis layer (opp_prof): IR-derived flop
   counts against hand-counted expectations, static/live byte-model
   agreement, exception-safe span unwinding, the per-rank phase
   accounting invariants (qcheck), the Chrome-artifact round trip of a
   traced distributed run feeding the offline roofline, and the A/B
   regression verdicts. *)

open Opp_prof

(* The trace recorder is a process-wide singleton shared with every
   other suite in this binary; always leave it disabled and empty. *)
let isolated f () =
  Fun.protect
    ~finally:(fun () ->
      Opp_obs.Trace.disable ();
      Opp_obs.Trace.reset ())
    f

(* --- IR-derived flop counts --- *)

(* Hand counts, by the documented rules (lib/prof/kernel_ir.ml):
   - CalcPosVel: per axis vel += (qm*dt)*ef (2 flops) then pos +=
     dt*vel (2 flops), 3 axes and both are Incr (+1 each) -> 15? No:
     Incr already counts the +; per axis 2+3 = vel Incr(qm_dt*ef) = 2,
     pos Incr(dt*vel) = 2, i.e. (2+2)*3 = 12... the kernel also
     advances with the half-step ef average; rather than re-deriving
     prose here, these are independent manual walks of the registry
     bodies, locked as constants. *)
let test_flop_counts () =
  let expect name flops =
    Alcotest.(check (float 1e-9)) (name ^ " flops/elem") flops (Kernels.flops_per_elem name)
  in
  (* fempic *)
  expect "CalcPosVel" 15.0;
  expect "DepositCharge" 8.0;
  expect "ComputeNodeChargeDensity" 1.0;
  expect "Move" 24.0;
  (* cabana *)
  expect "AccumulateCurrent" 3.0;
  expect "FieldEnergy" 14.0;
  expect "ResetAccumulator" 0.0;
  (* unknown kernels cost 0, never fail *)
  expect "NoSuchKernel" 0.0

let test_kernel_ir_rules () =
  let open Kernel_ir in
  let open Kernel_ir.Infix in
  let count body = body_flops body in
  Alcotest.(check (float 0.0)) "store counts its expr" 1.0 (count [ Store ("a", f 1.0 +: f 2.0) ]);
  Alcotest.(check (float 0.0)) "incr adds one" 2.0 (count [ Incr ("a", v "x" *: v "y") ]);
  Alcotest.(check (float 0.0)) "cmp and loads are free" 0.0 (count [ Let ("c", v "x" <: f 0.0) ]);
  Alcotest.(check (float 0.0))
    "if = cond + max of arms" 2.0
    (count
       [
         If
           ( v "x" <: f 0.0,
             [ Store ("b", (v "x" +: v "y") *: v "z") ],
             [ Store ("b", v "x" +: v "y") ] );
       ]);
  Alcotest.(check (float 0.0))
    "rep multiplies" 6.0
    (count [ Rep (3, [ Incr ("s", v "x" *: v "x") ]) ])

(* --- static cost model vs the live byte accounting --- *)

(* The CalcPosVel argument shape: a read of a cell dat through p2c
   (8*3+4 = 28 B) plus two particle-dat read-modify-writes (2*8*3 = 48 B
   each) = 124 B/elem. The static descriptor path must agree with the
   live Arg-based model the runner records. *)
let test_static_bytes_match_live () =
  let ctx = Opp_core.Opp.init () in
  let cells = Opp_core.Opp.decl_set ctx ~name:"cells" 8 in
  let parts = Opp_core.Opp.decl_particle_set ctx ~name:"parts" ~count:4 cells in
  let p2c =
    Opp_core.Opp.decl_map ctx ~name:"p2c" ~from:parts ~to_:cells ~arity:1
      (Some (Array.make 4 0))
  in
  let cell_ef = Opp_core.Opp.decl_dat ctx ~name:"cell_ef" ~set:cells ~dim:3 None in
  let part_vel = Opp_core.Opp.decl_dat ctx ~name:"part_vel" ~set:parts ~dim:3 None in
  let part_pos = Opp_core.Opp.decl_dat ctx ~name:"part_pos" ~set:parts ~dim:3 None in
  let args =
    [
      Opp_core.Opp.arg_dat_p2c cell_ef ~p2c Opp_core.Opp.read;
      Opp_core.Opp.arg_dat part_vel Opp_core.Opp.rw;
      Opp_core.Opp.arg_dat part_pos Opp_core.Opp.rw;
    ]
  in
  let live = Opp_core.Seq.loop_bytes args 1 in
  let desc =
    Opp_check.Descriptor.of_live ~name:"CalcPosVel" ~kind:Opp_check.Descriptor.Par_loop_d
      ~set:parts args
  in
  match Cost.of_descriptor desc with
  | [ c ] ->
      Alcotest.(check (float 1e-9)) "hand count" 124.0 c.Cost.c_bytes;
      Alcotest.(check (float 1e-9)) "static = live" live c.Cost.c_bytes;
      Alcotest.(check (float 1e-9)) "registry flops" 15.0 c.Cost.c_flops;
      Alcotest.(check bool) "kernel known" true c.Cost.c_known
  | costs -> Alcotest.failf "expected one cost row, got %d" (List.length costs)

(* --- exception-safe spans (begin/end with unwinding) --- *)

let test_with_span_unwinds_on_raise () =
  Opp_obs.Trace.enable ();
  let d0 = Opp_obs.Trace.depth () in
  (try
     Opp_obs.Trace.with_span "outer" (fun () ->
         Opp_obs.Trace.begin_span "leaked";
         raise Exit)
   with Exit -> ());
  Alcotest.(check int) "stack unwound" d0 (Opp_obs.Trace.depth ());
  let spans = Opp_obs.Trace.spans () in
  let find n = List.find (fun s -> s.Opp_obs.Trace.sp_name = n) spans in
  Alcotest.(check int) "both spans closed" 2 (List.length spans);
  Alcotest.(check (float 0.0))
    "leaked span marked" 1.0
    (match List.assoc_opt "unwound" (find "leaked").Opp_obs.Trace.sp_args with
    | Some v -> v
    | None -> 0.0)

let test_with_span_closes_leaks_on_return () =
  Opp_obs.Trace.enable ();
  Opp_obs.Trace.with_span "outer" (fun () ->
      Opp_obs.Trace.begin_span "inner-leak1";
      Opp_obs.Trace.begin_span "inner-leak2");
  Alcotest.(check int) "depth restored" 0 (Opp_obs.Trace.depth ());
  Alcotest.(check int) "all spans closed" 3 (List.length (Opp_obs.Trace.spans ()))

let test_profile_timed_exception_safe () =
  Opp_obs.Trace.enable ();
  let t = Opp_core.Profile.create () in
  (try
     Opp_core.Profile.timed ~t ~name:"boom" (fun () ->
         Opp_obs.Trace.begin_span "inner";
         failwith "kernel exploded")
   with Failure _ -> ());
  Alcotest.(check int) "depth restored after raise" 0 (Opp_obs.Trace.depth ());
  Alcotest.(check int) "spans closed" 2 (List.length (Opp_obs.Trace.spans ()))

(* --- phase accounting invariants (qcheck) --- *)

(* Synthetic traces: [nranks] ranks, a few phases, a few steps, random
   durations. Positions encode the instance index per rank, exactly as
   the serialized substrate produces them. *)
let synth_gen =
  QCheck.Gen.(
    int_range 1 4 >>= fun nranks ->
    int_range 1 3 >>= fun nphases ->
    int_range 1 5 >>= fun steps ->
    let nspans = nranks * nphases * steps in
    list_repeat nspans (float_bound_exclusive 100.0) >>= fun durs ->
    return (nranks, nphases, steps, durs))

let synth_spans (nranks, nphases, steps, durs) =
  let durs = Array.of_list durs in
  let spans = ref [] and i = ref 0 and ts = ref 0.0 in
  for step = 0 to steps - 1 do
    ignore step;
    for rank = 0 to nranks - 1 do
      for ph = 0 to nphases - 1 do
        let dur = durs.(!i) in
        incr i;
        spans :=
          {
            Prof_span.s_name = Printf.sprintf "Phase%d" ph;
            s_cat = "phase";
            s_track = rank;
            s_ts_us = !ts;
            s_dur_us = dur;
            s_args = [];
          }
          :: !spans;
        ts := !ts +. dur
      done
    done
  done;
  List.rev !spans

let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let prop_phase_accounting =
  QCheck.Test.make ~name:"phase accounting invariants" ~count:200
    (QCheck.make ~print:(fun (r, p, s, _) -> Printf.sprintf "ranks=%d phases=%d steps=%d" r p s)
       synth_gen)
    (fun input ->
      let nranks, _, _, _ = input in
      let t = Phases.build (synth_spans input) in
      List.length t.Phases.p_ranks = nranks
      && List.for_all
           (fun r ->
             let total = Array.fold_left ( +. ) 0.0 r.Phases.r_rank_us in
             let mx = Array.fold_left Float.max 0.0 r.Phases.r_rank_us in
             (* wait at a boundary is everything under the straggler *)
             close r.Phases.r_wait_us ((float_of_int nranks *. r.Phases.r_crit_us) -. total)
             && close r.Phases.r_mean_us (total /. float_of_int nranks)
             && close r.Phases.r_max_us mx
             && r.Phases.r_crit_us >= mx /. float_of_int (max 1 t.Phases.p_steps) -. 1e-9
             && r.Phases.r_imbalance >= 1.0 -. 1e-9)
           t.Phases.p_rows
      (* with no serial sections, the critical path is the phase maxima *)
      && close t.Phases.p_crit_us
           (List.fold_left (fun acc r -> acc +. r.Phases.r_crit_us) 0.0 t.Phases.p_rows))

(* The folded ledger, by kernel name, independent of entry order. *)
let by_name profile =
  List.sort compare
    (List.map
       (fun (n, (e : Opp_core.Profile.entry)) -> (n, (e.calls, e.elems, e.seconds, e.flops, e.bytes)))
       (Opp_core.Profile.entries ~t:profile ()))

let same_ledger a b =
  let a = by_name a and b = by_name b in
  List.length a = List.length b
  && List.for_all2
       (fun (n, (c, el, s, f, by)) (n', (c', el', s', f', by')) ->
         n = n' && c = c' && el = el' && close s s' && close f f' && close by by')
       a b

let prop_kstats_total =
  QCheck.Test.make ~name:"kernel totals equal summed span durations" ~count:200
    QCheck.(
      pair small_nat
        (list
           (pair (int_bound 4)
              (pair (int_bound 3) (pair (int_bound 3) (float_bound_exclusive 100.0))))))
    (fun (seed, raw) ->
      let cats = [| "par_loop"; "host"; "phase"; "particle_move" |] in
      let spans =
        List.map
          (fun (name_i, (cat_i, (track, dur))) ->
            {
              Prof_span.s_name = Printf.sprintf "K%d" name_i;
              s_cat = cats.(cat_i);
              s_track = track;
              s_ts_us = 0.0;
              s_dur_us = dur;
              s_args = [ ("elems", 1.0); ("flops", 2.0); ("bytes", 3.0) ];
            })
          raw
      in
      let expected =
        List.fold_left
          (fun acc s -> if List.mem s.Prof_span.s_cat Kstats.kernel_cats then acc +. s.Prof_span.s_dur_us else acc)
          0.0 spans
      in
      (* the same spans merged from the rank tracks in another order *)
      let shuffled =
        let st = Random.State.make [| seed |] in
        List.map snd
          (List.sort compare (List.map (fun s -> (Random.State.bits st, s)) spans))
      in
      close (Kstats.total_dur_us (Kstats.of_spans spans)) expected
      && same_ledger (Kstats.of_spans spans) (Kstats.of_spans shuffled))

let prop_ab_self_diff_passes =
  QCheck.Test.make ~name:"A/B self-diff always passes" ~count:100
    QCheck.(list (pair (int_bound 3) (float_bound_exclusive 50.0)))
    (fun raw ->
      let spans =
        List.map
          (fun (i, dur) ->
            {
              Prof_span.s_name = Printf.sprintf "K%d" i;
              s_cat = (if i mod 2 = 0 then "par_loop" else "phase");
              s_track = 0;
              s_ts_us = 0.0;
              s_dur_us = dur;
              s_args = [];
            })
          raw
      in
      Ab.passed (Ab.diff ~a:spans ~b:spans ()))

(* --- A/B flags a deliberately slowed run --- *)

let test_ab_flags_slowdown () =
  let mk dur =
    [
      {
        Prof_span.s_name = "Move";
        s_cat = "par_loop";
        s_track = 0;
        s_ts_us = 0.0;
        s_dur_us = dur;
        s_args = [];
      };
      {
        Prof_span.s_name = "Deposit";
        s_cat = "par_loop";
        s_track = 0;
        s_ts_us = dur;
        s_dur_us = dur /. 2.0;
        s_args = [];
      };
    ]
  in
  let base = mk 1000.0 and slow = mk 2000.0 in
  let d = Ab.diff ~threshold:0.10 ~a:base ~b:slow () in
  Alcotest.(check bool) "2x run flagged" false (Ab.passed d);
  Alcotest.(check (float 1e-9)) "total ratio" 2.0 d.Ab.ab_total_ratio;
  let d' = Ab.diff ~threshold:0.10 ~a:base ~b:base () in
  Alcotest.(check bool) "self-diff passes" true (Ab.passed d')

(* --- end to end: traced distributed run -> artifact -> reports --- *)

let test_distributed_roundtrip () =
  Opp_obs.Trace.enable ();
  let ranks = 4 and steps = 4 in
  Opp_obs.Trace.name_track ranks "driver";
  let dist =
    Apps_dist.Fempic_dist.create ~prm:Experiments.Config.fempic_small_prm ~nranks:ranks
      ~profile:(Opp_core.Profile.create ())
      (Experiments.Config.fempic_mesh ())
  in
  for _ = 1 to steps do
    Opp_obs.Trace.with_track ranks (fun () ->
        Opp_obs.Trace.with_span ~cat:"step" "step" (fun () ->
            ignore (Apps_dist.Fempic_dist.step dist)))
  done;
  Apps_dist.Fempic_dist.shutdown dist;
  let live = Prof_span.of_live () in
  let path = Filename.temp_file "opp_prof_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Opp_obs.Trace.write_chrome path;
      let tr =
        match Prof_span.load_chrome path with
        | Ok tr -> tr
        | Error e -> Alcotest.failf "load_chrome: %s" e
      in
      let spans = tr.Prof_span.tr_spans in
      Alcotest.(check int) "span count survives round trip" (List.length live)
        (List.length spans);
      Alcotest.(check bool)
        "durations survive round trip" true
        (close (Prof_span.total_dur_us live) (Prof_span.total_dur_us spans));
      Alcotest.(check bool)
        "driver track name survives" true
        (List.mem (ranks, "driver") tr.Prof_span.tr_track_names);
      (* per-rank breakdown: all four ranks present, sane imbalance *)
      let ph = Phases.build spans in
      Alcotest.(check int) "ranks recovered" ranks (List.length ph.Phases.p_ranks);
      Alcotest.(check bool) "imbalance >= 1" true (ph.Phases.p_imbalance >= 1.0);
      Alcotest.(check bool) "steps seen" true (ph.Phases.p_steps >= steps);
      Alcotest.(check bool) "phases non-empty" true (ph.Phases.p_rows <> []);
      Alcotest.(check bool)
        "waits are non-negative" true
        (List.for_all (fun r -> r.Phases.r_wait_us >= -1e-9) ph.Phases.p_rows);
      (* every arithmetic kernel carries IR-derived flops and lands on
         the roofline with no hand-supplied counts *)
      let profile = Kstats.of_spans spans in
      let ks = Opp_core.Profile.entries ~t:profile () in
      Alcotest.(check bool) "kernels recovered" true (ks <> []);
      let points = Opp_perf.Roofline.points Opp_perf.Device.xeon_8268_node ~t:profile () in
      List.iter
        (fun (name, (e : Opp_core.Profile.entry)) ->
          if not (String.starts_with ~prefix:"Reset" name) then begin
            Alcotest.(check bool) (name ^ " has flops") true (e.flops > 0.0);
            Alcotest.(check bool)
              (name ^ " on roofline")
              true
              (List.exists (fun (p : Opp_perf.Roofline.point) -> p.kernel = name) points)
          end)
        ks;
      (* A/B: the artifact against itself passes; against a uniformly
         2x-slowed copy of itself, it must flag *)
      Alcotest.(check bool) "artifact self-diff passes" true (Ab.passed (Ab.diff ~a:spans ~b:spans ()));
      let slowed =
        List.map (fun s -> { s with Prof_span.s_dur_us = 2.0 *. s.Prof_span.s_dur_us }) spans
      in
      Alcotest.(check bool)
        "slowed artifact flagged" false
        (Ab.passed (Ab.diff ~a:spans ~b:slowed ())))

(* --- one measurement per launch: the trace folds back to the ledger --- *)

(* Fold the recorded kernel spans and compare with the live ledger's
   kernel entries (its host phases, such as Solve, are "host" spans and
   not kernels): calls, elems, flops and bytes exactly, seconds to
   1e-9 relative — each span and its ledger entry are one clock pair. *)
let check_trace_is_ledger label ~move ledger =
  let spans = Prof_span.of_live () in
  let host =
    List.filter_map
      (fun s -> if s.Prof_span.s_cat = "host" then Some s.Prof_span.s_name else None)
      spans
  in
  let live =
    List.filter (fun (n, _) -> not (List.mem n host)) (Opp_core.Profile.entries ~t:ledger ())
  in
  let folded = Opp_core.Profile.entries ~t:(Kstats.of_spans spans) () in
  Alcotest.(check bool) (label ^ ": the mover was measured") true (List.mem_assoc move live);
  Alcotest.(check (list string)) (label ^ ": kernels") (List.map fst live) (List.map fst folded);
  List.iter2
    (fun (n, (l : Opp_core.Profile.entry)) (_, (f : Opp_core.Profile.entry)) ->
      let what k = Printf.sprintf "%s: %s %s" label n k in
      Alcotest.(check int) (what "calls") l.calls f.calls;
      Alcotest.(check int) (what "elems") l.elems f.elems;
      Alcotest.(check (float 0.0)) (what "flops") l.flops f.flops;
      Alcotest.(check (float 0.0)) (what "bytes") l.bytes f.bytes;
      Alcotest.(check bool)
        (Printf.sprintf "%s (ledger %.9g s, trace %.9g s)" (what "seconds") l.seconds f.seconds)
        true
        (Float.abs (l.seconds -. f.seconds) <= 1e-9 *. l.seconds))
    live folded

let traced_run label ~move ~steps make step =
  Opp_obs.Trace.reset ();
  Opp_obs.Trace.enable ();
  let profile = Opp_core.Profile.create () in
  let app = make profile in
  for _ = 1 to steps do
    step app
  done;
  check_trace_is_ledger label ~move profile;
  Opp_obs.Trace.disable ()

let test_trace_is_ledger () =
  traced_run "seq fempic" ~move:"Move" ~steps:10
    (fun profile ->
      Fempic.Fempic_sim.create ~prm:Experiments.Config.fempic_small_prm
        ~runner:(Opp_core.Runner.seq ~profile ())
        ~profile (Experiments.Config.fempic_mesh ()))
    (fun sim -> ignore (Fempic.Fempic_sim.step sim));
  traced_run "4-rank fempic" ~move:"Move" ~steps:4
    (fun profile ->
      Apps_dist.Fempic_dist.create ~prm:Experiments.Config.fempic_small_prm ~nranks:4 ~profile
        (Experiments.Config.fempic_mesh ()))
    (fun d -> ignore (Apps_dist.Fempic_dist.step d));
  traced_run "4-rank cabana" ~move:"Move_Deposit" ~steps:4
    (fun profile ->
      Apps_dist.Cabana_dist.create
        ~prm:{ Cabana.Cabana_params.default with Cabana.Cabana_params.nz = 16; ppc = 8 }
        ~nranks:4 ~profile ())
    (fun d -> ignore (Apps_dist.Cabana_dist.step d))

let suite =
  [
    Alcotest.test_case "IR-derived flop counts match hand counts" `Quick (isolated test_flop_counts);
    Alcotest.test_case "kernel IR counting rules" `Quick (isolated test_kernel_ir_rules);
    Alcotest.test_case "static cost model matches live bytes" `Quick
      (isolated test_static_bytes_match_live);
    Alcotest.test_case "with_span unwinds on raise" `Quick (isolated test_with_span_unwinds_on_raise);
    Alcotest.test_case "with_span closes leaked spans" `Quick
      (isolated test_with_span_closes_leaks_on_return);
    Alcotest.test_case "Profile.timed is exception-safe" `Quick
      (isolated test_profile_timed_exception_safe);
    Alcotest.test_case "A/B flags a 2x slowdown" `Quick (isolated test_ab_flags_slowdown);
    Alcotest.test_case "traced distributed run round-trips to reports" `Quick
      (isolated test_distributed_roundtrip);
    Alcotest.test_case "trace folds back to the live ledger (seq, 4-rank fempic and cabana)"
      `Quick (isolated test_trace_is_ledger);
    QCheck_alcotest.to_alcotest prop_phase_accounting;
    QCheck_alcotest.to_alcotest prop_kstats_total;
    QCheck_alcotest.to_alcotest prop_ab_self_diff_passes;
  ]
