(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index), plus bechamel
   micro-benchmarks of the kernels behind each artefact.

     dune exec bench/main.exe                 -- all experiments
     dune exec bench/main.exe -- --list       -- list experiment ids
     dune exec bench/main.exe -- --only fig9a -- one experiment
     dune exec bench/main.exe -- --micro      -- bechamel micro-benchmarks
     dune exec bench/main.exe -- --pr4        -- locality benchmarks -> BENCH_PR4.json
     dune exec bench/main.exe -- --pr5        -- profiling smoke -> BENCH_PR5.json
     dune exec bench/main.exe -- --pr6        -- watch overhead gate -> BENCH_PR6.json
     dune exec bench/main.exe -- --pr8        -- heal recovery-latency gate -> BENCH_PR8.json
     dune exec bench/main.exe -- --pr9        -- live rebalance gate -> BENCH_PR9.json

   Gated runs (--pr4 through --pr9) also append a timestamped record to the
   cumulative trajectory log (JSONL, default BENCH.json, --log FILE to
   move it), so successive sessions accumulate a perf history instead
   of each overwriting its own one-off file.

   Observability (see docs/OBSERVABILITY.md): --trace FILE writes a
   Chrome trace-event timeline, --metrics FILE writes per-step metrics
   (JSONL, or CSV if FILE ends in .csv), --obs-summary prints span and
   metric summaries at exit. *)

let iso_now () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

(* One JSONL record per gated run: stamp and append, never truncate. *)
let append_record ~log json =
  let fields = match json with Opp_obs.Json.Obj f -> f | other -> [ ("record", other) ] in
  let stamped = Opp_obs.Json.Obj (("time", Opp_obs.Json.Str (iso_now ())) :: fields) in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 log in
  output_string oc (Opp_obs.Json.to_string stamped);
  output_char oc '\n';
  close_out oc;
  Printf.printf "trajectory: record appended to %s\n%!" log

let list_experiments () =
  List.iter
    (fun e -> Printf.printf "%-14s %s\n" e.Experiments.Registry.id e.Experiments.Registry.title)
    Experiments.Registry.all

(* --- bechamel micro-benchmarks: one per table/figure --- *)

let micro_tests () =
  let open Bechamel in
  let fempic_fixture () =
    let sim =
      Fempic.Fempic_sim.create ~prm:Experiments.Config.fempic_small_prm
        ~profile:(Opp_core.Profile.create ())
        (Experiments.Config.fempic_mesh ())
    in
    ignore (Fempic.Fempic_sim.prefill sim);
    sim
  in
  let cabana_fixture ?(ppc = 64) () =
    Cabana.Cabana_sim.create
      ~prm:(Experiments.Config.cabana_prm ~ppc)
      ~profile:(Opp_core.Profile.create ())
      ()
  in
  let fempic_checked_fixture () =
    let profile = Opp_core.Profile.create () in
    let runner = Opp_check.checked ~profile (Opp_core.Runner.seq ~profile ()) in
    let sim =
      Fempic.Fempic_sim.create ~prm:Experiments.Config.fempic_small_prm ~runner ~profile
        (Experiments.Config.fempic_mesh ())
    in
    ignore (Fempic.Fempic_sim.prefill sim);
    sim
  in
  let fempic_sim = fempic_fixture () in
  let fempic_checked_sim = fempic_checked_fixture () in
  let cabana_sim = cabana_fixture () in
  let cabana_reference = Cabana_ref.create ~prm:(Experiments.Config.cabana_prm ~ppc:64) () in
  let dist_fixture =
    Apps_dist.Cabana_dist.create
      ~prm:(Experiments.Config.cabana_scaled_prm ~ranks:2 ~ppc:16)
      ~nranks:2
      ~profile:(Opp_core.Profile.create ())
      ()
  in
  let deposit_under mode =
    let gpu =
      Opp_gpu.Gpu_runner.create ~profile:(Opp_core.Profile.create ()) ~mode
        Opp_perf.Device.mi250x_gcd
    in
    let sim =
      Fempic.Fempic_sim.create ~prm:Experiments.Config.fempic_small_prm
        ~profile:(Opp_core.Profile.create ())
        ~runner:(Opp_gpu.Gpu_runner.runner gpu)
        (Experiments.Config.fempic_mesh ())
    in
    ignore (Fempic.Fempic_sim.prefill sim);
    ignore (Fempic.Fempic_sim.step sim);
    sim
  in
  let deposit_at = deposit_under Opp_gpu.Gpu_runner.AT in
  let deposit_sr = deposit_under Opp_gpu.Gpu_runner.SR in
  let chaos_fixture =
    Apps_dist.Cabana_dist.create
      ~prm:(Experiments.Config.cabana_scaled_prm ~ranks:2 ~ppc:16)
      ~nranks:2
      ~profile:(Opp_core.Profile.create ())
      ()
  in
  let chaos_injector =
    Opp_resil.Fault.create ~seed:42 ~max_attempts:20
      [
        (Opp_resil.Fault.Drop, None, 0.02);
        (Opp_resil.Fault.Corrupt, None, 0.01);
        (Opp_resil.Fault.Dup, None, 0.01);
      ]
  in
  let spec =
    Opp_codegen.Parser.parse
      (String.concat "\n"
         [
           "program bench"; "set cells"; "set nodes"; "particle_set parts cells";
           "map c2n cells nodes 4"; "map p2c parts cells 1"; "map c2c cells cells 4";
           "dat nd nodes 1"; "dat pd parts 4";
           "loop L kernel k over parts iterate all";
           "  arg pd read"; "  arg nd idx 0 map c2n p2c p2c inc"; "end";
           "move M kernel mk over parts c2c c2c p2c p2c"; "  arg pd rw"; "end";
         ])
  in
  [
    (* fig9a / fig10 / fig13: the Mini-FEM-PIC step and its mover *)
    Test.make ~name:"fig9a:fempic_step"
      (Staged.stage (fun () -> ignore (Fempic.Fempic_sim.step fempic_sim)));
    (* sanitizer overhead: the same step under the opp_check runtime
       checks (docs/ANALYSIS.md targets < 3x over fig9a:fempic_step) *)
    Test.make ~name:"chk:fempic_step_checked"
      (Staged.stage (fun () -> ignore (Fempic.Fempic_sim.step fempic_checked_sim)));
    (* fig13/fig14: the communication primitive of the scaling runs *)
    Test.make ~name:"fig13:halo_exchange"
      (Staged.stage (fun () ->
           Opp_dist.Exch.exchange dist_fixture.Apps_dist.Cabana_dist.cell_exch ~dim:3
             ~data:(fun r ->
               dist_fixture.Apps_dist.Cabana_dist.sims.(r).Cabana.Cabana_sim.cell_e
                 .Opp_core.Types.d_data)));
    (* fig9b / fig11 / fig14: the CabanaPIC step *)
    Test.make ~name:"fig9b:cabana_step"
      (Staged.stage (fun () -> Cabana.Cabana_sim.step cabana_sim));
    (* fig12: the structured original *)
    Test.make ~name:"fig12:cabana_ref_step"
      (Staged.stage (fun () -> Cabana_ref.step cabana_reference));
    (* tab1 / fig15: a full distributed step (halo exchange + migration).
       With no fault schedule installed this is also the resilience
       baseline: the envelope's disabled-path overhead must stay < 2%
       (docs/RESILIENCE.md). *)
    Test.make ~name:"tab1:dist_step"
      (Staged.stage (fun () -> Apps_dist.Cabana_dist.step dist_fixture));
    (* resil: the same step under an active chaos schedule — every
       message runs through the checksum/sequence envelope and injected
       drops and corruptions are healed by retransmission *)
    Test.make ~name:"resil:dist_step_chaos"
      (Staged.stage (fun () ->
           Opp_resil.Fault.install chaos_injector;
           Fun.protect
             ~finally:Opp_resil.Fault.uninstall
             (fun () -> Apps_dist.Cabana_dist.step chaos_fixture)));
    (* abl_atomics: deposits under AT and segmented reduction *)
    Test.make ~name:"abl:deposit_at"
      (Staged.stage (fun () -> Fempic.Fempic_sim.deposit_charge deposit_at));
    Test.make ~name:"abl:deposit_sr"
      (Staged.stage (fun () -> Fempic.Fempic_sim.deposit_charge deposit_sr));
    (* tab2: the translator (template expansion for all five targets) *)
    Test.make ~name:"tab2:codegen"
      (Staged.stage (fun () -> ignore (Opp_codegen.Emit.emit_all spec)));
  ]

let run_micro () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  Printf.printf "%-28s %16s\n" "micro-benchmark" "time/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              let pretty =
                if est > 1e9 then Printf.sprintf "%8.3f  s" (est /. 1e9)
                else if est > 1e6 then Printf.sprintf "%8.3f ms" (est /. 1e6)
                else if est > 1e3 then Printf.sprintf "%8.3f us" (est /. 1e3)
                else Printf.sprintf "%8.0f ns" est
              in
              Printf.printf "%-28s %16s\n" name pretty
          | _ -> Printf.printf "%-28s %16s\n" name "n/a")
        results)
    (micro_tests ())

(* --- PR4 locality benchmarks (docs/PERFORMANCE.md) ---

   Compares the seed execution configuration (fresh scatter buffers
   every launch, statically partitioned mover, unsorted iteration)
   against the opp_locality path (pooled dirty-range scatter buffers,
   dynamic move scheduling, cell-binned iteration with the automatic
   sort scheduler). Emits BENCH_PR4.json and exits non-zero if the
   pooled+binned Mini-FEM-PIC step is slower than the seed beyond
   tolerance — the CI bench smoke gate. *)

let time_min ~warmup ~reps f =
  for _ = 1 to warmup do
    f ()
  done;
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Opp_obs.Clock.now_s () in
    f ();
    let dt = Opp_obs.Clock.now_s () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* Interleaved min-of-N: alternate the two measurands rep by rep so a
   noisy-neighbour phase on a shared box hits both sides equally —
   back-to-back blocks of reps make the comparison depend on which
   block caught the quiet period. Returns the per-side minima plus the
   median of the per-rep g/f ratios, which is what comparisons should
   gate on: a preemption that lands inside a single rep skews min/min,
   but shifts only one of N ratio samples. *)
let time_pair ~warmup ~reps f g =
  for _ = 1 to warmup do
    f ();
    g ()
  done;
  let bf = ref infinity and bg = ref infinity in
  let ratios = Array.make reps 0.0 in
  for i = 0 to reps - 1 do
    let t0 = Opp_obs.Clock.now_s () in
    f ();
    let t1 = Opp_obs.Clock.now_s () in
    g ();
    let t2 = Opp_obs.Clock.now_s () in
    if t1 -. t0 < !bf then bf := t1 -. t0;
    if t2 -. t1 < !bg then bg := t2 -. t1;
    ratios.(i) <- (t2 -. t1) /. (t1 -. t0)
  done;
  Array.sort compare ratios;
  (!bf, !bg, ratios.(reps / 2))

(* Match the machine: domains beyond the core count are time-sliced,
   and the fork-join jitter of an oversubscribed pool (milliseconds
   per parallel region on a busy 1-core box) drowns the effects this
   bench measures. *)
let pr4_workers = max 1 (min 4 (Domain.recommended_domain_count ()))

let pr4_fempic ?sched ?move_sched ~scatter () =
  let profile = Opp_core.Profile.create () in
  let th =
    Opp_thread.Thread_runner.create ~profile ?sched ~scatter ?move_sched ~workers:pr4_workers ()
  in
  let sim =
    Fempic.Fempic_sim.create ~prm:Experiments.Config.fempic_small_prm ~profile
      ~runner:(Opp_thread.Thread_runner.runner th) ?locality:sched
      (Experiments.Config.fempic_mesh ())
  in
  ignore (Fempic.Fempic_sim.prefill sim);
  sim

(* The scatter pool's own regime: an indirect INC loop whose target
   dat is much larger than the span the loop actually touches. Fresh
   mode allocates and zeroes [workers] private copies of the whole
   target every launch; the pool reuses all-zero copies and the
   reduction walks only the dirty span. *)
let pr4_scatter_bench scatter =
  let profile = Opp_core.Profile.create () in
  let th = Opp_thread.Thread_runner.create ~profile ~scatter ~workers:pr4_workers () in
  let nbig = 400_000 and nelems = 4_096 in
  let ctx = Opp_core.Opp.init () in
  let elems = Opp_core.Opp.decl_set ctx ~name:"elems" nelems in
  let nodes = Opp_core.Opp.decl_set ctx ~name:"nodes" nbig in
  let e2n =
    Opp_core.Opp.decl_map ctx ~name:"e2n" ~from:elems ~to_:nodes ~arity:1
      (Some (Array.init nelems (fun i -> i * 2)))
  in
  let weight = Opp_core.Opp.decl_dat ctx ~name:"weight" ~set:nodes ~dim:1 None in
  let kernel views = Opp_core.View.inc views.(0) 0 1.0 in
  fun () ->
    Opp_thread.Thread_runner.par_loop th ~name:"ScatterInc" kernel elems Opp_core.Seq.Iterate_all
      [ Opp_core.Opp.arg_dat_i weight ~idx:0 ~map:e2n Opp_core.Opp.inc ]

let run_pr4 ~log out =
  let seed_sim = pr4_fempic ~scatter:`Fresh ~move_sched:`Static () in
  let pooled_sched = Opp_locality.Sched.create () in
  (* move_sched omitted: the runner picks dynamic scheduling only when
     the workers have real cores to balance across *)
  let pooled_sim = pr4_fempic ~sched:pooled_sched ~scatter:`Pooled () in
  let step_seed, step_pooled, step_ratio =
    time_pair ~warmup:2 ~reps:12
      (fun () -> ignore (Fempic.Fempic_sim.step seed_sim))
      (fun () -> ignore (Fempic.Fempic_sim.step pooled_sim))
  in
  (* isolated scatter phase: the 4-way indirect charge deposit *)
  let dep_fresh, dep_pooled, _ =
    time_pair ~warmup:3 ~reps:10
      (fun () -> Fempic.Fempic_sim.deposit_charge seed_sim)
      (fun () -> Fempic.Fempic_sim.deposit_charge pooled_sim)
  in
  (* the pool's own regime: big INC target, narrow touched span *)
  let scatter_fresh, scatter_pooled, _ =
    let fresh = pr4_scatter_bench `Fresh and pooled = pr4_scatter_bench `Pooled in
    time_pair ~warmup:3 ~reps:10 fresh pooled
  in
  (* isolated mover: after a few steps the population is skewed towards
     the inlet, the worst case for a static block partition *)
  let move_static_sim = pr4_fempic ~scatter:`Fresh ~move_sched:`Static () in
  let move_dynamic_sim = pr4_fempic ~scatter:`Fresh ~move_sched:`Dynamic () in
  (* explicit `Dynamic, so this row shows the raw queue cost even on a
     machine where the adaptive default would decline it *)
  ignore (Fempic.Fempic_sim.step move_static_sim);
  ignore (Fempic.Fempic_sim.step move_dynamic_sim);
  let move_static, move_dynamic, _ =
    time_pair ~warmup:2 ~reps:10
      (fun () -> ignore (Fempic.Fempic_sim.move move_static_sim))
      (fun () -> ignore (Fempic.Fempic_sim.move move_dynamic_sim))
  in
  (* the distributed baseline row, for continuity with tab1 *)
  let dist =
    Apps_dist.Cabana_dist.create
      ~prm:(Experiments.Config.cabana_scaled_prm ~ranks:2 ~ppc:16)
      ~nranks:2
      ~profile:(Opp_core.Profile.create ())
      ()
  in
  let dist_step = time_min ~warmup:2 ~reps:5 (fun () -> Apps_dist.Cabana_dist.step dist) in
  (* The gate bounds the locality layer's overhead on the full step:
     the scaled-down bench mesh (96 cells) keeps every indirect target
     cache-hot, so binned iteration has nothing to win here and the
     honest expectation is parity. The margin covers scheduler noise
     on a shared single-core CI box; a real regression (sort thrash, a
     quadratic rebuild) shows up as 2x and more. *)
  let tolerance = 1.35 in
  let pass = step_ratio <= tolerance in
  let row name seconds =
    Opp_obs.Json.Obj [ ("name", Opp_obs.Json.Str name); ("seconds", Opp_obs.Json.Num seconds) ]
  in
  let json =
    Opp_obs.Json.Obj
      [
        ("bench", Opp_obs.Json.Str "pr4-locality");
        ("workers", Opp_obs.Json.Num (float_of_int pr4_workers));
        ("cores", Opp_obs.Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ( "rows",
          Opp_obs.Json.Arr
            [
              row "loc:fempic_step_seed" step_seed;
              row "loc:fempic_step_pooled" step_pooled;
              row "loc:deposit_fresh" dep_fresh;
              row "loc:deposit_pooled" dep_pooled;
              row "loc:scatter_fresh" scatter_fresh;
              row "loc:scatter_pooled" scatter_pooled;
              row "loc:move_static" move_static;
              row "loc:move_dynamic" move_dynamic;
              row "tab1:dist_step" dist_step;
            ] );
        ( "speedup",
          Opp_obs.Json.Obj
            [
              ("step", Opp_obs.Json.Num (step_seed /. step_pooled));
              ("deposit", Opp_obs.Json.Num (dep_fresh /. dep_pooled));
              ("scatter", Opp_obs.Json.Num (scatter_fresh /. scatter_pooled));
              ("move", Opp_obs.Json.Num (move_static /. move_dynamic));
            ] );
        ("step_ratio_median", Opp_obs.Json.Num step_ratio);
        ("sorts", Opp_obs.Json.Num (float_of_int (Opp_locality.Sched.sorts pooled_sched)));
        ("tolerance", Opp_obs.Json.Num tolerance);
        ("pass", Opp_obs.Json.Bool pass);
      ]
  in
  let oc = open_out out in
  output_string oc (Opp_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  append_record ~log json;
  Printf.printf "%-24s %12s\n" "pr4 benchmark" "time/run";
  let pr name s = Printf.printf "%-24s %9.3f ms\n" name (s *. 1e3) in
  pr "fempic_step seed" step_seed;
  pr "fempic_step pooled" step_pooled;
  pr "deposit fresh" dep_fresh;
  pr "deposit pooled" dep_pooled;
  pr "scatter fresh" scatter_fresh;
  pr "scatter pooled" scatter_pooled;
  pr "move static" move_static;
  pr "move dynamic" move_dynamic;
  pr "dist_step" dist_step;
  Printf.printf "step speedup %.2fx, deposit %.2fx, scatter %.2fx, move %.2fx; sorts=%d\n"
    (step_seed /. step_pooled) (dep_fresh /. dep_pooled) (scatter_fresh /. scatter_pooled)
    (move_static /. move_dynamic)
    (Opp_locality.Sched.sorts pooled_sched);
  Printf.printf "results written to %s\n%!" out;
  if not pass then begin
    Printf.eprintf
      "FAIL: pooled+binned step (%.3f ms) slower than seed (%.3f ms) beyond %.0f%% tolerance\n%!"
      (step_pooled *. 1e3) (step_seed *. 1e3)
      ((tolerance -. 1.0) *. 100.0);
    exit 1
  end

(* --- PR5 profiling smoke (docs/PERFORMANCE.md) ---

   Runs each distributed app traced for a few steps and feeds the live
   spans through the opp_prof pipeline exactly as bin/oppic_prof would
   feed a --trace artifact: per-rank phase breakdown, then the
   roofline gate — every par_loop / particle_move that does arithmetic
   must carry IR-derived flops and land on the roofline with no
   hand-supplied counts. Exits non-zero if any kernel is missing. *)

let pr5_trace_app ~name ~ranks ~steps ~step_fn =
  Opp_obs.Trace.reset ();
  Opp_obs.Trace.enable ();
  Opp_obs.Trace.name_track ranks "driver";
  for _ = 1 to steps do
    Opp_obs.Trace.with_track ranks (fun () ->
        Opp_obs.Trace.with_span ~cat:"step" "step" step_fn)
  done;
  let spans = Opp_prof.Prof_span.of_live () in
  let phases = Opp_prof.Phases.build spans in
  let profile = Opp_prof.Kstats.of_spans spans in
  let ks = Opp_core.Profile.entries ~t:profile () in
  let points = Opp_perf.Roofline.points Opp_perf.Device.xeon_8268_node ~t:profile () in
  Format.printf "@.-- %s: per-rank breakdown --@.%a" name
    (fun fmt () -> Opp_prof.Phases.pp fmt phases)
    ();
  Format.printf "-- %s: roofline --@.%a@." name
    (fun fmt () -> Opp_perf.Roofline.pp_points fmt points)
    ();
  (* Reset* kernels are genuinely zero-flop data movers; everything
     else must have an IR-derived count and a roofline point. *)
  let missing =
    List.filter
      (fun (k, (e : Opp_core.Profile.entry)) ->
        (not (String.starts_with ~prefix:"Reset" k))
        && (e.flops <= 0.0
           || not (List.exists (fun (p : Opp_perf.Roofline.point) -> p.kernel = k) points)))
      ks
  in
  List.iter
    (fun (k, _) ->
      Printf.eprintf "FAIL: %s kernel %s has no IR-derived roofline point\n%!" name k)
    missing;
  let module J = Opp_obs.Json in
  ( missing = [],
    J.Obj
      [
        ("app", J.Str name);
        ("ranks", J.Num (float_of_int (List.length phases.Opp_prof.Phases.p_ranks)));
        ("imbalance", J.Num phases.Opp_prof.Phases.p_imbalance);
        ("critical_path_us", J.Num phases.Opp_prof.Phases.p_crit_us);
        ("elapsed_us", J.Num phases.Opp_prof.Phases.p_elapsed_us);
        ("kernels", J.Num (float_of_int (List.length ks)));
        ("roofline_points", J.Num (float_of_int (List.length points)));
      ] )

let run_pr5 ~log out =
  let ranks = 4 and steps = 8 in
  let fempic =
    Apps_dist.Fempic_dist.create ~prm:Experiments.Config.fempic_small_prm ~nranks:ranks
      ~profile:(Opp_core.Profile.create ())
      (Experiments.Config.fempic_mesh ())
  in
  let fempic_ok, fempic_json =
    pr5_trace_app ~name:"fempic" ~ranks ~steps ~step_fn:(fun () ->
        ignore (Apps_dist.Fempic_dist.step fempic))
  in
  Apps_dist.Fempic_dist.shutdown fempic;
  let cabana =
    Apps_dist.Cabana_dist.create
      ~prm:(Experiments.Config.cabana_scaled_prm ~ranks ~ppc:16)
      ~nranks:ranks
      ~profile:(Opp_core.Profile.create ())
      ()
  in
  let cabana_ok, cabana_json =
    pr5_trace_app ~name:"cabana" ~ranks ~steps ~step_fn:(fun () ->
        Apps_dist.Cabana_dist.step cabana)
  in
  Apps_dist.Cabana_dist.shutdown cabana;
  Opp_obs.Trace.disable ();
  let pass = fempic_ok && cabana_ok in
  let json =
    Opp_obs.Json.Obj
      [
        ("bench", Opp_obs.Json.Str "pr5-prof");
        ("apps", Opp_obs.Json.Arr [ fempic_json; cabana_json ]);
        ("pass", Opp_obs.Json.Bool pass);
      ]
  in
  let oc = open_out out in
  output_string oc (Opp_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  append_record ~log json;
  Printf.printf "results written to %s\n%!" out;
  if not pass then exit 1

(* --- PR6 watch-overhead gate (docs/OBSERVABILITY.md, live monitoring) ---

   Times the tab1 distributed step bare against the same step with a
   live monitor attached at full rate (heartbeat-every=1: detectors,
   per-phase timing, canary scans, JSONL append, and the status.json
   snapshot at its default cadence). Each rep is a batch of steps —
   one step is ~2 ms, where a single scheduler preemption swamps the
   few-percent effect being measured — sized to the snapshot cadence
   so every rep carries exactly one status.json rewrite. The gate pins
   overhead at 5% on the median interleaved batch ratio. *)

let pr6_batch = 10

let run_pr6 ~log out =
  let make () =
    Apps_dist.Cabana_dist.create
      ~prm:(Experiments.Config.cabana_scaled_prm ~ranks:2 ~ppc:16)
      ~nranks:2
      ~profile:(Opp_core.Profile.create ())
      ()
  in
  let plain = make () in
  let watched = make () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "oppic_bench_watch" in
  List.iter
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.file_exists p then Sys.remove p)
    [ "heartbeats.jsonl"; "alerts.jsonl"; "status.json" ];
  let mon =
    Opp_watch.Monitor.create
      ~config:{ Opp_watch.Monitor.default_config with Opp_watch.Monitor.dir }
      ~nranks:2 ()
  in
  Apps_dist.Cabana_dist.set_watch watched mon;
  let batch_plain, batch_watched, ratio =
    time_pair ~warmup:2 ~reps:10
      (fun () ->
        for _ = 1 to pr6_batch do
          Apps_dist.Cabana_dist.step plain
        done)
      (fun () ->
        for _ = 1 to pr6_batch do
          Apps_dist.Cabana_dist.step watched
        done)
  in
  let step_plain = batch_plain /. float_of_int pr6_batch in
  let step_watched = batch_watched /. float_of_int pr6_batch in
  Opp_watch.Monitor.close mon;
  Apps_dist.Cabana_dist.shutdown plain;
  Apps_dist.Cabana_dist.shutdown watched;
  let tolerance = 1.05 in
  let pass = ratio <= tolerance in
  let row name seconds =
    Opp_obs.Json.Obj [ ("name", Opp_obs.Json.Str name); ("seconds", Opp_obs.Json.Num seconds) ]
  in
  let json =
    Opp_obs.Json.Obj
      [
        ("bench", Opp_obs.Json.Str "pr6-watch");
        ( "rows",
          Opp_obs.Json.Arr
            [ row "tab1:dist_step" step_plain; row "watch:dist_step_watched" step_watched ] );
        ("watch_ratio_median", Opp_obs.Json.Num ratio);
        ( "alerts",
          Opp_obs.Json.Num (float_of_int (Opp_watch.Monitor.alerts_total mon)) );
        ("tolerance", Opp_obs.Json.Num tolerance);
        ("pass", Opp_obs.Json.Bool pass);
      ]
  in
  let oc = open_out out in
  output_string oc (Opp_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  append_record ~log json;
  Printf.printf "%-24s %12s\n" "pr6 benchmark" "time/run";
  let pr name s = Printf.printf "%-24s %9.3f ms\n" name (s *. 1e3) in
  pr "dist_step bare" step_plain;
  pr "dist_step watched" step_watched;
  Printf.printf "watch overhead: median ratio %.3f (gate %.2f), alerts=%d\n" ratio tolerance
    (Opp_watch.Monitor.alerts_total mon);
  Printf.printf "results written to %s\n%!" out;
  if not pass then begin
    Printf.eprintf "FAIL: watched step %.3f ms vs bare %.3f ms exceeds %.0f%% overhead gate\n%!"
      (step_watched *. 1e3) (step_plain *. 1e3)
      ((tolerance -. 1.0) *. 100.0);
    exit 1
  end

(* --- PR8 heal recovery-latency gate (docs/RESILIENCE.md, "Online
   recovery") ---

   Bounds the cost of opp_heal's online recovery: a distributed fempic
   run snapshots every step, rank 1 is then declared dead, and
   [Dist_heal.recover] rebuilds it. The gate requires the respawn path
   (snapshot verification + in-place rank reconstruction + epoch
   fence) to finish within five clean distributed steps of wall time —
   recovery must cost less than the checkpoint-restart work it avoids.
   The shrink path is measured and reported alongside, ungated: its
   one-off re-partition is amortised over the whole degraded
   remainder of the run, not against a per-step budget. Both paths are
   also re-checked against the order-canonical state hash, so the gate
   can never pass on a recovery that was fast but wrong. *)

let pr8_nranks = 3
let pr8_steps = 6
let pr8_reps = 5
let pr8_tolerance = 5.0

let pr8_fempic () =
  Apps_dist.Fempic_dist.create ~prm:Experiments.Config.fempic_small_prm ~nranks:pr8_nranks
    ~profile:(Opp_core.Profile.create ())
    (Experiments.Config.fempic_mesh ())

let pr8_median a =
  let s = Array.copy a in
  Array.sort compare s;
  s.(Array.length s / 2)

(* Snapshot [pr8_steps] steps on a fresh app, then time one recovery of
   rank 1 in [mode]; [check] validates the healed app before teardown. *)
let pr8_recover_sample ~mode ~check () =
  let app = pr8_fempic () in
  let healer = Apps_dist.Dist_heal.fempic ~mode () in
  Apps_dist.Dist_heal.record healer app ~step:0;
  for _ = 1 to pr8_steps do
    ignore (Apps_dist.Fempic_dist.step app);
    Apps_dist.Dist_heal.record healer app ~step:app.Apps_dist.Fempic_dist.step_count
  done;
  let before = Apps_dist.Fempic_dist.state_hash app in
  let t0 = Opp_obs.Clock.now_s () in
  ignore (Apps_dist.Dist_heal.recover healer app ~rank:1 ~step:pr8_steps);
  let dt = Opp_obs.Clock.now_s () -. t0 in
  check app ~before;
  (* the healed app must keep stepping without the dead rank *)
  ignore (Apps_dist.Fempic_dist.step app);
  Apps_dist.Fempic_dist.shutdown app;
  dt

let run_pr8 ~log out =
  (* clean step cost at the same point in the run the recovery fires *)
  let clean = pr8_fempic () in
  Apps_dist.Fempic_dist.run clean ~steps:pr8_steps;
  let clean_samples =
    Array.init pr8_reps (fun _ ->
        let t0 = Opp_obs.Clock.now_s () in
        ignore (Apps_dist.Fempic_dist.step clean);
        Opp_obs.Clock.now_s () -. t0)
  in
  let step_s = pr8_median clean_samples in
  Apps_dist.Fempic_dist.shutdown clean;
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "FAIL: pr8 %s\n%!" m; exit 1) fmt in
  let respawn_samples =
    Array.init pr8_reps (fun _ ->
        pr8_recover_sample ~mode:Opp_heal.Heal.Respawn () ~check:(fun app ~before ->
            if Apps_dist.Fempic_dist.state_hash app <> before then
              fail "respawn changed the global state"))
  in
  let shrink_samples =
    Array.init pr8_reps (fun _ ->
        pr8_recover_sample ~mode:Opp_heal.Heal.Shrink () ~check:(fun app ~before ->
            if app.Apps_dist.Fempic_dist.nranks <> pr8_nranks - 1 then
              fail "shrink kept the dead rank";
            if Apps_dist.Fempic_dist.state_hash app <> before then
              fail "shrink changed the global state"))
  in
  let respawn_s = pr8_median respawn_samples in
  let shrink_s = pr8_median shrink_samples in
  let budget = pr8_tolerance *. step_s in
  let pass = respawn_s <= budget in
  let row name seconds =
    Opp_obs.Json.Obj [ ("name", Opp_obs.Json.Str name); ("seconds", Opp_obs.Json.Num seconds) ]
  in
  let json =
    Opp_obs.Json.Obj
      [
        ("bench", Opp_obs.Json.Str "pr8-heal");
        ("nranks", Opp_obs.Json.Num (float_of_int pr8_nranks));
        ("steps_journaled", Opp_obs.Json.Num (float_of_int pr8_steps));
        ( "rows",
          Opp_obs.Json.Arr
            [
              row "heal:clean_step" step_s;
              row "heal:respawn_recovery" respawn_s;
              row "heal:shrink_recovery" shrink_s;
            ] );
        ("respawn_over_step", Opp_obs.Json.Num (respawn_s /. step_s));
        ("tolerance_steps", Opp_obs.Json.Num pr8_tolerance);
        ("pass", Opp_obs.Json.Bool pass);
      ]
  in
  let oc = open_out out in
  output_string oc (Opp_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  append_record ~log json;
  Printf.printf "%-24s %12s\n" "pr8 benchmark" "time/run";
  let pr name s = Printf.printf "%-24s %9.3f ms\n" name (s *. 1e3) in
  pr "clean dist step" step_s;
  pr "respawn recovery" respawn_s;
  pr "shrink recovery" shrink_s;
  Printf.printf "respawn/step ratio %.2f (gate %.1f clean steps)\n" (respawn_s /. step_s)
    pr8_tolerance;
  Printf.printf "results written to %s\n%!" out;
  if not pass then
    fail "recovery-latency gate (respawn %.3f ms > %.1f x step %.3f ms)" (respawn_s *. 1e3)
      pr8_tolerance (step_s *. 1e3)

(* --- pr9: live rebalance gate ------------------------------------

   A deliberately skewed slab partition of the inlet duct concentrates
   the injected particles on the inlet rank (load ratio >= 2.0 by
   construction). The gate proves the live migration epoch does its
   job without touching physics: two identical runs step to the same
   point; run A is left skewed, run B is rebalanced. The rebalance
   must pull the ratio to <= 1.25, conserve every particle, and — being
   a pure ownership change — leave the order-canonical state hash
   bit-identical to run A's. The modelled weak-scaling campaign
   (static vs balanced across systems) rides along in the artifact. *)

let pr9_nranks = 4
let pr9_steps = 12
let pr9_seed_ratio = 2.0
let pr9_target_ratio = 1.25

(* long thin duct: slabs along z put the whole inlet in rank 0 *)
let pr9_mesh () = Opp_mesh.Tet_mesh.build ~nx:2 ~ny:2 ~nz:8 ~lx:2e-5 ~ly:2e-5 ~lz:8e-5

let pr9_app () =
  Apps_dist.Fempic_dist.create ~prm:Experiments.Config.fempic_small_prm ~nranks:pr9_nranks
    ~partitioner:`Slab
    ~profile:(Opp_core.Profile.create ())
    (pr9_mesh ())

let run_pr9 ~log out =
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "FAIL: pr9 %s\n%!" m; exit 1) fmt in
  let a = pr9_app () in
  Apps_dist.Fempic_dist.run a ~steps:pr9_steps;
  let hash_static = Apps_dist.Fempic_dist.state_hash a in
  let parts_static = Apps_dist.Fempic_dist.total_particles a in
  Apps_dist.Fempic_dist.shutdown a;
  let b = pr9_app () in
  Apps_dist.Fempic_dist.run b ~steps:pr9_steps;
  let before = 1.0 +. Apps_dist.Fempic_dist.particle_imbalance b in
  let w = Apps_dist.Fempic_dist.cell_particle_weights b in
  let t0 = Opp_obs.Clock.now_s () in
  let moved = Apps_dist.Fempic_dist.rebalance b ~weight:(fun c -> w.(c)) in
  let epoch_s = Opp_obs.Clock.now_s () -. t0 in
  let after = 1.0 +. Apps_dist.Fempic_dist.particle_imbalance b in
  let hash_balanced = Apps_dist.Fempic_dist.state_hash b in
  let parts_balanced = Apps_dist.Fempic_dist.total_particles b in
  (* the rebalanced app must keep stepping on the new partition *)
  ignore (Apps_dist.Fempic_dist.step b);
  Apps_dist.Fempic_dist.shutdown b;
  let seed_ok = before >= pr9_seed_ratio in
  let moved_ok = moved > 0 in
  let ratio_ok = after <= pr9_target_ratio in
  let parts_ok = parts_balanced = parts_static in
  let hash_ok = hash_balanced = hash_static in
  let pass = seed_ok && moved_ok && ratio_ok && parts_ok && hash_ok in
  let campaign =
    List.map
      (fun (r : Experiments.Campaign.row) ->
        Opp_obs.Json.Obj
          [
            ("system", Opp_obs.Json.Str r.Experiments.Campaign.r_system);
            ("ranks", Opp_obs.Json.Num (float_of_int r.Experiments.Campaign.r_ranks));
            ("static_s_per_step", Opp_obs.Json.Num r.Experiments.Campaign.r_static);
            ("balanced_s_per_step", Opp_obs.Json.Num r.Experiments.Campaign.r_balanced);
          ])
      (Experiments.Campaign.rows ())
  in
  let json =
    Opp_obs.Json.Obj
      [
        ("bench", Opp_obs.Json.Str "pr9-balance");
        ("nranks", Opp_obs.Json.Num (float_of_int pr9_nranks));
        ("steps", Opp_obs.Json.Num (float_of_int pr9_steps));
        ("ratio_before", Opp_obs.Json.Num before);
        ("ratio_after", Opp_obs.Json.Num after);
        ("seed_ratio_floor", Opp_obs.Json.Num pr9_seed_ratio);
        ("target_ratio", Opp_obs.Json.Num pr9_target_ratio);
        ("moved_cells", Opp_obs.Json.Num (float_of_int moved));
        ("epoch_seconds", Opp_obs.Json.Num epoch_s);
        ("particles", Opp_obs.Json.Num (float_of_int parts_balanced));
        ("hash_identical", Opp_obs.Json.Bool hash_ok);
        ("particles_conserved", Opp_obs.Json.Bool parts_ok);
        ("campaign", Opp_obs.Json.Arr campaign);
        ("pass", Opp_obs.Json.Bool pass);
      ]
  in
  let oc = open_out out in
  output_string oc (Opp_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  append_record ~log json;
  Printf.printf "%-24s %12s\n" "pr9 benchmark" "value";
  Printf.printf "%-24s %12.2f\n" "seed load ratio" before;
  Printf.printf "%-24s %12.2f\n" "post-rebalance ratio" after;
  Printf.printf "%-24s %12d\n" "cells moved" moved;
  Printf.printf "%-24s %9.3f ms\n" "epoch latency" (epoch_s *. 1e3);
  Printf.printf "state hash identical: %b; particles conserved: %b\n" hash_ok parts_ok;
  Printf.printf "results written to %s\n%!" out;
  if not pass then
    fail
      "live rebalance gate (seed %.2f>=%.1f: %b; moved>0: %b; after %.2f<=%.2f: %b; \
       conserved: %b; hash: %b)"
      before pr9_seed_ratio seed_ok moved_ok after pr9_target_ratio ratio_ok parts_ok hash_ok

let find_flag_value args flag =
  let rec go = function
    | a :: b :: _ when a = flag -> Some b
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let () =
  let args = Array.to_list Sys.argv in
  let trace = find_flag_value args "--trace" in
  let metrics = find_flag_value args "--metrics" in
  let obs_summary = List.mem "--obs-summary" args in
  if trace <> None || obs_summary then Opp_obs.Trace.enable ();
  if metrics <> None || obs_summary then Opp_obs.Metrics.enable ();
  (if List.mem "--list" args then list_experiments ()
   else if List.mem "--micro" args then run_micro ()
   else if List.mem "--pr4" args then
     run_pr4
       ~log:(Option.value ~default:"BENCH.json" (find_flag_value args "--log"))
       (Option.value ~default:"BENCH_PR4.json" (find_flag_value args "--out"))
   else if List.mem "--pr5" args then
     run_pr5
       ~log:(Option.value ~default:"BENCH.json" (find_flag_value args "--log"))
       (Option.value ~default:"BENCH_PR5.json" (find_flag_value args "--out"))
   else if List.mem "--pr6" args then
     run_pr6
       ~log:(Option.value ~default:"BENCH.json" (find_flag_value args "--log"))
       (Option.value ~default:"BENCH_PR6.json" (find_flag_value args "--out"))
   else if List.mem "--pr8" args then
     run_pr8
       ~log:(Option.value ~default:"BENCH.json" (find_flag_value args "--log"))
       (Option.value ~default:"BENCH_PR8.json" (find_flag_value args "--out"))
   else if List.mem "--pr9" args then
     run_pr9
       ~log:(Option.value ~default:"BENCH.json" (find_flag_value args "--log"))
       (Option.value ~default:"BENCH_PR9.json" (find_flag_value args "--out"))
   else
     match find_flag_value args "--only" with
     | Some id -> (
         match Experiments.Registry.find id with
         | Some e -> Experiments.Registry.run_one Format.std_formatter e
         | None ->
             Printf.eprintf "unknown experiment '%s'; try --list\n" id;
             exit 1)
     | None ->
         Experiments.Registry.run_all Format.std_formatter;
         Format.printf "@.(micro-benchmarks: run with --micro)@.");
  let try_write what path f =
    try f path
    with Sys_error msg ->
      Printf.eprintf "error: cannot write %s file: %s\n%!" what msg;
      exit 1
  in
  (match trace with
  | Some path ->
      try_write "trace" path Opp_obs.Trace.write_chrome;
      Printf.printf "trace: %d spans written to %s\n%!" (Opp_obs.Trace.span_count ()) path
  | None -> ());
  (match metrics with
  | Some path ->
      try_write "metrics" path (fun p ->
          if Filename.check_suffix p ".csv" then Opp_obs.Metrics.write_csv p
          else Opp_obs.Metrics.write_jsonl p);
      Printf.printf "metrics written to %s\n%!" path
  | None -> ());
  if obs_summary then begin
    Format.printf "@.-- trace summary --@.%a" (fun fmt () -> Opp_obs.Trace.summary fmt ()) ();
    Format.printf "@.-- metrics summary --@.%a" (fun fmt () -> Opp_obs.Metrics.summary fmt ()) ()
  end
