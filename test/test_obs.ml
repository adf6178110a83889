(* Tests for the observability layer (opp_obs): the JSON codec, the
   monotonic clock, trace spans round-tripped through the Chrome
   trace-event exporter, the metrics registry with its JSONL/CSV
   exporters, log-scale histogram properties, and Profile.merge. *)

open Opp_obs

(* The trace and metrics recorders are process-wide singletons shared
   with every other suite in this binary; always leave them disabled
   and empty. *)
let isolated f () =
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ();
      Metrics.disable ();
      Metrics.reset ())
    f

(* --- json --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.Str "Move \"fast\"\n");
        ("count", Json.Num 42.0);
        ("frac", Json.Num 0.125);
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("items", Json.Arr [ Json.Num 1.0; Json.Str "two"; Json.Arr []; Json.Obj [] ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok v' -> Alcotest.(check string) "roundtrip" (Json.to_string v) (Json.to_string v')

let test_json_parse_basics () =
  let ok s = match Json.of_string s with Ok v -> v | Error e -> Alcotest.failf "'%s': %s" s e in
  (match ok " [1, -2.5e3, \"a\\u0041b\"] " with
  | Json.Arr [ Json.Num a; Json.Num b; Json.Str s ] ->
      Alcotest.(check (float 0.0)) "int" 1.0 a;
      Alcotest.(check (float 0.0)) "exp" (-2500.0) b;
      Alcotest.(check string) "unicode escape" "aAb" s
  | _ -> Alcotest.fail "unexpected shape");
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "'%s' should not parse" s
      | Error _ -> ())
    [ "{"; "[1,]"; "nul"; "\"open"; "1 2" ]

(* --- clock --- *)

let test_clock_monotone () =
  let last = ref (Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now_ns () in
    Alcotest.(check bool) "non-decreasing" true (Int64.compare t !last >= 0);
    last := t
  done

(* --- trace recorder --- *)

let test_trace_nesting_and_export () =
  Trace.enable ();
  Trace.with_track 3 (fun () ->
      Trace.with_span ~cat:"step" "outer" (fun () ->
          Trace.with_span ~cat:"par_loop" "inner" (fun () -> ignore (Sys.opaque_identity 1))));
  let spans = Trace.spans () in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let inner = List.nth spans 0 and outer = List.nth spans 1 in
  (* completion order: inner closes first *)
  Alcotest.(check string) "inner name" "inner" inner.Trace.sp_name;
  Alcotest.(check int) "inner depth" 1 inner.Trace.sp_depth;
  Alcotest.(check string) "inner path" "outer;inner" inner.Trace.sp_path;
  Alcotest.(check int) "outer depth" 0 outer.Trace.sp_depth;
  Alcotest.(check int) "track" 3 inner.Trace.sp_track;
  Alcotest.(check bool) "contained" true
    (Int64.compare inner.Trace.sp_ts_ns outer.Trace.sp_ts_ns >= 0
    && Int64.compare
         (Int64.add inner.Trace.sp_ts_ns inner.Trace.sp_dur_ns)
         (Int64.add outer.Trace.sp_ts_ns outer.Trace.sp_dur_ns)
       <= 0);
  (* disabled recorder: no spans, with_span still runs the thunk *)
  Trace.disable ();
  let hit = ref false in
  Trace.with_span "ignored" (fun () -> hit := true);
  Alcotest.(check bool) "thunk ran" true !hit;
  Alcotest.(check int) "nothing recorded" 2 (Trace.span_count ())

(* --- chrome trace golden round-trip over a distributed run --- *)

let chrome_events path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  match Json.of_string raw with
  | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
  | Ok root -> (
      match Option.bind (Json.member "traceEvents" root) Json.to_list with
      | None -> Alcotest.fail "no traceEvents array"
      | Some events -> events)

let test_chrome_trace_golden () =
  Trace.enable ();
  let mesh = Opp_mesh.Tet_mesh.build ~nx:4 ~ny:4 ~nz:8 ~lx:4e-5 ~ly:4e-5 ~lz:8e-5 in
  let prm = { Fempic.Params.default with Fempic.Params.target_particles = 4000.0 } in
  let dist =
    Apps_dist.Fempic_dist.create ~prm ~nranks:4 ~profile:(Opp_core.Profile.create ()) mesh
  in
  for _ = 1 to 5 do
    ignore (Apps_dist.Fempic_dist.step dist)
  done;
  let path = Filename.temp_file "opp_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write_chrome path;
      let events = chrome_events path in
      let field name ev = Json.member name ev in
      let xs =
        List.filter (fun ev -> field "ph" ev = Some (Json.Str "X")) events
      in
      Alcotest.(check bool) "has spans" true (List.length xs > 0);
      (* every complete event carries name/cat/ts/dur/tid *)
      List.iter
        (fun ev ->
          Alcotest.(check bool) "complete event shape" true
            (Option.is_some (Option.bind (field "name" ev) Json.str)
            && Option.is_some (Option.bind (field "cat" ev) Json.str)
            && Option.is_some (Option.bind (field "ts" ev) Json.num)
            && Option.is_some (Option.bind (field "dur" ev) Json.num)
            && Option.is_some (Option.bind (field "tid" ev) Json.num)))
        xs;
      let tid ev = Option.get (Option.bind (field "tid" ev) Json.num) in
      let cat ev = Option.get (Option.bind (field "cat" ev) Json.str) in
      let name ev = Option.get (Option.bind (field "name" ev) Json.str) in
      let tracks = List.sort_uniq compare (List.map tid xs) in
      Alcotest.(check bool) "at least 4 rank tracks" true (List.length tracks >= 4);
      (* each rank track holds par-loop and particle-move spans, and
         some span on it is nested (phase > kernel) *)
      List.iter
        (fun r ->
          let on_track = List.filter (fun ev -> tid ev = float_of_int r) xs in
          let cats = List.map cat on_track in
          Alcotest.(check bool)
            (Printf.sprintf "rank %d has par_loop spans" r)
            true (List.mem "par_loop" cats);
          Alcotest.(check bool)
            (Printf.sprintf "rank %d has particle_move spans" r)
            true (List.mem "particle_move" cats);
          let contained a b =
            let ts ev = Option.get (Option.bind (field "ts" ev) Json.num) in
            let dur ev = Option.get (Option.bind (field "dur" ev) Json.num) in
            a != b && ts a >= ts b && ts a +. dur a <= ts b +. dur b
          in
          Alcotest.(check bool)
            (Printf.sprintf "rank %d has nested spans" r)
            true
            (List.exists (fun a -> List.exists (fun b -> contained a b) on_track) on_track))
        [ 0; 1; 2; 3 ];
      let names = List.map name xs in
      let cats = List.map cat xs in
      Alcotest.(check bool) "mover span present" true (List.mem "Move" names);
      Alcotest.(check bool) "halo spans present" true (List.mem "halo" cats);
      (* fempic's one halo collective per step is the charge reduce *)
      Alcotest.(check bool) "halo reduce named" true (List.mem "HaloReduce" names))

(* --- metrics: jsonl/csv round-trip over a distributed run --- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  lines

let test_metrics_roundtrip () =
  Metrics.enable ();
  let mesh = Opp_mesh.Tet_mesh.build ~nx:4 ~ny:4 ~nz:8 ~lx:4e-5 ~ly:4e-5 ~lz:8e-5 in
  let prm = { Fempic.Params.default with Fempic.Params.target_particles = 4000.0 } in
  let dist =
    Apps_dist.Fempic_dist.create ~prm ~nranks:4 ~profile:(Opp_core.Profile.create ()) mesh
  in
  let steps = 5 in
  for s = 1 to steps do
    ignore (Apps_dist.Fempic_dist.step dist);
    Metrics.tick ~step:s
  done;
  let jsonl = Filename.temp_file "opp_metrics" ".jsonl" in
  let csv = Filename.temp_file "opp_metrics" ".csv" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove jsonl;
      Sys.remove csv)
    (fun () ->
      Metrics.write_jsonl jsonl;
      Metrics.write_csv csv;
      let parsed =
        List.map
          (fun line ->
            match Json.of_string line with
            | Ok v -> v
            | Error e -> Alcotest.failf "bad JSONL line: %s (%s)" line e)
          (read_lines jsonl)
      in
      let rows = List.filter (fun v -> Json.member "step" v <> None) parsed in
      Alcotest.(check int) "one row per step" steps (List.length rows);
      List.iteri
        (fun i row ->
          Alcotest.(check (float 0.0))
            "steps in order"
            (float_of_int (i + 1))
            (Option.get (Option.bind (Json.member "step" row) Json.num));
          List.iter
            (fun key ->
              Alcotest.(check bool) (key ^ " present") true (Json.member key row <> None))
            [ "particles"; "halo.bytes"; "migrate.particles"; "move.total_hops" ];
          Alcotest.(check bool) "particles positive" true
            (Option.get (Option.bind (Json.member "particles" row) Json.num) > 0.0))
        rows;
      (* the hop histogram is appended after the rows *)
      let hists = List.filter (fun v -> Json.member "histogram" v <> None) parsed in
      Alcotest.(check bool) "hop histogram exported" true
        (List.exists
           (fun h -> Option.bind (Json.member "histogram" h) Json.str = Some "move.hops")
           hists);
      Alcotest.(check bool) "histogram total matches registry" true
        (Metrics.hist_total "move.hops"
        = Option.map int_of_float
            (Option.bind
               (List.find
                  (fun h ->
                    Option.bind (Json.member "histogram" h) Json.str = Some "move.hops")
                  hists
               |> Json.member "total")
               Json.num));
      (* CSV: a header plus one line per step, header keyed by step;
         histogram summaries ride along as trailing # comment lines *)
      match read_lines csv with
      | header :: data ->
          Alcotest.(check bool) "csv header" true (String.length header > 4 && String.sub header 0 5 = "step,");
          let rows = List.filter (fun l -> l = "" || l.[0] <> '#') data in
          Alcotest.(check int) "csv rows" steps (List.length rows);
          Alcotest.(check bool) "csv histogram comment" true
            (List.exists (fun l -> l <> "" && l.[0] = '#') data)
      | [] -> Alcotest.fail "empty csv")

(* --- histogram properties --- *)

let prop_bucket_monotone =
  QCheck.Test.make ~name:"histogram bucketing is monotone" ~count:1000
    QCheck.(pair (float_bound_exclusive 1e12) (float_bound_exclusive 1e12))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Metrics.bucket_of lo <= Metrics.bucket_of hi)

let prop_bucket_bounds =
  QCheck.Test.make ~name:"values land inside their bucket bounds" ~count:1000
    QCheck.(float_bound_exclusive 1e12)
    (fun v ->
      let b = Metrics.bucket_of v in
      b >= 0 && b < Metrics.nbuckets
      && Metrics.bucket_lo b <= Float.max v 0.0
      && (b = Metrics.nbuckets - 1 || v < Metrics.bucket_lo (b + 1)))

let prop_hist_total_preserving =
  QCheck.Test.make ~name:"histogram observation count is preserved" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 500) (float_bound_exclusive 1e9))
    (fun vs ->
      isolated
        (fun () ->
          Metrics.enable ();
          List.iter (Metrics.observe "h") vs;
          match Metrics.hist_counts "h" with
          | None -> vs = [] (* nothing observed: no histogram exists *)
          | Some counts ->
              Array.fold_left ( + ) 0 counts = List.length vs
              && Metrics.hist_total "h" = Some (List.length vs))
        ())

(* --- counters / gauges / tick --- *)

let test_metrics_tick_semantics () =
  Metrics.enable ();
  Metrics.add "c" 5.0;
  Metrics.set "g" 1.5;
  Metrics.tick ~step:1;
  Metrics.add "c" 2.0;
  Metrics.set "g" 7.0;
  Metrics.tick ~step:2;
  Metrics.tick ~step:3;
  match Metrics.rows () with
  | [ (1, r1); (2, r2); (3, r3) ] ->
      (* counters tick as deltas, gauges as absolutes *)
      Alcotest.(check (float 0.0)) "c step1" 5.0 (List.assoc "c" r1);
      Alcotest.(check (float 0.0)) "c step2" 2.0 (List.assoc "c" r2);
      Alcotest.(check (float 0.0)) "c step3" 0.0 (List.assoc "c" r3);
      Alcotest.(check (float 0.0)) "g step1" 1.5 (List.assoc "g" r1);
      Alcotest.(check (float 0.0)) "g step2" 7.0 (List.assoc "g" r2);
      Alcotest.(check (float 0.0)) "g step3" 7.0 (List.assoc "g" r3)
  | rows -> Alcotest.failf "unexpected row count %d" (List.length rows)

(* --- Profile.merge --- *)

let entry_of t name =
  match List.assoc_opt name (Opp_core.Profile.entries ~t ()) with
  | Some e -> e
  | None -> Alcotest.failf "no entry %s" name

let test_profile_merge () =
  let open Opp_core in
  let a = Profile.create () and b = Profile.create () in
  Profile.record ~t:a ~name:"Move" ~elems:10 ~seconds:1.0 ~flops:100.0 ~bytes:800.0 ();
  Profile.record ~t:a ~name:"OnlyA" ~elems:1 ~seconds:0.5 ~flops:1.0 ~bytes:8.0 ();
  Profile.record ~t:b ~name:"Move" ~elems:20 ~seconds:2.0 ~flops:200.0 ~bytes:1600.0 ();
  Profile.record ~t:b ~name:"OnlyB" ~elems:2 ~seconds:0.25 ~flops:2.0 ~bytes:16.0 ();
  Profile.merge ~into:a b;
  (* overlapping name: fields sum *)
  let m = entry_of a "Move" in
  Alcotest.(check int) "calls" 2 m.Profile.calls;
  Alcotest.(check int) "elems" 30 m.Profile.elems;
  Alcotest.(check (float 1e-12)) "seconds" 3.0 m.Profile.seconds;
  Alcotest.(check (float 1e-12)) "flops" 300.0 m.Profile.flops;
  Alcotest.(check (float 1e-12)) "bytes" 2400.0 m.Profile.bytes;
  (* disjoint names: both survive, src untouched *)
  Alcotest.(check int) "onlyA intact" 1 (entry_of a "OnlyA").Profile.calls;
  Alcotest.(check int) "onlyB merged in" 2 (entry_of a "OnlyB").Profile.elems;
  Alcotest.(check int) "src untouched" 1 (List.length (Opp_core.Profile.entries ~t:b ()) - 1);
  Alcotest.(check (float 1e-12)) "totals add" (Profile.total_seconds ~t:a ())
    (3.0 +. 0.5 +. 0.25)

let suite =
  [
    ("json roundtrip", `Quick, isolated test_json_roundtrip);
    ("json parse basics", `Quick, isolated test_json_parse_basics);
    ("monotonic clock", `Quick, isolated test_clock_monotone);
    ("trace nesting & gating", `Quick, isolated test_trace_nesting_and_export);
    ("chrome trace golden (4-rank fempic)", `Quick, isolated test_chrome_trace_golden);
    ("metrics jsonl/csv roundtrip", `Quick, isolated test_metrics_roundtrip);
    ("metrics tick semantics", `Quick, isolated test_metrics_tick_semantics);
    ("profile merge", `Quick, isolated test_profile_merge);
    QCheck_alcotest.to_alcotest prop_bucket_monotone;
    QCheck_alcotest.to_alcotest prop_bucket_bounds;
    QCheck_alcotest.to_alcotest prop_hist_total_preserving;
  ]
