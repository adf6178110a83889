(** A/B regression diff of two traced runs.

    Compares run B (candidate) against run A (baseline) at two
    granularities — total kernel time, and per kernel/phase — and
    flags a regression when B exceeds A by more than the threshold.
    Small rows are ignored (noise floor): a row must carry at least
    [min_share] of its run's total time to be flagged on its own.
    Self-diff (A against A) is exactly ratio 1.0 everywhere and never
    flags, which CI uses as the sanity leg. *)

type delta = {
  d_name : string;
  d_a_us : float;
  d_b_us : float;
  d_ratio : float;  (** B/A; [infinity] when A is 0 and B is not *)
}

type t = {
  ab_total_a_us : float;
  ab_total_b_us : float;
  ab_total_ratio : float;
  ab_kernels : delta list;
  ab_phases : delta list;
  ab_regressions : string list;  (** human-readable, empty = pass *)
}

let ratio a b = if a > 0.0 then b /. a else if b > 0.0 then infinity else 1.0

let deltas ~a ~b ~key ~value =
  let tbl = Hashtbl.create 16 and order = ref [] in
  let touch name =
    if not (Hashtbl.mem tbl name) then begin
      Hashtbl.add tbl name (ref (0.0, 0.0));
      order := name :: !order
    end;
    Hashtbl.find tbl name
  in
  List.iter (fun x -> let c = touch (key x) in c := (fst !c +. value x, snd !c)) a;
  List.iter (fun x -> let c = touch (key x) in c := (fst !c, snd !c +. value x)) b;
  List.rev_map
    (fun name ->
      let av, bv = !(Hashtbl.find tbl name) in
      { d_name = name; d_a_us = av; d_b_us = bv; d_ratio = ratio av bv })
    !order

let diff ?(threshold = 0.10) ?(min_share = 0.05) ~(a : Prof_span.t list)
    ~(b : Prof_span.t list) () =
  let ka = Kstats.of_spans a and kb = Kstats.of_spans b in
  let total_a = Kstats.total_dur_us ka and total_b = Kstats.total_dur_us kb in
  let kernels =
    deltas
      ~a:(Opp_core.Profile.entries ~t:ka ())
      ~b:(Opp_core.Profile.entries ~t:kb ())
      ~key:fst
      ~value:(fun (_, (e : Opp_core.Profile.entry)) -> e.seconds *. 1e6)
  in
  let pa = List.filter (fun s -> s.Prof_span.s_cat = "phase") a in
  let pb = List.filter (fun s -> s.Prof_span.s_cat = "phase") b in
  let phases =
    deltas ~a:pa ~b:pb ~key:(fun s -> s.Prof_span.s_name)
      ~value:(fun s -> s.Prof_span.s_dur_us)
  in
  let gate = 1.0 +. threshold in
  let regressions = ref [] in
  let flag fmt = Printf.ksprintf (fun s -> regressions := s :: !regressions) fmt in
  if ratio total_a total_b > gate then
    flag "total kernel time %.3f ms -> %.3f ms (%.2fx > %.2fx)" (total_a /. 1e3)
      (total_b /. 1e3) (ratio total_a total_b) gate;
  let flag_rows label total rows =
    List.iter
      (fun d ->
        let share = if total > 0.0 then d.d_b_us /. total else 0.0 in
        if d.d_ratio > gate && share >= min_share then
          flag "%s %s: %.3f ms -> %.3f ms (%.2fx, %.0f%% of run)" label d.d_name
            (d.d_a_us /. 1e3) (d.d_b_us /. 1e3) d.d_ratio (100.0 *. share))
      rows
  in
  flag_rows "kernel" total_b kernels;
  let phase_total_b = List.fold_left (fun acc d -> acc +. d.d_b_us) 0.0 phases in
  flag_rows "phase" phase_total_b phases;
  {
    ab_total_a_us = total_a;
    ab_total_b_us = total_b;
    ab_total_ratio = ratio total_a total_b;
    ab_kernels = kernels;
    ab_phases = phases;
    ab_regressions = List.rev !regressions;
  }

let passed t = t.ab_regressions = []

let pp fmt t =
  Format.fprintf fmt "A/B: total kernel time %.3f ms -> %.3f ms (%.3fx)@."
    (t.ab_total_a_us /. 1e3) (t.ab_total_b_us /. 1e3) t.ab_total_ratio;
  Format.fprintf fmt "%-28s %12s %12s %8s@." "kernel/phase" "A(ms)" "B(ms)" "B/A";
  let row d =
    Format.fprintf fmt "%-28s %12.3f %12.3f %8.3f@." d.d_name (d.d_a_us /. 1e3)
      (d.d_b_us /. 1e3) d.d_ratio
  in
  List.iter row t.ab_kernels;
  List.iter row t.ab_phases;
  if passed t then Format.fprintf fmt "A/B: PASS (no regression past threshold)@."
  else
    List.iter (fun r -> Format.fprintf fmt "A/B: REGRESSION: %s@." r) t.ab_regressions

let to_json t =
  let module J = Opp_obs.Json in
  let delta_json d =
    J.Obj
      [
        ("name", J.Str d.d_name);
        ("a_us", J.Num d.d_a_us);
        ("b_us", J.Num d.d_b_us);
        ("ratio", J.Num d.d_ratio);
      ]
  in
  J.Obj
    [
      ("total_a_us", J.Num t.ab_total_a_us);
      ("total_b_us", J.Num t.ab_total_b_us);
      ("total_ratio", J.Num t.ab_total_ratio);
      ("kernels", J.Arr (List.map delta_json t.ab_kernels));
      ("phases", J.Arr (List.map delta_json t.ab_phases));
      ("regressions", J.Arr (List.map (fun r -> J.Str r) t.ab_regressions));
      ("passed", J.Bool (passed t));
    ]
