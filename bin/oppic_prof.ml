(* oppic_prof — post-mortem performance analysis of OP-PIC runs.

   Consumes the artifacts every driver already writes (--trace Chrome
   JSON, --metrics JSONL) and emits the paper-style reports: the
   per-rank runtime breakdown with imbalance and halo-wait
   attribution, the kernel-time table, and an automatic roofline
   placement of every par_loop / particle_move (flop counts are
   IR-derived in lib/prof/kernels.ml — nothing hand-supplied). With
   --against it A/B-diffs two runs and exits 4 past the regression
   threshold, which is what CI gates on. --spec prints the static
   cost table of a .oppic manifest without any run at all.

   Examples:
     dune exec bin/fempic_run.exe -- --backend mpi --ranks 4 --trace run.json
     dune exec bin/oppic_prof.exe -- --trace run.json --device V100
     dune exec bin/oppic_prof.exe -- --trace run.json --against base.json --threshold 0.15
     dune exec bin/oppic_prof.exe -- --spec examples/specs/fempic.oppic

   Exit codes: 0 ok / A-B pass, 1 unreadable artifact, 2 usage or
   manifest error, 4 A/B regression. *)

open Cmdliner

let load_trace what path =
  match Opp_prof.Prof_span.load_chrome path with
  | Ok tr -> tr
  | Error msg ->
      Printf.eprintf "error: cannot load %s trace: %s\n%!" what msg;
      exit 1

(* One row per metric: count and final value, from the JSONL artifact.
   Lines that do not parse are counted and reported, not fatal. *)
let metrics_report path =
  let module J = Opp_obs.Json in
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "error: cannot load metrics: %s\n%!" msg;
      exit 1
  in
  let rows = ref 0 and bad = ref 0 in
  let order = ref [] in
  let last : (string, float) Hashtbl.t = Hashtbl.create 16 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          if String.trim line <> "" then
            match J.of_string line with
            | Ok (J.Obj fields) ->
                incr rows;
                List.iter
                  (fun (k, v) ->
                    match J.num v with
                    | Some x ->
                        if not (Hashtbl.mem last k) then order := k :: !order;
                        Hashtbl.replace last k x
                    | None -> ())
                  fields
            | _ -> incr bad
        done
      with End_of_file -> ());
  Format.printf "metrics: %d rows from %s%s@." !rows path
    (if !bad > 0 then Printf.sprintf " (%d unparseable lines skipped)" !bad else "");
  List.iter
    (fun k -> Format.printf "  %-24s final %14.6g@." k (Hashtbl.find last k))
    (List.rev !order)

let roofline_json points =
  let module J = Opp_obs.Json in
  J.Arr
    (List.map
       (fun (p : Opp_perf.Roofline.point) ->
         J.Obj
           [
             ("kernel", J.Str p.kernel);
             ("intensity", J.Num p.intensity);
             ("gflops", J.Num p.gflops);
             ("roof_gflops", J.Num p.roof_gflops);
             ("fraction_of_roof", J.Num p.fraction_of_roof);
             ("bound", J.Str (Opp_perf.Roofline.bound_to_string p.bound));
           ])
       points)

let cost_json costs =
  let module J = Opp_obs.Json in
  J.Arr
    (List.map
       (fun (c : Opp_prof.Cost.t) ->
         J.Obj
           [
             ("loop", J.Str c.c_loop);
             ( "kind",
               J.Str
                 (match c.c_kind with
                 | Opp_check.Descriptor.Par_loop_d -> "par_loop"
                 | Opp_check.Descriptor.Particle_move_d -> "particle_move") );
             ("flops_per_elem", J.Num c.c_flops);
             ("bytes_per_elem", J.Num c.c_bytes);
             ("known_kernel", J.Bool c.c_known);
           ])
       costs)

let run trace_file against threshold min_share device_name metrics_file spec json_out =
  if trace_file = None && spec = None then begin
    Printf.eprintf "oppic_prof: nothing to do; pass --trace FILE and/or --spec FILE\n%!";
    exit 2
  end;
  let device =
    match Opp_perf.Device.of_name device_name with
    | Some d -> d
    | None ->
        Printf.eprintf "error: unknown device '%s' (8268|xeon|7742|epyc|V100|H100|MI210|MI250X)\n%!"
          device_name;
        exit 2
  in
  let json_fields = ref [] in
  let add_json k v = json_fields := (k, v) :: !json_fields in
  (* static cost table from a translator manifest: no run required *)
  (match spec with
  | Some path ->
      let source =
        try
          let ic = open_in path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with Sys_error msg ->
          Printf.eprintf "error: cannot read spec: %s\n%!" msg;
          exit 1
      in
      let program =
        try Opp_codegen.Parser.parse source
        with Opp_codegen.Parser.Parse_error msg ->
          Printf.eprintf "error: %s: %s\n%!" path msg;
          exit 2
      in
      let costs = Opp_prof.Cost.of_program program in
      Format.printf "== static cost model (%s) ==@.%a@." path
        (fun fmt () -> Opp_prof.Cost.pp fmt costs)
        ();
      add_json "static_costs" (cost_json costs)
  | None -> ());
  (match trace_file with
  | Some path ->
      let tr = load_trace "run" path in
      let spans = tr.Opp_prof.Prof_span.tr_spans in
      let phases = Opp_prof.Phases.build spans in
      Format.printf "== runtime breakdown (%s) ==@.%a@." path
        (fun fmt () -> Opp_prof.Phases.pp fmt phases)
        ();
      let profile = Opp_prof.Kstats.of_spans spans in
      Format.printf "== kernel breakdown ==@.%a@."
        (fun fmt () -> Opp_core.Profile.pp fmt ~t:profile ())
        ();
      let points = Opp_perf.Roofline.points device ~t:profile () in
      Format.printf "== roofline on %s ==@.%a@." device.Opp_perf.Device.name
        (fun fmt () -> Opp_perf.Roofline.pp_points fmt points)
        ();
      add_json "phases" (Opp_prof.Phases.to_json phases);
      add_json "kernels" (Opp_prof.Kstats.to_json spans);
      add_json "device" (Opp_obs.Json.Str device.Opp_perf.Device.short);
      add_json "roofline" (roofline_json points)
  | None -> ());
  (match metrics_file with Some path -> metrics_report path | None -> ());
  (* A/B last, so the verdict is the final word on stdout *)
  let ab =
    match (against, trace_file) with
    | Some base_path, Some cand_path ->
        let a = (load_trace "baseline" base_path).Opp_prof.Prof_span.tr_spans in
        let b = (load_trace "run" cand_path).Opp_prof.Prof_span.tr_spans in
        let d = Opp_prof.Ab.diff ~threshold ~min_share ~a ~b () in
        Format.printf "== A/B against %s ==@.%a" base_path
          (fun fmt () -> Opp_prof.Ab.pp fmt d)
          ();
        add_json "ab" (Opp_prof.Ab.to_json d);
        Some d
    | Some _, None ->
        Printf.eprintf "error: --against needs --trace (the candidate run)\n%!";
        exit 2
    | None, _ -> None
  in
  (match json_out with
  | Some path ->
      (try
         let oc = open_out path in
         Fun.protect
           ~finally:(fun () -> close_out oc)
           (fun () ->
             output_string oc (Opp_obs.Json.to_string (Opp_obs.Json.Obj (List.rev !json_fields)));
             output_char oc '\n')
       with Sys_error msg ->
         Printf.eprintf "error: cannot write report: %s\n%!" msg;
         exit 1);
      Printf.printf "report: JSON written to %s\n%!" path
  | None -> ());
  match ab with Some d when not (Opp_prof.Ab.passed d) -> exit 4 | _ -> ()

let cmd =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Chrome trace-event JSON written by a driver's $(b,--trace)")
  in
  let against =
    Arg.(
      value
      & opt (some string) None
      & info [ "against" ] ~docv:"FILE"
          ~doc:"baseline trace to A/B-diff the $(b,--trace) run against; exits 4 on regression")
  in
  let threshold =
    Arg.(
      value & opt float 0.10
      & info [ "threshold" ] ~docv:"X"
          ~doc:"A/B regression threshold: flag when B exceeds A by more than $(docv) (fraction)")
  in
  let min_share =
    Arg.(
      value & opt float 0.05
      & info [ "min-share" ] ~docv:"X"
          ~doc:"ignore per-kernel/per-phase rows carrying less than $(docv) of total time")
  in
  let device =
    Arg.(
      value & opt string "8268"
      & info [ "device" ] ~docv:"NAME"
          ~doc:"roofline device: 8268|xeon|7742|epyc|V100|H100|MI210|MI250X")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE" ~doc:"metrics JSONL written by a driver's $(b,--metrics)")
  in
  let spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:"print the static flop/byte cost table of a $(b,.oppic) manifest")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"also write the full report as JSON to $(docv)")
  in
  Cmd.v
    (Cmd.info "oppic_prof"
       ~doc:"runtime breakdown, roofline and A/B regression reports from OP-PIC trace artifacts")
    Term.(
      const run $ trace $ against $ threshold $ min_share $ device $ metrics $ spec $ json_out)

let () = exit (Cmd.eval cmd)
