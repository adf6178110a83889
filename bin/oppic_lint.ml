(* Static analyzer CLI for OP-PIC loop manifests.

   Runs the opp_check per-loop analyses over a .oppic spec and
   reports diagnostics (stable codes, see docs/ANALYSIS.md) in a
   deterministic order with duplicates collapsed:

     dune exec bin/oppic_lint.exe -- examples/specs/fempic.oppic
     dune exec bin/oppic_lint.exe -- spec.oppic --json
     dune exec bin/oppic_lint.exe -- spec.oppic --strict        # warnings fail too
     dune exec bin/oppic_lint.exe -- spec.oppic --dot deps.dot  # Graphviz graph
     dune exec bin/oppic_lint.exe -- spec.oppic --json --baseline base.json

   --baseline ratchets against a checked-in --json artifact: any
   error/warning code whose count exceeds the baseline fails the run
   (new codes count from zero); shrinking or equal counts pass, so
   the baseline only ever tightens. Informational findings (I...)
   never ratchet.

   Exit codes: 0 clean (info-level findings never count), 1 errors
   (or, under --strict, warnings; or a ratchet regression), 2
   unparseable input. *)

open Cmdliner

(* per-code counts of ratchet-relevant (non-Info) diagnostics *)
let code_counts codes =
  List.fold_left
    (fun acc code ->
      let n = try List.assoc code acc with Not_found -> 0 in
      (code, n + 1) :: List.remove_assoc code acc)
    [] codes

let baseline_counts path =
  let source =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let json =
    match Opp_obs.Json.of_string source with
    | Ok j -> j
    | Error msg ->
        Printf.eprintf "%s: baseline parse error %s\n" path msg;
        exit 2
  in
  match Opp_obs.Json.member "diagnostics" json with
  | Some (Opp_obs.Json.Arr ds) ->
      code_counts
        (List.filter_map
           (fun d ->
             match (Opp_obs.Json.member "code" d, Opp_obs.Json.member "severity" d) with
             | Some (Opp_obs.Json.Str _), Some (Opp_obs.Json.Str "info") -> None
             | Some (Opp_obs.Json.Str c), _ -> Some c
             | _ -> None)
           ds)
  | _ -> []

let run input json strict dot_out baseline =
  let source =
    let ic = open_in input in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* parse_lax: structural problems become E010 diagnostics instead of
     stopping at the first Ir.Invalid *)
  let program =
    try Opp_codegen.Parser.parse_lax source
    with Opp_codegen.Parser.Parse_error msg ->
      Printf.eprintf "%s: %s\n" input msg;
      exit 2
  in
  let desc = Opp_check.Descriptor.of_ir program in
  let result = Opp_check.Static.analyze desc in
  let loop_order = List.map (fun (l : Opp_codegen.Ir.loop) -> l.Opp_codegen.Ir.l_name) program.Opp_codegen.Ir.p_loops in
  let diags =
    Opp_check.Diag.dedup
      (Opp_check.Diag.sort ~loop_order
         result.Opp_check.Static.res_diags)
  in
  (match dot_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Opp_check.Static.to_dot desc result)));
  let errors = List.filter (fun (d : Opp_check.Diag.t) -> d.Opp_check.Diag.severity = Opp_check.Diag.Error) diags in
  let warnings =
    List.filter (fun (d : Opp_check.Diag.t) -> d.Opp_check.Diag.severity = Opp_check.Diag.Warning) diags
  in
  (* the ratchet compares non-Info per-code counts of the (deduped)
     report against the checked-in --json artifact *)
  let regressions =
    match baseline with
    | None -> []
    | Some path ->
        let base = baseline_counts path in
        let cur =
          code_counts
            (List.filter_map
               (fun (d : Opp_check.Diag.t) ->
                 if d.Opp_check.Diag.severity = Opp_check.Diag.Info then None
                 else Some d.Opp_check.Diag.code)
               diags)
        in
        List.filter_map
          (fun (code, n) ->
            let b = try List.assoc code base with Not_found -> 0 in
            if n > b then Some (code, n, b) else None)
          (List.sort compare cur)
  in
  if json then begin
    let open Opp_obs.Json in
    let deps =
      match Opp_check.Static.to_json result with
      | Obj fields -> ( match List.assoc_opt "dependences" fields with Some d -> d | None -> Arr [])
      | _ -> Arr []
    in
    print_endline
      (to_string
         (Obj
            [
              ("program", Str result.Opp_check.Static.res_program);
              ("errors", Num (float_of_int (List.length errors)));
              ("warnings", Num (float_of_int (List.length warnings)));
              ("diagnostics", Arr (List.map Opp_check.Diag.to_json diags));
              ("dependences", deps);
            ]))
  end
  else begin
    List.iter (fun d -> print_endline (Opp_check.Diag.to_string d)) diags;
    Printf.printf "%s: %d loop(s), %d dependence edge(s); %d error(s), %d warning(s)\n"
      result.Opp_check.Static.res_program
      (List.length desc.Opp_check.Descriptor.pr_loops)
      (List.length result.Opp_check.Static.res_deps)
      (List.length errors) (List.length warnings)
  end;
  List.iter
    (fun (code, n, b) ->
      Printf.eprintf "ratchet: %s count %d exceeds baseline %d\n" code n b)
    regressions;
  if errors <> [] || (strict && warnings <> []) || regressions <> [] then exit 1

let cmd =
  let input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc:"loop manifest (.oppic)")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"emit diagnostics as JSON") in
  let strict = Arg.(value & flag & info [ "strict" ] ~doc:"exit nonzero on warnings too") in
  let dot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"write the loop dependence graph as Graphviz DOT")
  in
  let baseline =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "ratchet against a checked-in --json artifact: fail when any non-info code's count \
             exceeds the baseline's (shrinking passes)")
  in
  Cmd.v
    (Cmd.info "oppic_lint" ~doc:"static loop-dependence & race analysis for OP-PIC manifests")
    Term.(const run $ input $ json $ strict $ dot_out $ baseline)

let () = exit (Cmd.eval cmd)
