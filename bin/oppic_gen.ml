(* The OP-PIC source-to-source translator CLI (paper section 3.4).

   Reads a loop manifest (the declarative stand-in for the clang
   frontend) and writes one generated translation unit per
   parallelization target:

     dune exec bin/oppic_gen.exe -- examples/specs/fempic.oppic -o /tmp/gen
     dune exec bin/oppic_gen.exe -- examples/specs/fempic.oppic --target cuda --stdout *)

open Cmdliner

let run input output targets to_stdout lint =
  let source =
    let ic = open_in input in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let program =
    try Opp_codegen.Parser.parse source with
    | Opp_codegen.Parser.Parse_error msg | Opp_codegen.Ir.Invalid msg ->
        Printf.eprintf "%s: %s\n" input msg;
        exit 1
  in
  if lint then begin
    let result = Opp_check.analyze_ir program in
    List.iter
      (fun d -> prerr_endline (Opp_check.Diag.to_string d))
      result.Opp_check.Static.res_diags;
    let errors = List.length (Opp_check.Static.errors result) in
    let warnings = List.length (Opp_check.Static.warnings result) in
    if errors > 0 || warnings > 0 then begin
      Printf.eprintf "%s: lint found %d error(s), %d warning(s); not generating\n" input errors
        warnings;
      exit 1
    end
  end;
  let targets =
    match targets with
    | [] -> Opp_codegen.Emit.all_targets
    | names ->
        List.map
          (fun name ->
            match Opp_codegen.Emit.target_of_string name with
            | Some t -> t
            | None ->
                Printf.eprintf "unknown target '%s' (seq|omp|cuda|hip|mpi)\n" name;
                exit 1)
          names
  in
  Printf.printf "program '%s': %d sets, %d maps, %d dats, %d loops\n%!"
    program.Opp_codegen.Ir.p_name
    (List.length program.Opp_codegen.Ir.p_sets)
    (List.length program.Opp_codegen.Ir.p_maps)
    (List.length program.Opp_codegen.Ir.p_dats)
    (List.length program.Opp_codegen.Ir.p_loops);
  List.iter
    (fun target ->
      let code = Opp_codegen.Emit.emit_program program target in
      if to_stdout then print_string code
      else begin
        let rec mkdir_p dir =
          if not (Sys.file_exists dir) then begin
            mkdir_p (Filename.dirname dir);
            Sys.mkdir dir 0o755
          end
        in
        let dir =
          Filename.concat output (Opp_codegen.Emit.target_to_string target)
        in
        mkdir_p dir;
        let path =
          Filename.concat dir
            (Printf.sprintf "opp_kernels_%s.cpp" (Opp_codegen.Emit.target_to_string target))
        in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc code);
        Printf.printf "  %s (%d bytes)\n%!" path (String.length code)
      end)
    targets

let cmd =
  let input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc:"loop manifest (.oppic)")
  in
  let output =
    Arg.(value & opt string "generated" & info [ "o"; "output" ] ~doc:"output directory")
  in
  let targets =
    Arg.(value & opt_all string [] & info [ "target" ] ~doc:"target(s): seq|omp|cuda|hip|mpi|sycl")
  in
  let to_stdout = Arg.(value & flag & info [ "stdout" ] ~doc:"print code instead of writing files") in
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:"run the opp_check static analysis first; refuse to generate on any warning or error")
  in
  Cmd.v
    (Cmd.info "oppic_gen" ~doc:"OP-PIC source-to-source translator")
    Term.(const run $ input $ output $ targets $ to_stdout $ lint)

let () = exit (Cmd.eval cmd)
