(* Tests for the source-to-source translator: the template engine, the
   manifest parser, IR validation, and the shape of the generated code
   for each parallelization target. *)

let check_str = Alcotest.(check string)

(* --- template engine --- *)

let test_template_subst () =
  check_str "simple" "hello world"
    (Opp_codegen.Template.render "hello {{ name }}" [ ("name", Opp_codegen.Template.Str "world") ]);
  check_str "dotted" "x=3"
    (Opp_codegen.Template.render "x={{ p.x }}"
       [ ("p", Opp_codegen.Template.Assoc [ ("x", Opp_codegen.Template.Int 3) ]) ])

let test_template_for () =
  let env = [ ("xs", Opp_codegen.Template.(List [ Str "a"; Str "b"; Str "c" ])) ] in
  check_str "join with loop.last" "a,b,c"
    (Opp_codegen.Template.render "{% for x in xs %}{{ x }}{% if loop.last %}{% else %},{% endif %}{% endfor %}" env);
  check_str "loop.index" "0a 1b 2c "
    (Opp_codegen.Template.render "{% for x in xs %}{{ loop.index }}{{ x }} {% endfor %}" env)

let test_template_if_else () =
  let tpl = "{% if flag %}yes{% else %}no{% endif %}" in
  check_str "true" "yes" (Opp_codegen.Template.render tpl [ ("flag", Opp_codegen.Template.Bool true) ]);
  check_str "false" "no" (Opp_codegen.Template.render tpl [ ("flag", Opp_codegen.Template.Bool false) ])

let test_template_nested () =
  let env =
    [
      ( "rows",
        Opp_codegen.Template.(
          List
            [
              Assoc [ ("name", Str "a"); ("ok", Bool true) ];
              Assoc [ ("name", Str "b"); ("ok", Bool false) ];
            ]) );
    ]
  in
  check_str "nested for+if" "a! b "
    (Opp_codegen.Template.render
       "{% for r in rows %}{{ r.name }}{% if r.ok %}!{% endif %} {% endfor %}" env)

let test_template_errors () =
  let raises_error f =
    try
      ignore (f ());
      false
    with Opp_codegen.Template.Error _ -> true
  in
  Alcotest.(check bool) "unknown name" true
    (raises_error (fun () -> Opp_codegen.Template.render "{{ nope }}" []));
  Alcotest.(check bool) "unterminated" true
    (raises_error (fun () -> Opp_codegen.Template.render "{{ x " []));
  Alcotest.(check bool) "missing endfor" true
    (raises_error (fun () ->
         Opp_codegen.Template.render "{% for x in xs %}" [ ("xs", Opp_codegen.Template.List []) ]))

(* --- parser and IR validation --- *)

let fempic_spec = {|
program demo
set cells
set nodes
particle_set parts cells
map c2n cells nodes 2
map p2c parts cells 1
map c2c cells cells 2
dat nd nodes 1
dat pd parts 3
loop L1 kernel k1 over parts iterate all
  arg pd read
  arg nd idx 0 map c2n p2c p2c inc
end
move M kernel mk over parts c2c c2c p2c p2c
  arg pd rw
end
loop L2 kernel k2 over cells iterate all
  arg nd idx 0 map c2n read
end
|}

let test_parser_roundtrip () =
  let p = Opp_codegen.Parser.parse fempic_spec in
  Alcotest.(check string) "program name" "demo" p.Opp_codegen.Ir.p_name;
  Alcotest.(check int) "sets" 3 (List.length p.Opp_codegen.Ir.p_sets);
  Alcotest.(check int) "maps" 3 (List.length p.Opp_codegen.Ir.p_maps);
  Alcotest.(check int) "loops" 3 (List.length p.Opp_codegen.Ir.p_loops);
  match p.Opp_codegen.Ir.p_loops with
  | [ l1; m; _l2 ] ->
      Alcotest.(check string) "loop label" "L1" l1.Opp_codegen.Ir.l_name;
      Alcotest.(check int) "loop args" 2 (List.length l1.Opp_codegen.Ir.l_args);
      (match m.Opp_codegen.Ir.l_kind with
      | Opp_codegen.Ir.Particle_move { c2c; p2c } ->
          Alcotest.(check string) "c2c" "c2c" c2c;
          Alcotest.(check string) "p2c" "p2c" p2c
      | _ -> Alcotest.fail "expected a move loop")
  | _ -> Alcotest.fail "expected three loops"

let expect_parse_error spec fragment =
  try
    ignore (Opp_codegen.Parser.parse spec);
    Alcotest.fail "expected a parse error"
  with
  | Opp_codegen.Parser.Parse_error msg | Opp_codegen.Ir.Invalid msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions '%s' (got: %s)" fragment msg)
        true
        (let re = Str.regexp_string fragment in
         try
           ignore (Str.search_forward re msg 0);
           true
         with Not_found -> false)

let test_parser_errors () =
  expect_parse_error "bogus line" "cannot parse";
  expect_parse_error "loop L kernel k over s iterate all\n  arg d read" "not closed";
  expect_parse_error "set cells\nloop L kernel k over cells iterate all\nend" "no arguments"

(* The grammar has no halo statements (the runtime derives them), so an
   [exchange] line is a parse error at its line. *)
let test_parser_retired_exchange () =
  expect_parse_error "program p\nset cells\ndat cell_e cells 3\nexchange cell_e"
    "line 4: cannot parse 'exchange cell_e'"

let test_ir_validation () =
  expect_parse_error
    {|
set cells
dat d cells 1
loop L kernel k over cells iterate all
  arg missing read
end
|}
    "unknown dat";
  expect_parse_error
    {|
set cells
set nodes
map c2n cells nodes 2
dat nd nodes 1
loop L kernel k over cells iterate all
  arg nd idx 5 map c2n read
end
|}
    "out of arity";
  expect_parse_error
    {|
set cells
set nodes
dat nd nodes 1
loop L kernel k over cells iterate all
  arg nd read
end
|}
    "direct arg"

(* --- generated code shape --- *)

let program () = Opp_codegen.Parser.parse fempic_spec

let contains hay needle =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

let check_contains code what needle =
  Alcotest.(check bool) (Printf.sprintf "%s contains %s" what needle) true (contains code needle)

let test_emit_seq () =
  let code = Opp_codegen.Emit.emit_program (program ()) Opp_codegen.Emit.Seq in
  check_contains code "seq" "void opp_par_loop_k1__seq";
  check_contains code "seq" "void opp_particle_move_mk__seq";
  (* double indirection resolved through both maps *)
  check_contains code "seq" "map_c2n[map_p2c[n] * 2 + 0] * 1";
  check_contains code "seq" "opp_particle_hole_fill";
  (* no device or MPI artefacts leak into the sequential build *)
  Alcotest.(check bool) "no cuda" false (contains code "__global__");
  Alcotest.(check bool) "no halo" false (contains code "opp_halo_exchange")

let test_emit_omp () =
  let code = Opp_codegen.Emit.emit_program (program ()) Opp_codegen.Emit.Omp in
  check_contains code "omp" "#pragma omp parallel for";
  (* the scatter-array strategy for the indirect increment *)
  check_contains code "omp" "opp_scatter_alloc";
  check_contains code "omp" "opp_scatter_reduce";
  check_contains code "omp" "scatter_nd[tid *"

let test_emit_cuda_hip () =
  let cuda = Opp_codegen.Emit.emit_program (program ()) Opp_codegen.Emit.Cuda in
  check_contains cuda "cuda" "__global__ void opp_dev_k1";
  check_contains cuda "cuda" "opp_atomic_add";
  check_contains cuda "cuda" "while (status == OPP_NEED_MOVE)";
  let hip = Opp_codegen.Emit.emit_program (program ()) Opp_codegen.Emit.Hip in
  check_contains hip "hip" "#include <hip/hip_runtime.h>";
  check_contains hip "hip" "opp_par_loop_k1__hip"

let test_emit_mpi () =
  let code = Opp_codegen.Emit.emit_program (program ()) Opp_codegen.Emit.Mpi in
  (* indirect read in L2 imports its halo; the indirect increment in
     L1 pushes halo contributions back to the owners *)
  check_contains code "mpi" "opp_halo_exchange(arg0)";
  check_contains code "mpi" "opp_halo_reduce(arg1)";
  check_contains code "mpi" "opp_move_pack";
  check_contains code "mpi" "opp_particle_exchange"

let test_emit_sycl () =
  (* the paper's future-work Intel GPU target: added as one template *)
  let code = Opp_codegen.Emit.emit_program (program ()) Opp_codegen.Emit.Sycl in
  check_contains code "sycl" "#include <sycl/sycl.hpp>";
  check_contains code "sycl" "parallel_for";
  check_contains code "sycl" "sycl::atomic_ref";
  check_contains code "sycl" "opp_par_loop_k1__sycl";
  check_contains code "sycl" "while (status == OPP_NEED_MOVE)"

let test_emit_all_targets () =
  let files = Opp_codegen.Emit.emit_all (program ()) in
  Alcotest.(check int) "six targets" 6 (List.length files);
  List.iter
    (fun (name, code) ->
      Alcotest.(check bool) (name ^ " nonempty") true (String.length code > 200);
      check_contains code name "Auto-generated by the OP-PIC translator")
    files

let rec find_up dir path =
  let candidate = Filename.concat dir path in
  if Sys.file_exists candidate then candidate
  else
    let parent = Filename.dirname dir in
    if parent = dir then failwith (path ^ " not found above " ^ Sys.getcwd ())
    else find_up parent path

let test_emit_fempic_manifest () =
  (* the shipped Mini-FEM-PIC manifest translates cleanly end to end *)
  let source =
    let ic = open_in (find_up (Sys.getcwd ()) "examples/specs/fempic.oppic") in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let p = Opp_codegen.Parser.parse source in
  Alcotest.(check int) "seven loops" 7 (List.length p.Opp_codegen.Ir.p_loops);
  List.iter
    (fun (_, code) -> Alcotest.(check bool) "generated" true (String.length code > 500))
    (Opp_codegen.Emit.emit_all p)

let suite =
  [
    Alcotest.test_case "template: substitution" `Quick test_template_subst;
    Alcotest.test_case "template: for loops" `Quick test_template_for;
    Alcotest.test_case "template: if/else" `Quick test_template_if_else;
    Alcotest.test_case "template: nesting" `Quick test_template_nested;
    Alcotest.test_case "template: errors" `Quick test_template_errors;
    Alcotest.test_case "parser: roundtrip" `Quick test_parser_roundtrip;
    Alcotest.test_case "parser: errors" `Quick test_parser_errors;
    Alcotest.test_case "parser: retired exchange statement" `Quick test_parser_retired_exchange;
    Alcotest.test_case "ir: validation" `Quick test_ir_validation;
    Alcotest.test_case "emit: seq" `Quick test_emit_seq;
    Alcotest.test_case "emit: omp scatter arrays" `Quick test_emit_omp;
    Alcotest.test_case "emit: cuda/hip" `Quick test_emit_cuda_hip;
    Alcotest.test_case "emit: mpi halos" `Quick test_emit_mpi;
    Alcotest.test_case "emit: sycl (future-work target)" `Quick test_emit_sycl;
    Alcotest.test_case "emit: all targets" `Quick test_emit_all_targets;
    Alcotest.test_case "emit: fempic manifest" `Quick test_emit_fempic_manifest;
  ]
