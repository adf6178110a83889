(* Tests for opp_check: the static analyzer (diagnostic codes, the
   dependence graph, clean real manifests) and the runtime sanitizer
   (every check fires on a deliberately broken loop; the real apps run
   clean under it, including the distributed halo-freshness checks). *)

open Opp_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- static analysis ------------------------------------------------ *)

let analyze_spec src =
  let program = Opp_codegen.Parser.parse_lax src in
  let desc = Opp_check.Descriptor.of_ir program in
  (desc, Opp_check.Static.analyze desc)

let codes (r : Opp_check.Static.result) =
  List.map (fun (d : Opp_check.Diag.t) -> d.Opp_check.Diag.code) r.Opp_check.Static.res_diags

let has_code r ~loop code =
  List.exists
    (fun (d : Opp_check.Diag.t) ->
      d.Opp_check.Diag.code = code && d.Opp_check.Diag.loop = Some loop)
    r.Opp_check.Static.res_diags

let bad_spec =
  {|program bad
set cells
set nodes
particle_set parts cells
map c2n cells nodes 4
map p2c parts cells 1
dat nf nodes 1
dat cf cells 1
loop BadScatter kernel k1 over cells iterate all
  arg nf idx 0 map c2n write
end
loop BadDeposit kernel k2 over parts iterate all
  arg nf idx 1 map c2n p2c p2c rw
end
loop ReadInc kernel k3 over cells iterate all
  arg cf read
  arg cf inc
end
loop BadDirect kernel k4 over nodes iterate all
  arg cf read
  arg nf idx 9 map c2n read
end
|}

let test_static_codes () =
  let _, r = analyze_spec bad_spec in
  check_bool "W001 on indirect write" true (has_code r ~loop:"BadScatter" "W001");
  check_bool "W002 on double-indirect rw" true (has_code r ~loop:"BadDeposit" "W002");
  check_bool "W003 on read+inc" true (has_code r ~loop:"ReadInc" "W003");
  check_bool "E010 on set mismatch" true (has_code r ~loop:"BadDirect" "E010");
  check_int "three errors" 3 (List.length (Opp_check.Static.errors r));
  check_int "three warnings" 3 (List.length (Opp_check.Static.warnings r))

let test_severity_from_code () =
  let open Opp_check.Diag in
  check_bool "E is error" true (severity_of_code "E010" = Error);
  check_bool "W is warning" true (severity_of_code "W001" = Warning);
  check_bool "I is info" true (severity_of_code "I101" = Info)

let rec find_up dir path =
  let candidate = Filename.concat dir path in
  if Sys.file_exists candidate then candidate
  else
    let parent = Filename.dirname dir in
    if parent = dir then failwith (path ^ " not found")
    else find_up parent path

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_fempic_spec_clean () =
  let src = read_file (find_up (Sys.getcwd ()) "examples/specs/fempic.oppic") in
  let desc, r = analyze_spec src in
  check_int "no errors" 0 (List.length (Opp_check.Static.errors r));
  check_int "no warnings" 0 (List.length (Opp_check.Static.warnings r));
  (* the infos are real: cell_volume is unused, several dats are
     geometry initialized outside the loop system *)
  check_bool "dead cell_volume flagged" true
    (List.exists
       (fun (d : Opp_check.Diag.t) ->
         d.Opp_check.Diag.code = "I101" && d.Opp_check.Diag.dat = Some "cell_volume")
       r.Opp_check.Static.res_diags);
  (* dependence graph: the deposit feeds the density solve *)
  check_bool "Deposit -> ChargeDensity RAW on node_charge" true
    (List.exists
       (fun (d : Opp_check.Static.dep) ->
         d.Opp_check.Static.dep_from = "DepositCharge"
         && d.Opp_check.Static.dep_to = "ComputeNodeChargeDensity"
         && d.Opp_check.Static.dep_dat = "node_charge"
         && d.Opp_check.Static.dep_hazard = Opp_check.Static.RAW)
       r.Opp_check.Static.res_deps);
  let dot = Opp_check.Static.to_dot desc r in
  check_bool "dot has digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  check_bool "dot has deposit edge" true
    (contains dot "\"DepositCharge\" -> \"ComputeNodeChargeDensity\"")

let test_json_roundtrip () =
  let _, r = analyze_spec bad_spec in
  let s = Opp_obs.Json.to_string (Opp_check.Static.to_json r) in
  match Opp_obs.Json.of_string s with
  | Error msg -> Alcotest.failf "lint JSON does not parse: %s" msg
  | Ok j ->
      let num name = Option.bind (Opp_obs.Json.member name j) Opp_obs.Json.num in
      check_bool "errors field" true (num "errors" = Some 3.0);
      check_bool "warnings field" true (num "warnings" = Some 3.0);
      let diags =
        Option.bind (Opp_obs.Json.member "diagnostics" j) Opp_obs.Json.to_list
        |> Option.value ~default:[]
      in
      check_int "all diagnostics serialized" (List.length (codes r)) (List.length diags)

(* the same rules fire on a live argument list via the descriptor mirror *)
let test_live_mirror () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 4 in
  let nodes = Opp.decl_set ctx ~name:"nodes" 5 in
  let c2n = Opp.decl_map ctx ~name:"c2n" ~from:cells ~to_:nodes ~arity:2 None in
  let nf = Opp.decl_dat ctx ~name:"nf" ~set:nodes ~dim:1 None in
  let diags =
    Opp_check.lint_args ~name:"LiveScatter" ~kind:Opp_check.Descriptor.Par_loop_d ~set:cells
      [ Opp.arg_dat_i nf ~idx:0 ~map:c2n Opp.write ]
  in
  check_bool "live W001" true
    (List.exists (fun (d : Opp_check.Diag.t) -> d.Opp_check.Diag.code = "W001") diags);
  let diags =
    Opp_check.lint_args ~name:"LiveMismatch" ~kind:Opp_check.Descriptor.Par_loop_d ~set:nodes
      [ Opp.arg_dat nf Opp.read; Opp.arg_dat_i nf ~idx:7 ~map:c2n Opp.read ]
  in
  check_bool "live E010" true
    (List.exists (fun (d : Opp_check.Diag.t) -> d.Opp_check.Diag.code = "E010") diags)

(* --- decl_map declaration-time validation --------------------------- *)

let test_decl_map_validates () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 3 in
  let nodes = Opp.decl_set ctx ~name:"nodes" 4 in
  (* -1 marks an unset entry and is legal *)
  ignore (Opp.decl_map ctx ~name:"ok" ~from:cells ~to_:nodes ~arity:2 (Some [| 0; 1; 2; 3; -1; 0 |]));
  let raises data =
    try
      ignore (Opp.decl_map ctx ~name:"bad" ~from:cells ~to_:nodes ~arity:2 (Some data));
      false
    with Invalid_argument _ -> true
  in
  check_bool "target beyond set rejected" true (raises [| 0; 1; 2; 4; 0; 0 |]);
  check_bool "below -1 rejected" true (raises [| 0; 1; -2; 3; 0; 0 |])

(* --- runtime sanitizer: seeded faults ------------------------------- *)

let expect_violation code f =
  try
    f ();
    Alcotest.failf "expected a %s violation" code
  with Opp_check.Violation v -> check_str "violation code" code v.Opp_check.v_code

let checked () = Opp_check.checked (Runner.seq ~profile:(Profile.create ()) ())

(* tiny fixture: 4 cells, 5 nodes, 2 nodes per cell (nodes shared
   between neighbouring cells, so non-Inc scatters collide) *)
let fixture () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 4 in
  let nodes = Opp.decl_set ctx ~name:"nodes" 5 in
  let c2n =
    Opp.decl_map ctx ~name:"c2n" ~from:cells ~to_:nodes ~arity:2
      (Some [| 0; 1; 1; 2; 2; 3; 3; 4 |])
  in
  let cf = Opp.decl_dat ctx ~name:"cf" ~set:cells ~dim:2 (Some (Array.init 8 float_of_int)) in
  let nf = Opp.decl_dat ctx ~name:"nf" ~set:nodes ~dim:1 None in
  (ctx, cells, nodes, c2n, cf, nf)

let test_e010_runtime () =
  let _, cells, _, _, _, nf = fixture () in
  expect_violation "E010" (fun () ->
      Runner.par_loop (checked ()) ~name:"WrongSet" (fun _ -> ()) cells Opp.all
        [ Opp.arg_dat nf Opp.read ])

let test_e020_write_through_read () =
  let _, cells, _, _, cf, _ = fixture () in
  expect_violation "E020" (fun () ->
      Runner.par_loop (checked ()) ~name:"Sneaky"
        (fun v -> Opp.set v.(0) 0 99.0)
        cells Opp.all
        [ Opp.arg_dat cf Opp.read ])

let test_e021_partial_write () =
  let _, cells, _, _, cf, _ = fixture () in
  expect_violation "E021" (fun () ->
      Runner.par_loop (checked ()) ~name:"HalfWrite"
        (fun v -> Opp.set v.(0) 0 1.0 (* component 1 left unwritten *))
        cells Opp.all
        [ Opp.arg_dat cf Opp.write ])

let test_e030_bad_map_entry () =
  let _, cells, _, c2n, _, nf = fixture () in
  (* -1 passes declaration (unset marker) but must not be dereferenced *)
  c2n.Types.m_data.(2) <- -1;
  expect_violation "E030" (fun () ->
      Runner.par_loop (checked ()) ~name:"DerefUnset" (fun _ -> ()) cells Opp.all
        [ Opp.arg_dat_i nf ~idx:0 ~map:c2n Opp.read ])

let test_e040_nan_output () =
  let _, cells, _, _, cf, _ = fixture () in
  expect_violation "E040" (fun () ->
      Runner.par_loop (checked ()) ~name:"Diverge"
        (fun v -> Opp.vinc v.(0) 0 infinity)
        cells Opp.all
        [ Opp.arg_dat cf Opp.rw ])

let test_e050_conflicting_writers () =
  let _, cells, _, c2n, _, nf = fixture () in
  (* make slot 1 of cells 0 and 1 share node 1: a non-Inc scatter race *)
  c2n.Types.m_data.(3) <- 1;
  expect_violation "E050" (fun () ->
      Runner.par_loop (checked ()) ~name:"RacyScatter"
        (fun v -> Opp.set v.(0) 0 1.0)
        cells Opp.all
        [ Opp.arg_dat_i nf ~idx:1 ~map:c2n Opp.write ])

let test_e060_stale_halo () =
  let _, _, nodes, _, _, nf = fixture () in
  (* pretend to be a rank: nodes 3,4 are halo copies *)
  nodes.Types.s_exec_size <- 3;
  let r = checked () in
  let read_all () =
    Runner.par_loop r ~name:"ReadAll" (fun _ -> ()) nodes Opp.all [ Opp.arg_dat nf Opp.read ]
  in
  (* an owned write leaves the bit set (Opp_dist.World.derive keeps
     it); the sanitizer reads it independently of that derivation *)
  Opp_dist.Freshness.mark_dirty nf;
  check_bool "marked dirty" true (Opp_dist.Freshness.is_dirty nf);
  expect_violation "E060" read_all;
  (* refreshing the halo clears the bit and the read is legal again *)
  Opp_dist.Freshness.mark_fresh nf;
  read_all ()

let test_move_checks () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 4 in
  let parts = Opp.decl_particle_set ctx ~name:"parts" ~count:3 cells in
  let p2c = Opp.decl_map ctx ~name:"p2c" ~from:parts ~to_:cells ~arity:1 (Some [| 0; 1; 2 |]) in
  let px = Opp.decl_dat ctx ~name:"px" ~set:parts ~dim:1 (Some [| 0.5; 1.5; 2.5 |]) in
  let settle v ctx' =
    ignore v;
    ctx'.Seq.status <- Seq.Move_done
  in
  (* clean one-hop settle works under the checked mover *)
  let res =
    Runner.particle_move (checked ()) ~name:"Settle" settle parts ~p2c [ Opp.arg_dat px Opp.read ]
  in
  check_int "all settled" 3 res.Seq.mv_moved;
  (* a corrupt p2c entry is caught at move entry *)
  p2c.Types.m_data.(1) <- -1;
  expect_violation "E030" (fun () ->
      ignore
        (Runner.particle_move (checked ()) ~name:"BadEntry" settle parts ~p2c
           [ Opp.arg_dat px Opp.read ]));
  p2c.Types.m_data.(1) <- 1;
  (* a kernel writing a Read arg is caught per hop *)
  expect_violation "E020" (fun () ->
      ignore
        (Runner.particle_move (checked ()) ~name:"SneakyMove"
           (fun v ctx' ->
             Opp.set v.(0) 0 9.0;
             ctx'.Seq.status <- Seq.Move_done)
           parts ~p2c
           [ Opp.arg_dat px Opp.read ]))

let test_violation_metrics () =
  let _, cells, _, _, cf, _ = fixture () in
  Opp_obs.Metrics.reset ();
  Opp_obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Opp_obs.Metrics.disable ();
      Opp_obs.Metrics.reset ())
    (fun () ->
      expect_violation "E020" (fun () ->
          Runner.par_loop (checked ()) ~name:"Counted"
            (fun v -> Opp.set v.(0) 0 99.0)
            cells Opp.all
            [ Opp.arg_dat cf Opp.read ]);
      Opp_obs.Metrics.tick ~step:1;
      let row = match Opp_obs.Metrics.rows () with (_, r) :: _ -> r | [] -> [] in
      check_bool "check.E020 counted" true (List.assoc_opt "check.E020" row = Some 1.0);
      check_bool "check.violations counted" true
        (List.assoc_opt "check.violations" row = Some 1.0))

(* --- the real apps run clean under the sanitizer -------------------- *)

let test_fempic_checked_clean () =
  let mesh = Opp_mesh.Tet_mesh.build ~nx:2 ~ny:2 ~nz:4 ~lx:2e-5 ~ly:2e-5 ~lz:4e-5 in
  let profile = Profile.create () in
  let runner = Opp_check.checked ~profile (Runner.seq ~profile ()) in
  check_str "runner name" "seq+check" runner.Runner.r_name;
  let prm = { Fempic.Params.default with Fempic.Params.target_particles = 5_000.0 } in
  let sim = Fempic.Fempic_sim.create ~prm ~runner ~profile mesh in
  ignore (Fempic.Fempic_sim.prefill sim);
  for _ = 1 to 2 do
    ignore (Fempic.Fempic_sim.step sim)
  done;
  check_bool "particles alive" true (sim.Fempic.Fempic_sim.parts.Types.s_size > 0)

let test_cabana_checked_clean () =
  let prm = { Cabana.Cabana_params.default with Cabana.Cabana_params.nz = 16; ppc = 16 } in
  let profile = Profile.create () in
  let runner = Opp_check.checked ~profile (Runner.seq ~profile ()) in
  let sim = Cabana.Cabana_sim.create ~prm ~runner ~profile () in
  for _ = 1 to 3 do
    Cabana.Cabana_sim.step sim
  done;
  let e = Cabana.Cabana_sim.energies sim in
  check_bool "field energy finite" true (Float.is_finite e.Cabana.Cabana_sim.e_field)

let test_dist_checked_clean () =
  let mesh = Opp_mesh.Tet_mesh.build ~nx:2 ~ny:2 ~nz:4 ~lx:2e-5 ~ly:2e-5 ~lz:4e-5 in
  let prm = { Fempic.Params.default with Fempic.Params.target_particles = 3_000.0 } in
  let profile = Profile.create () in
  let dist = Apps_dist.Fempic_dist.create ~prm ~nranks:2 ~checked:true ~profile mesh in
  for _ = 1 to 2 do
    ignore (Apps_dist.Fempic_dist.step dist)
  done;
  check_bool "particles alive" true (Apps_dist.Fempic_dist.total_particles dist > 0);
  let cprm =
    { Cabana.Cabana_params.default with Cabana.Cabana_params.nz = 16; ppc = 8 }
  in
  let cdist = Apps_dist.Cabana_dist.create ~prm:cprm ~nranks:2 ~checked:true ~profile () in
  for _ = 1 to 2 do
    Apps_dist.Cabana_dist.step cdist
  done;
  let e = Apps_dist.Cabana_dist.energies cdist in
  check_bool "dist field energy finite" true (Float.is_finite e.Cabana.Cabana_sim.e_field)

(* --- report plumbing: Diag sort + dedup ----------------------------- *)

let mk ~code ?loop ?dat msg = Opp_check.Diag.make ~code ?loop ?dat "%s" msg
let diag_codes = List.map (fun (d : Opp_check.Diag.t) -> d.Opp_check.Diag.code)

let test_diag_sort () =
  let diags =
    [
      mk ~code:"W003" ~loop:"C" "third loop";
      mk ~code:"W002" ~dat:"f" "no loop";
      mk ~code:"W001" ~loop:"A" ~dat:"y" "first loop, dat y";
      mk ~code:"W001" ~loop:"A" ~dat:"x" "first loop, dat x";
      mk ~code:"I101" ~loop:"B" "second loop";
    ]
  in
  let sorted = Opp_check.Diag.sort ~loop_order:[ "A"; "B"; "C" ] diags in
  Alcotest.(check (list string))
    "program order, then dat"
    [ "W001"; "W001"; "I101"; "W003"; "W002" ]
    (diag_codes sorted);
  check_str "dat tiebreak" "x"
    (match (List.hd sorted).Opp_check.Diag.dat with Some d -> d | None -> "");
  (* diagnostics without a loop sort after every loop-attached one *)
  check_bool "loopless last" true ((List.nth sorted 4).Opp_check.Diag.loop = None);
  (* sorting is deterministic: a permutation sorts to the same list *)
  let perm = [ List.nth diags 4; List.nth diags 2; List.nth diags 0; List.nth diags 3; List.nth diags 1 ] in
  check_bool "permutation invariant" true
    (Opp_check.Diag.sort ~loop_order:[ "A"; "B"; "C" ] perm = sorted)

let test_diag_dedup () =
  let d = mk ~code:"W001" ~loop:"L" ~dat:"f" "indirect write" in
  let other = mk ~code:"W002" ~loop:"L" ~dat:"f" "double indirect" in
  let out = Opp_check.Diag.dedup [ d; other; d; d ] in
  check_int "collapsed to two" 2 (List.length out);
  let first = List.hd out in
  let msg = first.Opp_check.Diag.message in
  check_bool "multiplicity suffix" true
    (String.length msg >= 4 && String.sub msg (String.length msg - 4) 4 = "(x3)");
  check_str "singleton untouched" "double indirect" (List.nth out 1).Opp_check.Diag.message

let suite =
  [
    Alcotest.test_case "static: codes fire on bad spec" `Quick test_static_codes;
    Alcotest.test_case "static: severity from code" `Quick test_severity_from_code;
    Alcotest.test_case "static: fempic spec clean + deps" `Quick test_fempic_spec_clean;
    Alcotest.test_case "static: json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "static: live arg mirror" `Quick test_live_mirror;
    Alcotest.test_case "diag sort is deterministic program order" `Quick test_diag_sort;
    Alcotest.test_case "diag dedup collapses with multiplicity" `Quick test_diag_dedup;
    Alcotest.test_case "decl_map: target validation" `Quick test_decl_map_validates;
    Alcotest.test_case "sanitizer: E010 wrong set" `Quick test_e010_runtime;
    Alcotest.test_case "sanitizer: E020 write through read" `Quick test_e020_write_through_read;
    Alcotest.test_case "sanitizer: E021 partial write" `Quick test_e021_partial_write;
    Alcotest.test_case "sanitizer: E030 unset map entry" `Quick test_e030_bad_map_entry;
    Alcotest.test_case "sanitizer: E040 non-finite output" `Quick test_e040_nan_output;
    Alcotest.test_case "sanitizer: E050 conflicting writers" `Quick test_e050_conflicting_writers;
    Alcotest.test_case "sanitizer: E060 stale halo" `Quick test_e060_stale_halo;
    Alcotest.test_case "sanitizer: move checks" `Quick test_move_checks;
    Alcotest.test_case "sanitizer: violations counted" `Quick test_violation_metrics;
    Alcotest.test_case "fempic clean under sanitizer" `Quick test_fempic_checked_clean;
    Alcotest.test_case "cabana clean under sanitizer" `Quick test_cabana_checked_clean;
    Alcotest.test_case "dist apps clean under sanitizer" `Quick test_dist_checked_clean;
  ]
