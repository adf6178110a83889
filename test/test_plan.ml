(* Tests for opp_plan: whole-step dataflow diagnostics (W110 redundant
   exchange, W111 dead write, I120 fusable group, E090 stale read),
   plan derivation + independent legality proof, the recording
   executor's lifecycle, and the qcheck equivalence properties that
   pit derived/corrupted plans against the synthetic interpreter
   oracle. Also covers the Diag sort/dedup report plumbing and the
   fused sequential engine. *)

open Opp_core
module D = Opp_check.Descriptor
module Diag = Opp_check.Diag
module Prog = Opp_plan.Prog
module Flow = Opp_plan.Flow
module Plan = Opp_plan.Plan
module Interp = Opp_plan.Interp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let parse_prog src = Prog.of_ir (Opp_codegen.Parser.parse_lax src)

let codes (ds : Diag.t list) = List.map (fun (d : Diag.t) -> d.Diag.code) ds

(* --- Diag report plumbing (sort + dedup) --------------------------- *)

let mk ~code ?loop ?dat msg = Diag.make ~code ?loop ?dat "%s" msg

let test_diag_sort () =
  let diags =
    [
      mk ~code:"W003" ~loop:"C" "third loop";
      mk ~code:"W110" ~dat:"f" "no loop";
      mk ~code:"W001" ~loop:"A" ~dat:"y" "first loop, dat y";
      mk ~code:"W001" ~loop:"A" ~dat:"x" "first loop, dat x";
      mk ~code:"I120" ~loop:"B" "second loop";
    ]
  in
  let sorted = Diag.sort ~loop_order:[ "A"; "B"; "C" ] diags in
  Alcotest.(check (list string))
    "program order, then dat"
    [ "W001"; "W001"; "I120"; "W003"; "W110" ]
    (codes sorted);
  check_str "dat tiebreak" "x"
    (match (List.hd sorted).Diag.dat with Some d -> d | None -> "");
  (* diagnostics without a loop sort after every loop-attached one *)
  check_bool "loopless last" true ((List.nth sorted 4).Diag.loop = None);
  (* sorting is deterministic: a permutation sorts to the same list *)
  let perm = [ List.nth diags 4; List.nth diags 2; List.nth diags 0; List.nth diags 3; List.nth diags 1 ] in
  check_bool "permutation invariant" true (Diag.sort ~loop_order:[ "A"; "B"; "C" ] perm = sorted)

let test_diag_dedup () =
  let d = mk ~code:"W001" ~loop:"L" ~dat:"f" "indirect write" in
  let other = mk ~code:"W002" ~loop:"L" ~dat:"f" "double indirect" in
  let out = Diag.dedup [ d; other; d; d ] in
  check_int "collapsed to two" 2 (List.length out);
  let first = List.hd out in
  check_bool "multiplicity suffix" true
    (String.length first.Diag.message >= 4
    && String.sub first.Diag.message (String.length first.Diag.message - 4) 4 = "(x3)");
  check_str "singleton untouched" "double indirect" (List.nth out 1).Diag.message

(* --- the stepflow demo program (mirrors examples/specs) ------------ *)

let stepflow_src =
  {|program stepflow_demo
set cells
map cell_cells cells cells 4
dat field cells 1
dat flux cells 1
dat scratch cells 1
loop UpdateField kernel update_field_kernel over cells iterate core
  arg field write
  arg flux read
end
exchange field
loop Stencil kernel stencil_kernel over cells iterate core
  arg field idx 0 map cell_cells read
  arg field idx 1 map cell_cells read
  arg flux write
end
exchange field
loop WriteScratch kernel write_scratch_kernel over cells iterate core
  arg scratch write
end
loop ScaleFlux kernel scale_flux_kernel over cells iterate core
  arg flux rw
end
loop Decay kernel decay_kernel over cells iterate core
  arg field rw
end
|}

let test_stepflow_diags () =
  let prog = parse_prog stepflow_src in
  let flow = Flow.analyze prog in
  let cs = codes flow.Flow.f_diags in
  check_bool "W110 redundant exchange" true (List.mem "W110" cs);
  check_bool "W111 dead write" true (List.mem "W111" cs);
  check_bool "I120 fusable group" true (List.mem "I120" cs);
  check_bool "no E090" false (List.mem "E090" cs);
  let w111 = List.find (fun (d : Diag.t) -> d.Diag.code = "W111") flow.Flow.f_diags in
  check_str "dead write is scratch" "scratch" (Option.value w111.Diag.dat ~default:"");
  check_str "dead write loop" "WriteScratch" (Option.value w111.Diag.loop ~default:"")

let test_stepflow_plan () =
  let prog = parse_prog stepflow_src in
  let flow = Flow.analyze prog in
  let plan = Plan.derive prog flow in
  Alcotest.(check (list string)) "second field exchange elided" [ "field.exchange#1" ] plan.Plan.p_elide;
  check_bool "three-loop tail fuses" true
    (List.mem [ "WriteScratch"; "ScaleFlux"; "Decay" ] plan.Plan.p_fuse);
  (match Plan.verify prog plan with
  | Ok () -> ()
  | Error e -> Alcotest.failf "derived plan must prove: %s" e);
  (* the oracle agrees: planned and unplanned runs end bit-identical *)
  check_bool "interp hash equal" true
    (Interp.run_unplanned prog ~cycles:3 = Interp.run_planned prog plan ~cycles:3)

let test_stepflow_rejects_needed_elision () =
  let prog = parse_prog stepflow_src in
  (* the FIRST field exchange feeds Stencil's indirect reads: eliding
     it is illegal and the proof must say so *)
  let bad = { Plan.p_elide = [ "field.exchange" ]; p_fuse = [] } in
  (match Plan.verify prog bad with
  | Ok () -> Alcotest.fail "verify accepted eliding a needed exchange"
  | Error _ -> ());
  check_bool "illegal elision perturbs the oracle" false
    (Interp.run_unplanned prog ~cycles:3 = Interp.run_planned prog bad ~cycles:3)

let test_verify_rejects_bad_fusion () =
  let prog = parse_prog stepflow_src in
  (* UpdateField writes field directly, Stencil reads it through a map:
     fusing them crosses the dependence (and an exchange sits between) *)
  (match Plan.verify prog { Plan.p_elide = []; p_fuse = [ [ "UpdateField"; "Stencil" ] ] } with
  | Ok () -> Alcotest.fail "verify accepted a non-adjacent cross-dependence fusion"
  | Error _ -> ());
  match Plan.verify prog { Plan.p_elide = []; p_fuse = [ [ "ScaleFlux" ] ] } with
  | Ok () -> Alcotest.fail "verify accepted a singleton group"
  | Error _ -> ()

let test_e090_stale_read () =
  let prog =
    parse_prog
      {|program stale
set cells
map c2c cells cells 4
dat field cells 1
dat out cells 1
loop Writer kernel w over cells iterate core
  arg field write
end
loop Reader kernel r over cells iterate core
  arg field idx 0 map c2c read
  arg out write
end
exchange field
|}
  in
  let flow = Flow.analyze prog in
  let e090 = List.filter (fun (d : Diag.t) -> d.Diag.code = "E090") flow.Flow.f_diags in
  check_bool "stale indirect read detected" true (e090 <> []);
  check_str "on the reading loop" "Reader"
    (Option.value (List.hd e090).Diag.loop ~default:"");
  (* a program with an ordering violation never gets a proved plan *)
  match Plan.verify prog (Plan.derive prog flow) with
  | Ok () -> Alcotest.fail "verify must reject a schedule with E090"
  | Error _ -> ()

(* --- fused sequential engine --------------------------------------- *)

let test_par_loop_fused_bit_identity () =
  let mk_state () =
    let ctx = Opp.init () in
    let cells = Opp.decl_set ctx ~name:"cells" 16 in
    let a = Opp.decl_dat ctx ~name:"a" ~set:cells ~dim:1 (Some (Array.init 16 float_of_int)) in
    let b = Opp.decl_dat ctx ~name:"b" ~set:cells ~dim:1 None in
    (cells, a, b)
  in
  let scale views = Opp.set views.(0) 0 (Opp.get views.(0) 0 *. 1.0000001) in
  let copy views = Opp.set views.(0) 0 (Opp.get views.(1) 0 +. 0.25) in
  let group a b =
    [
      ("Scale", 1.0, scale, [ Opp.arg_dat a Opp.rw ]);
      ("Copy", 1.0, copy, [ Opp.arg_dat b Opp.write; Opp.arg_dat a Opp.read ]);
    ]
  in
  (* sequential back-to-back *)
  let cells1, a1, b1 = mk_state () in
  List.iter
    (fun (name, _, kernel, args) -> Opp.par_loop ~name kernel cells1 Opp.all args)
    (group a1 b1);
  (* fused: both kernels per element; legal because Copy reads a only
     at its own element, which Scale has already finalized *)
  let cells2, a2, b2 = mk_state () in
  Seq.par_loop_fused (group a2 b2) cells2 Opp.all;
  check_bool "a bit-identical" true (a1.Types.d_data = a2.Types.d_data);
  check_bool "b bit-identical" true (b1.Types.d_data = b2.Types.d_data)

(* Through a runner, a fused group is one launch: one entry in that
   runner's ledger and one par_loop span, both under the group name. *)
let test_runner_fused_measured () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 16 in
  let a = Opp.decl_dat ctx ~name:"a" ~set:cells ~dim:1 (Some (Array.init 16 float_of_int)) in
  let b = Opp.decl_dat ctx ~name:"b" ~set:cells ~dim:1 None in
  let group =
    [
      ("Scale", 1.0, (fun v -> Opp.set v.(0) 0 (Opp.get v.(0) 0 *. 2.0)), [ Opp.arg_dat a Opp.rw ]);
      ( "Copy",
        1.0,
        (fun v -> Opp.set v.(0) 0 (Opp.get v.(1) 0)),
        [ Opp.arg_dat b Opp.write; Opp.arg_dat a Opp.read ] );
    ]
  in
  let profile = Profile.create () in
  Opp_obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Opp_obs.Trace.disable ();
      Opp_obs.Trace.reset ())
    (fun () ->
      Runner.par_loop_fused (Runner.seq ~profile ()) ~name:"Scale+Copy" group cells Opp.all;
      check_bool "the group ran" true (b.Types.d_data.(3) = 6.0);
      (match Profile.entries ~t:profile () with
      | [ ("Scale+Copy", e) ] ->
          check_int "one call" 1 e.Profile.calls;
          check_int "elems" 16 e.Profile.elems;
          check_bool "flops: both members per element" true (e.Profile.flops = 32.0);
          (* Scale rw 16 B/elem, Copy write 8 + read 8 *)
          check_bool "bytes" true (e.Profile.bytes = 16.0 *. 32.0)
      | es -> Alcotest.failf "expected one Scale+Copy entry, got %d" (List.length es));
      match
        List.filter (fun sp -> sp.Opp_obs.Trace.sp_cat = "par_loop") (Opp_obs.Trace.spans ())
      with
      | [ sp ] ->
          Alcotest.(check string) "span under the group name" "Scale+Copy" sp.Opp_obs.Trace.sp_name;
          Alcotest.(check (float 0.0)) "span elems" 16.0 (List.assoc "elems" sp.Opp_obs.Trace.sp_args)
      | sps -> Alcotest.failf "expected one par_loop span, got %d" (List.length sps))

(* --- qcheck: random step programs vs the interpreter oracle -------- *)

(* A fixed universe (one mesh set, one map, three dats); each random
   int seeds one event — an exchange or a par_loop with 1-3 args of
   random dat/access/indirection. Site names follow the runtime
   convention so derived plans key correctly. *)
let qc_dats = [| "A"; "B"; "C" |]

let qc_universe loops : D.t =
  {
    D.pr_name = "qc";
    pr_sets = [ { D.sd_name = "cells"; sd_cells = None } ];
    pr_maps = [ { D.md_name = "c2c"; md_from = "cells"; md_to = "cells"; md_arity = 4 } ];
    pr_dats =
      Array.to_list (Array.map (fun d -> { D.dd_name = d; dd_set = "cells"; dd_dim = 1 }) qc_dats);
    pr_loops = loops;
  }

let qc_acc n = match n mod 4 with 0 -> D.Read | 1 -> D.Write | 2 -> D.Inc | _ -> D.Rw

let qc_program seeds : Prog.t =
  let site_count = Hashtbl.create 4 in
  let loops = ref [] in
  let events =
    List.mapi
      (fun i n ->
        let n = abs n in
        if n mod 4 = 0 then begin
          let d = qc_dats.((n / 4) mod 3) in
          let base = d ^ ".exchange" in
          let k = try Hashtbl.find site_count base with Not_found -> 0 in
          Hashtbl.replace site_count base (k + 1);
          let site = if k = 0 then base else Printf.sprintf "%s#%d" base k in
          Prog.Exchange { Prog.c_site = site; c_dats = [ d ] }
        end
        else begin
          let nargs = 1 + (n / 7 mod 3) in
          let args =
            List.init nargs (fun k ->
                let h = Hashtbl.hash (n, k, i) in
                {
                  D.ad_dat = Some qc_dats.(h mod 3);
                  ad_idx = h / 24 mod 4;
                  ad_map = (if h / 12 mod 2 = 0 then Some "c2c" else None);
                  ad_p2c = None;
                  ad_acc = qc_acc (h / 3);
                })
          in
          let l =
            { D.ld_name = Printf.sprintf "L%d" i; ld_set = "cells"; ld_kind = D.Par_loop_d; ld_args = args }
          in
          loops := l :: !loops;
          Prog.Loop { e_loop = l; e_iterate = (if n mod 3 = 0 then `All else `Core) }
        end)
      seeds
  in
  { Prog.pg_name = "qc"; pg_desc = qc_universe (List.rev !loops); pg_events = events }

let qc_seeds = QCheck.(list_of_size (QCheck.Gen.int_range 3 10) (int_range 0 1_000_000))

let prop_derived_plan_preserves_state =
  QCheck.Test.make ~name:"derived+proved plans preserve the observable state" ~count:200 qc_seeds
    (fun seeds ->
      let prog = qc_program seeds in
      let flow = Flow.analyze prog in
      let plan = Plan.derive prog flow in
      match Plan.verify prog plan with
      | Error _ -> true (* the runtime falls back to unplanned; nothing to prove *)
      | Ok () -> Interp.run_unplanned prog ~cycles:3 = Interp.run_planned prog plan ~cycles:3)

let prop_verify_never_accepts_state_change =
  QCheck.Test.make ~name:"verify never accepts a plan that changes the state" ~count:200 qc_seeds
    (fun seeds ->
      let prog = qc_program seeds in
      (* adversarial plan: elide EVERY exchange in the program *)
      let all_sites =
        List.filter_map
          (function Prog.Exchange c -> Some c.Prog.c_site | _ -> None)
          prog.Prog.pg_events
      in
      let brutal = { Plan.p_elide = all_sites; p_fuse = [] } in
      match Plan.verify prog brutal with
      | Error _ -> true
      | Ok () -> Interp.run_unplanned prog ~cycles:3 = Interp.run_planned prog brutal ~cycles:3)

let prop_fusion_judgment_sound =
  QCheck.Test.make ~name:"pairwise fusion judgment preserves the state" ~count:200 qc_seeds
    (fun seeds ->
      let prog = qc_program seeds in
      let events = Array.of_list prog.Prog.pg_events in
      let ok = ref true in
      for i = 0 to Array.length events - 2 do
        match (events.(i), events.(i + 1)) with
        | ( Prog.Loop { e_loop = l1; e_iterate = it1 },
            Prog.Loop { e_loop = l2; e_iterate = it2 } )
          when Flow.fusable_pair l1 it1 l2 it2 ->
            let plan = { Plan.p_elide = []; p_fuse = [ [ l1.D.ld_name; l2.D.ld_name ] ] } in
            (* verify may reject the whole program (an unrelated E090
               elsewhere in the schedule) but must never object to the
               fusion itself; and fusing must preserve the state *)
            let fusion_objection =
              match Plan.verify prog plan with
              | Ok () -> false
              | Error e ->
                  let has_sub s sub =
                    let n = String.length sub in
                    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
                    go 0
                  in
                  has_sub e "fus"
            in
            if
              fusion_objection
              || Interp.run_unplanned prog ~cycles:2 <> Interp.run_planned prog plan ~cycles:2
            then ok := false
        | _ -> ()
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "diag sort is deterministic program order" `Quick test_diag_sort;
    Alcotest.test_case "diag dedup collapses with multiplicity" `Quick test_diag_dedup;
    Alcotest.test_case "stepflow demo: W110/W111/I120" `Quick test_stepflow_diags;
    Alcotest.test_case "stepflow demo: derived plan proves and preserves" `Quick test_stepflow_plan;
    Alcotest.test_case "needed exchange elision is rejected" `Quick test_stepflow_rejects_needed_elision;
    Alcotest.test_case "illegal fusions are rejected" `Quick test_verify_rejects_bad_fusion;
    Alcotest.test_case "E090 stale read blocks the plan" `Quick test_e090_stale_read;
    Alcotest.test_case "par_loop_fused is bit-identical" `Quick test_par_loop_fused_bit_identity;
    Alcotest.test_case "Runner.par_loop_fused is one measured launch" `Quick
      test_runner_fused_measured;
    QCheck_alcotest.to_alcotest prop_derived_plan_preserves_state;
    QCheck_alcotest.to_alcotest prop_verify_never_accepts_state_change;
    QCheck_alcotest.to_alcotest prop_fusion_judgment_sound;
  ]
