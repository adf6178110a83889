(* The shipped manifests against the running program. Each app steps
   once on a runner that records every launch it hands to the
   sequential engine; the recorded launches, in order, must be the
   manifest's loops: same label, iteration set, loop or move, iterate
   region and lowered argument list. A manifest that drifts from the
   app fails here, with both sides printed in manifest syntax. *)

open Opp_core
module D = Opp_check.Descriptor
module Ir = Opp_codegen.Ir

(* A move names its p2c map only: the c2c map lives inside the move
   kernel's closure and never reaches the launch. *)
type kind = Loop of string | Move of string

type launch = { name : string; set : string; kind : kind; args : D.arg_d list }

let acc_word = function D.Read -> "read" | D.Write -> "write" | D.Inc -> "inc" | D.Rw -> "rw"

let arg_line (a : D.arg_d) =
  String.concat " "
    (List.filter_map Fun.id
       [
         Some (Option.value a.D.ad_dat ~default:"<gbl>");
         Option.map (Printf.sprintf "idx %d map %s" a.D.ad_idx) a.D.ad_map;
         Option.map (( ^ ) "p2c ") a.D.ad_p2c;
         Some (acc_word a.D.ad_acc);
       ])

let line l =
  let head =
    match l.kind with
    | Loop it -> Printf.sprintf "loop %s over %s iterate %s" l.name l.set it
    | Move p2c -> Printf.sprintf "move %s over %s p2c %s" l.name l.set p2c
  in
  String.concat "\n  arg " (head :: List.map arg_line l.args)

let iterate_word = function
  | Seq.Iterate_all -> "all"
  | Seq.Iterate_core -> "core"
  | Seq.Iterate_injected -> "injected"

(* Runner.seq, with each par_loop and particle_move launch logged
   before it runs. *)
let recording () =
  let log = ref [] in
  let seq = Runner.seq ~profile:(Profile.create ()) () in
  let record name (set : Types.set) kind args =
    log := { name; set = set.Types.s_name; kind; args = List.map D.arg_of_live args } :: !log
  in
  let runner =
    {
      seq with
      Runner.r_par_loop =
        (fun name flops kernel set iterate args ->
          record name set (Loop (iterate_word iterate)) args;
          seq.Runner.r_par_loop name flops kernel set iterate args);
      r_particle_move =
        (fun name flops dh kernel set p2c args ->
          record name set (Move p2c.Types.m_name) args;
          seq.Runner.r_particle_move name flops dh kernel set p2c args);
    }
  in
  (runner, fun () -> List.rev !log)

let manifest file =
  let path = Test_codegen.find_up (Sys.getcwd ()) ("examples/specs/" ^ file) in
  let p =
    Opp_codegen.Parser.parse (In_channel.with_open_bin path In_channel.input_all)
  in
  List.map2
    (fun (l : Ir.loop) (ld : D.loop_d) ->
      let kind =
        match l.Ir.l_kind with
        | Ir.Par_loop { iterate } ->
            Loop (match iterate with `All -> "all" | `Core -> "core" | `Injected -> "injected")
        | Ir.Particle_move { p2c; _ } -> Move p2c
      in
      { name = l.Ir.l_name; set = l.Ir.l_set; kind; args = ld.D.ld_args })
    p.Ir.p_loops (D.of_ir p).D.pr_loops

let check_same file captured =
  Alcotest.(check (list string))
    (file ^ " is the captured step")
    (List.map line (manifest file))
    (List.map line captured)

let test_fempic () =
  let runner, captured = recording () in
  let mesh = Opp_mesh.Tet_mesh.build ~nx:2 ~ny:2 ~nz:4 ~lx:2e-5 ~ly:2e-5 ~lz:4e-5 in
  let prm = { Fempic.Params.default with Fempic.Params.target_particles = 5_000.0 } in
  let sim = Fempic.Fempic_sim.create ~prm ~runner ~profile:(Profile.create ()) mesh in
  ignore (Fempic.Fempic_sim.step sim);
  check_same "fempic.oppic" (captured ())

(* The one allowed label difference: cabana launches AdvanceB twice
   per step (two half-steps of B), and manifest labels are unique, so
   the manifest calls the second launch AdvanceB2. *)
let test_cabana () =
  let runner, captured = recording () in
  let prm = { Cabana.Cabana_params.default with Cabana.Cabana_params.nz = 8; ppc = 4 } in
  let sim = Cabana.Cabana_sim.create ~prm ~runner ~profile:(Profile.create ()) () in
  Cabana.Cabana_sim.step sim;
  let seen_b = ref false in
  let relabel l =
    if l.name <> "AdvanceB" then l
    else if !seen_b then { l with name = "AdvanceB2" }
    else begin
      seen_b := true;
      l
    end
  in
  check_same "cabana.oppic" (List.map relabel (captured ()))

let suite =
  [
    Alcotest.test_case "fempic.oppic equals a captured seq step" `Quick test_fempic;
    Alcotest.test_case "cabana.oppic equals a captured seq step" `Quick test_cabana;
  ]
