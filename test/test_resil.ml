(* Tests for opp_resil: injector determinism, the detection envelope
   (every injected drop/duplicate/corruption/stale-replay is caught),
   sharded checkpoint integrity and torn-shard fallback, link
   validation at Exch.create, end-to-end fault transparency — runs
   with faults injected (including a rank crash at every possible
   step) finish bit-for-bit identical to fault-free ones — and the
   declared-state core: malformed shards end in Corrupt, and the
   reshape epochs preserve the global state hash. The stepping loop
   every driver runs (Apps_dist.Drive.drive) is held to the same
   standard: its crash recovery and its checkpoint/restart are
   bit-for-bit. *)

open Opp_dist
open Opp_resil
module Fd = Apps_dist.Fempic_dist
module Cd = Apps_dist.Cabana_dist

(* the global injector must never leak into other suites *)
let with_injector inj f =
  Fault.install inj;
  Fun.protect ~finally:Fault.uninstall f

let tmpdir prefix =
  let d = Filename.temp_file prefix ".d" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* --- codec --- *)

let prop_checksum_bit_sensitive =
  QCheck.Test.make ~name:"checksum catches any single bit flip" ~count:300
    QCheck.(pair (list_of_size Gen.(int_range 1 32) (float_bound_exclusive 1e9)) small_nat)
    (fun (vs, bit) ->
      let a = Array.of_list vs in
      let sum = Codec.checksum_floats a in
      let b = Array.copy a in
      Opp_dist.Envelope.flip_bit b (bit mod (Array.length b * 64));
      Codec.checksum_floats b <> sum)

(* --- injector determinism --- *)

let prop_injector_deterministic =
  QCheck.Test.make ~name:"fault decisions replay identically under a fixed seed" ~count:500
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, seq, attempt) ->
      let mk () =
        Fault.create ~seed
          [ (Fault.Drop, None, 0.3); (Fault.Corrupt, Some Fault.Halo, 0.3) ]
      in
      let a = mk () and b = mk () in
      List.for_all
        (fun (kind, chan) ->
          Fault.fires a kind chan ~seq ~attempt = Fault.fires b kind chan ~seq ~attempt)
        [
          (Fault.Drop, Fault.Halo);
          (Fault.Drop, Fault.Migrate);
          (Fault.Corrupt, Fault.Halo);
          (Fault.Corrupt, Fault.Allreduce);
        ]
      && Fault.corrupt_bit a Fault.Halo ~seq ~attempt ~nbits:640
         = Fault.corrupt_bit b Fault.Halo ~seq ~attempt ~nbits:640)

let test_parse () =
  (match Fault.parse "seed=42,drop=halo:0.05,corrupt=migrate:0.02,retries=4,crash=1@7" with
  | Ok inj ->
      Alcotest.(check int) "retries" 4 (Fault.max_attempts inj);
      Alcotest.(check (float 0.0)) "drop halo rate" 0.05 (Fault.rate inj Fault.Drop Fault.Halo);
      Alcotest.(check (float 0.0)) "drop migrate rate" 0.0 (Fault.rate inj Fault.Drop Fault.Migrate);
      Alcotest.(check (float 0.0))
        "corrupt migrate rate" 0.02
        (Fault.rate inj Fault.Corrupt Fault.Migrate)
  | Error msg -> Alcotest.failf "expected parse success, got: %s" msg);
  (match Fault.parse "drop=bogus:0.5" with
  | Ok _ -> Alcotest.fail "expected parse failure on bad channel"
  | Error _ -> ());
  match Fault.parse "crash=oops" with
  | Ok _ -> Alcotest.fail "expected parse failure on bad crash spec"
  | Error _ -> ()

(* --- Exch.create validation --- *)

let link ~local ~rank ~index =
  { Exch.l_local = local; l_owner_rank = rank; l_owner_index = index }

let expect_invalid code links =
  match Exch.create ~sizes:[| 3; 3 |] ~nranks:2 links with
  | (_ : Exch.t) -> Alcotest.failf "expected %s to be raised" code
  | exception Exch.Invalid_links msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message carries %s: %s" code msg)
        true
        (String.length msg >= 4 && String.sub msg 0 4 = code)

let test_create_validation () =
  (* valid links pass *)
  ignore
    (Exch.create ~sizes:[| 3; 3 |] ~nranks:2
       [| [| link ~local:2 ~rank:1 ~index:0 |]; [| link ~local:2 ~rank:0 ~index:0 |] |]);
  expect_invalid "E070" [| [| link ~local:2 ~rank:5 ~index:0 |]; [||] |];
  expect_invalid "E070" [| [| link ~local:2 ~rank:(-1) ~index:0 |]; [||] |];
  expect_invalid "E071" [| [| link ~local:2 ~rank:0 ~index:0 |]; [||] |];
  expect_invalid "E072" [| [| link ~local:3 ~rank:1 ~index:0 |]; [||] |];
  expect_invalid "E072" [| [| link ~local:2 ~rank:1 ~index:7 |]; [||] |];
  expect_invalid "E072" [| [| link ~local:(-1) ~rank:1 ~index:0 |]; [||] |]

(* --- detection completeness --- *)

(* Exercise guarded exchange + reduce + migration under a seeded
   schedule and assert every injected drop / duplicate / corruption /
   stale replay was observed by exactly one detector. *)
let prop_detection_complete =
  QCheck.Test.make ~name:"every injected drop/dup/corrupt/stale is detected" ~count:60
    QCheck.small_nat
    (fun seed ->
      (* generous attempt budget: at these rates roughly half of all
         attempts fail, and this property is about detection, not the
         retry bound *)
      let inj =
        Fault.create ~seed ~max_attempts:40
          [
            (Fault.Drop, None, 0.2);
            (Fault.Dup, None, 0.2);
            (Fault.Corrupt, None, 0.2);
            (Fault.Stale, Some Fault.Halo, 0.2);
          ]
      in
      with_injector inj (fun () ->
          let exch =
            Exch.create ~nranks:3
              [|
                [| link ~local:2 ~rank:1 ~index:0; link ~local:3 ~rank:2 ~index:1 |];
                [| link ~local:2 ~rank:0 ~index:1; link ~local:3 ~rank:2 ~index:0 |];
                [| link ~local:2 ~rank:0 ~index:0; link ~local:3 ~rank:1 ~index:1 |];
              |]
          in
          let data = Array.init 3 (fun r -> Array.init 4 (fun i -> float_of_int ((10 * r) + i))) in
          for _ = 1 to 5 do
            Exch.exchange exch ~dim:1 ~data:(fun r -> data.(r));
            Exch.reduce exch ~dim:1 ~data:(fun r -> data.(r));
            ignore (Exch.allreduce_sum ~nranks:3 [| 1.0; 2.0; 3.0 |]);
            let mail = Mailbox.create ~nranks:3 ~payload_dim:2 in
            for i = 0 to 9 do
              Mailbox.post mail ~src:0 ~dest:(1 + (i mod 2)) ~cell:i
                ~payload:[| float_of_int i; 0.5 |]
            done;
            ignore (Mailbox.deliver mail (fun _ _ -> ()))
          done;
          Fault.stat inj "drop.injected" = Fault.stat inj "drop.detected"
          && Fault.stat inj "dup.injected" = Fault.stat inj "dup.detected"
          && Fault.stat inj "corrupt.injected" = Fault.stat inj "corrupt.detected"
          && Fault.stat inj "stale.injected" = Fault.stat inj "stale.rejected"
          && Fault.stat inj "drop.injected" + Fault.stat inj "corrupt.injected" > 0))

let test_mailbox_quarantine () =
  let inj = Fault.create [] in
  with_injector inj (fun () ->
      let mail = Mailbox.create ~nranks:2 ~payload_dim:2 in
      Mailbox.post mail ~src:0 ~dest:1 ~cell:3 ~payload:[| Float.nan; 1.0 |];
      Mailbox.post mail ~src:0 ~dest:1 ~cell:4 ~payload:[| 2.0; 1.0 |];
      let got = ref [] in
      let n = Mailbox.deliver mail (fun _ batch -> got := batch) in
      Alcotest.(check int) "one survivor delivered" 1 n;
      Alcotest.(check int) "quarantined counted" 1 (Fault.stat inj "quarantined");
      match !got with
      | [ (4, [| 2.0; 1.0 |]) ] -> ()
      | _ -> Alcotest.fail "survivor batch mismatch")

(* --- sharded checkpoints --- *)

let sections_a = [ Ckpt.Floats ("x", [| 1.5; -2.25 |]); Ckpt.Ints ("n", [| 7 |]) ]
let sections_b = [ Ckpt.Floats ("x", [| 4.0 |]); Ckpt.I64s ("r", [| 42L |]) ]

let test_ckpt_roundtrip () =
  let dir = tmpdir "opp_resil_ckpt" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Ckpt.save ~dir ~step:2 [| sections_a; sections_b |];
      Ckpt.save ~dir ~step:4 [| sections_b; sections_a |];
      (match Ckpt.load ~dir with
      | Some (4, shards) ->
          Alcotest.(check int) "two shards" 2 (Array.length shards);
          Alcotest.(check (array (float 0.0)))
            "floats round-trip" [| 4.0 |]
            (Ckpt.floats shards.(0) "x");
          Alcotest.(check int) "ints round-trip" 7 (Ckpt.ints shards.(1) "n").(0)
      | _ -> Alcotest.fail "expected checkpoint at step 4");
      Alcotest.(check (list int)) "available newest first" [ 4; 2 ] (Ckpt.available ~dir))

let test_ckpt_torn_fallback () =
  let dir = tmpdir "opp_resil_torn" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Ckpt.save ~dir ~step:2 [| sections_a |];
      Ckpt.save ~dir ~step:4 [| sections_b |];
      (* flip one byte in the newest shard: its checksum no longer
         matches the manifest, so load falls back to step 2 *)
      let shard = Filename.concat dir "ckpt-00000004/shard-0000.bin" in
      let bytes = In_channel.with_open_bin shard In_channel.input_all in
      let corrupted = Bytes.of_string bytes in
      Bytes.set corrupted
        (Bytes.length corrupted - 1)
        (Char.chr (Char.code (Bytes.get corrupted (Bytes.length corrupted - 1)) lxor 0x10));
      Out_channel.with_open_bin shard (fun oc -> Out_channel.output_bytes oc corrupted);
      (match Ckpt.load ~dir with
      | Some (2, _) -> ()
      | Some (s, _) -> Alcotest.failf "fell back to wrong step %d" s
      | None -> Alcotest.fail "expected fallback to step 2");
      (* a missing manifest also invalidates a checkpoint *)
      Sys.remove (Filename.concat dir "ckpt-00000002/MANIFEST");
      Alcotest.(check bool) "no valid checkpoint left" true (Ckpt.load ~dir = None))

let test_ckpt_prune () =
  let dir = tmpdir "opp_resil_prune" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      for s = 1 to 6 do
        Ckpt.save ~keep:2 ~dir ~step:s [| sections_a |]
      done;
      Alcotest.(check (list int)) "keeps newest two" [ 6; 5 ] (Ckpt.available ~dir))

let test_seq_checkpoint_atomic () =
  let mesh = Opp_mesh.Tet_mesh.build ~nx:3 ~ny:3 ~nz:4 ~lx:3e-5 ~ly:3e-5 ~lz:4e-5 in
  let prm = { Fempic.Params.default with Fempic.Params.target_particles = 500.0 } in
  let h = Fd.create ~prm ~nranks:1 mesh in
  Fd.run h ~steps:2;
  let dir = tmpdir "oppic_atomic" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Fd.save_checkpoint h ~dir;
      Alcotest.(check (list int)) "one valid checkpoint" [ 2 ] (Ckpt.available ~dir);
      Alcotest.(check (list string))
        "no temp residue" [ "ckpt-00000002" ]
        (Array.to_list (Sys.readdir dir));
      Alcotest.(check (list string))
        "one shard plus manifest" [ "MANIFEST"; "shard-0000.bin" ]
        (List.sort compare (Array.to_list (Sys.readdir (Filename.concat dir "ckpt-00000002")))))

(* --- end-to-end fault transparency --- *)

let fempic_mesh () = Opp_mesh.Tet_mesh.build ~nx:4 ~ny:4 ~nz:8 ~lx:4e-5 ~ly:4e-5 ~lz:8e-5
let fempic_prm = { Fempic.Params.default with Fempic.Params.target_particles = 2000.0 }

let section_sig = function
  | Ckpt.Floats (n, a) -> (n, Codec.checksum_floats a)
  | Ckpt.Ints (n, a) -> (n, Codec.checksum_ints a)
  | Ckpt.I64s (n, a) -> (n, Codec.checksum_i64s a)

(* the full distributed state, as per-rank section signatures plus the
   driver's solver guess and step counter *)
let fempic_sig (t : Fd.t) =
  ( Array.map (List.map section_sig) (Fd.sections_all t),
    Codec.checksum_floats (Fd.potential t),
    t.Fd.step_count )

let fempic_baseline ~steps =
  let dist = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
  for _ = 1 to steps do
    ignore (Fd.step dist)
  done;
  fempic_sig dist

let test_fempic_faulty_equals_clean () =
  let steps = 4 in
  let clean = fempic_baseline ~steps in
  let inj =
    Fault.create ~seed:11
      [
        (Fault.Drop, None, 0.1);
        (Fault.Corrupt, None, 0.05);
        (Fault.Dup, None, 0.05);
        (Fault.Reorder, Some Fault.Halo, 0.1);
        (Fault.Stale, Some Fault.Halo, 0.05);
      ]
  in
  let faulty =
    with_injector inj (fun () ->
        let dist = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
        for _ = 1 to steps do
          ignore (Fd.step dist)
        done;
        fempic_sig dist)
  in
  Alcotest.(check bool) "some faults were injected" true (Fault.stat inj "drop.injected" > 0);
  Alcotest.(check bool) "faulty run matches clean bit-for-bit" true (faulty = clean)

(* Crash-at-every-step sweep: for each step s of a short run, crash a
   rank there, recover from the newest checkpoint (cold start when the
   crash lands before the first one), replay, and demand the final
   state match the uninterrupted run bit-for-bit. *)
let test_fempic_crash_sweep () =
  let steps = 5 and ckpt_every = 2 in
  let clean = fempic_baseline ~steps in
  for crash_step = 1 to steps do
    let dir = tmpdir "opp_resil_sweep" in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let inj = Fault.create ~crash:(crash_step mod 3, crash_step) [] in
        let final =
          with_injector inj (fun () ->
              let dist = ref (Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ())) in
              let crashed = ref false in
              while !dist.Fd.step_count < steps do
                match Fd.step !dist with
                | (_ : int) ->
                    if !dist.Fd.step_count mod ckpt_every = 0 then
                      Fd.save_checkpoint !dist ~dir
                | exception Rank_crash _ ->
                    crashed := true;
                    Fd.shutdown !dist;
                    dist := Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ());
                    ignore (Fd.restore_checkpoint !dist ~dir)
              done;
              Alcotest.(check bool)
                (Printf.sprintf "crash fired at step %d" crash_step)
                true !crashed;
              fempic_sig !dist)
        in
        Alcotest.(check bool)
          (Printf.sprintf "recovered run (crash at %d) matches clean" crash_step)
          true (final = clean))
  done

(* --- online recovery (opp_heal) --- *)

(* Crash-at-every-step sweep under --heal=respawn: the dead rank is
   rebuilt in place from the journal (no teardown, no checkpoint
   restore, no replayed steps) and the run must still finish
   bit-for-bit identical to the uninterrupted one. *)
let test_fempic_heal_respawn_sweep () =
  let steps = 5 in
  let clean = fempic_baseline ~steps in
  for crash_step = 1 to steps do
    let inj = Fault.create ~crash:(crash_step mod 3, crash_step) [] in
    let final =
      with_injector inj (fun () ->
          let dist = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
          let healer = Apps_dist.Dist_heal.make ~mode:Opp_heal.Heal.Respawn () in
          Apps_dist.Dist_heal.record healer dist ~step:0;
          let healed = ref false in
          while dist.Fd.step_count < steps do
            match Fd.step dist with
            | (_ : int) ->
                Apps_dist.Dist_heal.record healer dist ~step:dist.Fd.step_count
            | exception Rank_crash { rank; step } ->
                healed := true;
                ignore (Apps_dist.Dist_heal.recover healer dist ~rank ~step)
          done;
          Alcotest.(check bool)
            (Printf.sprintf "crash healed at step %d" crash_step)
            true !healed;
          fempic_sig dist)
    in
    Alcotest.(check bool)
      (Printf.sprintf "respawn-healed run (crash at %d) matches clean bit-for-bit" crash_step)
      true (final = clean)
  done

(* Shrink recovery end-to-end on fempic: heal a crash by degrading to
   2 ranks. The re-partition itself must preserve the global state
   hash exactly (it only moves state); the continued run is not
   bit-identical to the clean one (reduction order changed) but must
   conserve the particle population — injection streams follow their
   global face identity across the re-partition. *)
let test_fempic_heal_shrink () =
  let steps = 6 and crash_step = 3 in
  let clean_particles =
    let dist = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
    for _ = 1 to steps do
      ignore (Fd.step dist)
    done;
    Fd.total_particles dist
  in
  let inj = Fault.create ~crash:(1, crash_step) [] in
  with_injector inj (fun () ->
      let dist = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
      let healer = Apps_dist.Dist_heal.make ~mode:Opp_heal.Heal.Shrink () in
      Apps_dist.Dist_heal.record healer dist ~step:0;
      let healed = ref false in
      while dist.Fd.step_count < steps do
        match Fd.step dist with
        | (_ : int) -> Apps_dist.Dist_heal.record healer dist ~step:dist.Fd.step_count
        | exception Rank_crash { rank; step } ->
            healed := true;
            let before = Fd.state_hash dist in
            let parts = Fd.total_particles dist in
            ignore (Apps_dist.Dist_heal.recover healer dist ~rank ~step);
            Alcotest.(check int) "shrunk to 2 ranks" 2 dist.Fd.nranks;
            Alcotest.(check bool)
              "re-partition preserves the global state hash" true
              (Fd.state_hash dist = before);
            Alcotest.(check int) "re-partition conserves particles" parts
              (Fd.total_particles dist)
      done;
      Alcotest.(check bool) "crash healed" true !healed;
      Alcotest.(check int) "degraded run conserves the clean population" clean_particles
        (Fd.total_particles dist))

(* Two shrinks in a row: crash rank 1 at step 3 (3 -> 2 ranks), then
   rank 0 at step 4 (2 -> 1). The second re-partition must start from
   the snapshot taken after step 3 was re-run on 2 ranks, not from one
   taken before the first shrink, so both must preserve the global
   state hash and the particle count exactly. *)
let test_fempic_heal_shrink_twice () =
  let steps = 6 in
  let clean_particles =
    let dist = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
    Fd.run dist ~steps;
    Fd.total_particles dist
  in
  let dist = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
  let healer = Apps_dist.Dist_heal.make ~mode:Opp_heal.Heal.Shrink () in
  Apps_dist.Dist_heal.record healer dist ~step:0;
  let heals = ref 0 in
  let step_to ~upto crash =
    with_injector (Fault.create ~crash []) (fun () ->
        while dist.Fd.step_count < upto do
          match Fd.step dist with
          | (_ : int) -> Apps_dist.Dist_heal.record healer dist ~step:dist.Fd.step_count
          | exception Rank_crash { rank; step } ->
              incr heals;
              let before = Fd.state_hash dist and parts = Fd.total_particles dist in
              let nranks = dist.Fd.nranks in
              ignore (Apps_dist.Dist_heal.recover healer dist ~rank ~step);
              let at = Printf.sprintf " (crash of rank %d at step %d)" rank step in
              Alcotest.(check int) ("shrunk by one rank" ^ at) (nranks - 1) dist.Fd.nranks;
              Alcotest.(check int64)
                ("re-partition preserves the global state hash" ^ at)
                before (Fd.state_hash dist);
              Alcotest.(check int) ("re-partition conserves particles" ^ at) parts
                (Fd.total_particles dist)
        done)
  in
  step_to ~upto:3 (1, 3);
  step_to ~upto:steps (0, 4);
  Alcotest.(check int) "both crashes healed" 2 !heals;
  Alcotest.(check int) "degraded run conserves the clean population" clean_particles
    (Fd.total_particles dist)

(* --- CabanaPIC resume --- *)

let cabana_prm = { Cabana.Cabana_params.default with Cabana.Cabana_params.nz = 16; ppc = 8 }

let cabana_dist_sig (d : Cd.t) =
  (Array.map (List.map section_sig) (Cd.sections_all d), d.Cd.step_count)

(* test_fempic_heal_respawn_sweep for CabanaPIC. *)
let test_cabana_heal_respawn_sweep () =
  let steps = 5 in
  let clean =
    let d = Cd.create ~prm:cabana_prm ~nranks:3 () in
    for _ = 1 to steps do
      Cd.step d
    done;
    cabana_dist_sig d
  in
  for crash_step = 1 to steps do
    let inj = Fault.create ~crash:(crash_step mod 3, crash_step) [] in
    let final =
      with_injector inj (fun () ->
          let d = Cd.create ~prm:cabana_prm ~nranks:3 () in
          let healer = Apps_dist.Dist_heal.make ~mode:Opp_heal.Heal.Respawn () in
          Apps_dist.Dist_heal.record healer d ~step:0;
          let healed = ref false in
          while d.Cd.step_count < steps do
            match Cd.step d with
            | () -> Apps_dist.Dist_heal.record healer d ~step:d.Cd.step_count
            | exception Rank_crash { rank; step } ->
                healed := true;
                ignore (Apps_dist.Dist_heal.recover healer d ~rank ~step)
          done;
          Alcotest.(check bool)
            (Printf.sprintf "crash healed at step %d" crash_step)
            true !healed;
          cabana_dist_sig d)
    in
    Alcotest.(check bool)
      (Printf.sprintf "respawn-healed cabana run (crash at %d) matches clean bit-for-bit"
         crash_step)
      true (final = clean)
  done

let test_cabana_resume_bit_exact () =
  let dir = tmpdir "opp_resil_cabana" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let a = Cd.create ~prm:cabana_prm ~nranks:1 () in
      Cd.run a ~steps:3;
      Cd.save_checkpoint a ~dir;
      Cd.run a ~steps:3;
      let b = Cd.create ~prm:cabana_prm ~nranks:1 () in
      (match Cd.restore_checkpoint b ~dir with
      | Some 3 -> ()
      | Some s -> Alcotest.failf "resumed at wrong step %d" s
      | None -> Alcotest.fail "expected a valid checkpoint");
      Cd.run b ~steps:3;
      Alcotest.(check bool) "resumed run matches uninterrupted" true
        (cabana_dist_sig a = cabana_dist_sig b);
      (* a different seed must be rejected, not silently blended *)
      let c =
        Cd.create
          ~prm:{ cabana_prm with Cabana.Cabana_params.seed = cabana_prm.Cabana.Cabana_params.seed + 1 }
          ~nranks:1 ()
      in
      match Cd.restore_checkpoint c ~dir with
      | exception Ckpt.Corrupt _ -> ()
      | _ -> Alcotest.fail "expected seed mismatch rejection")

let test_cabana_dist_faulty_crash_equals_clean () =
  let steps = 4 in
  let run_clean () =
    let dist = Apps_dist.Cabana_dist.create ~prm:cabana_prm ~nranks:2 () in
    for _ = 1 to steps do
      Apps_dist.Cabana_dist.step dist
    done;
    ( Array.map (List.map section_sig) (Cd.sections_all dist),
      dist.Apps_dist.Cabana_dist.step_count )
  in
  let clean = run_clean () in
  let dir = tmpdir "opp_resil_cbd" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let inj =
        Fault.create ~seed:5 ~crash:(1, 3)
          [ (Fault.Drop, None, 0.1); (Fault.Corrupt, None, 0.05) ]
      in
      let faulty =
        with_injector inj (fun () ->
            let dist = ref (Apps_dist.Cabana_dist.create ~prm:cabana_prm ~nranks:2 ()) in
            while !dist.Apps_dist.Cabana_dist.step_count < steps do
              match Apps_dist.Cabana_dist.step !dist with
              | () ->
                  if !dist.Apps_dist.Cabana_dist.step_count mod 2 = 0 then
                    Apps_dist.Cabana_dist.save_checkpoint !dist ~dir
              | exception Rank_crash _ ->
                  Apps_dist.Cabana_dist.shutdown !dist;
                  dist := Apps_dist.Cabana_dist.create ~prm:cabana_prm ~nranks:2 ();
                  ignore (Apps_dist.Cabana_dist.restore_checkpoint !dist ~dir)
            done;
            ( Array.map (List.map section_sig) (Cd.sections_all !dist),
              !dist.Apps_dist.Cabana_dist.step_count ))
      in
      Alcotest.(check bool) "faults fired" true (Fault.stat inj "crashes" = 1);
      Alcotest.(check bool) "faulted+crashed cabana run matches clean" true (faulty = clean))

(* --- one world interface over both distributed apps --- *)

type world = {
  w_step : unit -> unit;
  w_hash : unit -> int64;
  w_particles : unit -> int;
  w_nranks : unit -> int;
  w_sections : unit -> Ckpt.section list array;
  w_shrink : dead:int -> Ckpt.section list -> int;
  w_rebalance : (int -> float) -> int;
  w_respawn : rank:int -> Ckpt.section list -> unit;
  w_closed : bool;  (** no injection or outflow: steps conserve particles *)
}

let fempic_world ?(checked = false) nranks =
  let d = Fd.create ~prm:fempic_prm ~nranks ~checked (fempic_mesh ()) in
  {
    w_step = (fun () -> ignore (Fd.step d));
    w_hash = (fun () -> Fd.state_hash d);
    w_particles = (fun () -> Fd.total_particles d);
    w_nranks = (fun () -> d.Fd.nranks);
    w_sections = (fun () -> Fd.sections_all d);
    w_shrink = (fun ~dead secs -> Fd.shrink d ~dead secs);
    w_rebalance = (fun weight -> Fd.rebalance d ~weight);
    w_respawn = (fun ~rank secs -> Fd.respawn d ~rank secs);
    w_closed = false;
  }

let cabana_world ?(checked = false) nranks =
  let d = Cd.create ~prm:cabana_prm ~nranks ~checked () in
  {
    w_step = (fun () -> Cd.step d);
    w_hash = (fun () -> Cd.state_hash d);
    w_particles = (fun () -> Cd.total_particles d);
    w_nranks = (fun () -> d.Cd.nranks);
    w_sections = (fun () -> Cd.sections_all d);
    w_shrink = (fun ~dead secs -> Cd.shrink d ~dead secs);
    w_rebalance = (fun weight -> Cd.rebalance d ~weight);
    w_respawn = (fun ~rank secs -> Cd.respawn d ~rank secs);
    w_closed = true;
  }

(* a synthetic skew: moves cells even when the live load is uniform *)
let skewed c = float_of_int (1 + c)

(* The qcheck reshape oracle: the global observable state (owned
   fields by global identity plus the particle multiset) hashed
   canonically must be invariant under both reshape epochs — shrink recovery and live
   rebalance — for either app and any (rank count, dead rank, crash
   point): redistribution moves state, never makes it. *)
let prop_shrink_preserves_state_hash =
  QCheck.Test.make
    ~name:"shrink recovery preserves the global state hash (owned-state oracle)" ~count:8
    QCheck.(pair (triple (int_range 2 4) small_nat (int_range 0 3)) (pair bool bool))
    (fun ((nranks, dead0, pre_steps), (fempic, shrink)) ->
      let dead = dead0 mod nranks in
      let w = if fempic then fempic_world nranks else cabana_world nranks in
      for _ = 1 to pre_steps do
        w.w_step ()
      done;
      let h0 = w.w_hash () and n0 = w.w_particles () in
      let ok =
        if shrink then
          (* what journal reconstruction would return for the dead
             rank: its exact current sections *)
          w.w_shrink ~dead (w.w_sections ()).(dead) = nranks - 1
        else (ignore (w.w_rebalance skewed); w.w_nranks () = nranks)
      in
      let ok = ok && w.w_hash () = h0 && w.w_particles () = n0 in
      (* the reshaped world must actually run (halo links, freshness
         and particle localization all valid) *)
      for _ = 1 to 2 do
        w.w_step ()
      done;
      ok && ((not w.w_closed) || w.w_particles () = n0))

(* The halo collectives are derived at every launch from access
   descriptors and dirty bits, whatever the partition: a run taken
   through a rebalance epoch and a shrink must end in the global state
   the hand-placed exchanges reached, recorded here as constants. *)
let test_derived_across_world_changes () =
  List.iter
    (fun (app, mk, expected) ->
      let w = mk () in
      for _ = 1 to 2 do
        w.w_step ()
      done;
      Alcotest.(check bool) (app ^ ": the rebalance moves cells") true (w.w_rebalance skewed > 0);
      for _ = 1 to 2 do
        w.w_step ()
      done;
      ignore (w.w_shrink ~dead:1 (w.w_sections ()).(1));
      for _ = 1 to 2 do
        w.w_step ()
      done;
      Alcotest.(check int64) (app ^ ": the recorded state hash") expected (w.w_hash ()))
    [
      ("fempic", (fun () -> fempic_world 3), -6014914953628532779L);
      ("cabana", (fun () -> cabana_world 3), -7249073544010922386L);
    ]

(* The sanitizer as the oracle of the mpi path: on 4 ranks, through a
   rebalance epoch and a respawn from the step-boundary snapshot, the
   checked runner never sees a stale halo read (E060) or any other
   violation, and ends in the unchecked run's state. *)
let test_checked_world_oracle () =
  List.iter
    (fun (app, mk) ->
      let run checked =
        let w = mk ~checked 4 in
        for _ = 1 to 2 do
          w.w_step ()
        done;
        Alcotest.(check bool) (app ^ ": the rebalance moves cells") true (w.w_rebalance skewed > 0);
        w.w_step ();
        w.w_respawn ~rank:1 (w.w_sections ()).(1);
        for _ = 1 to 2 do
          w.w_step ()
        done;
        w.w_hash ()
      in
      let clean = run false in
      match run true with
      | h -> Alcotest.(check int64) (app ^ ": checked run == unchecked run") clean h
      | exception Opp_check.Violation v ->
          Alcotest.failf "%s: %s" app (Opp_check.Diag.violation_to_string v))
    [
      ("fempic", fun ~checked n -> fempic_world ~checked n);
      ("cabana", fun ~checked n -> cabana_world ~checked n);
    ]

(* --- malformed shards end in Corrupt, never another exception --- *)

let replace name f secs = List.map (fun s -> if Ckpt.section_name s = name then f s else s) secs
let drop name secs = List.filter (fun s -> Ckpt.section_name s <> name) secs

let map_ints name f =
  replace name (function Ckpt.Ints (n, a) -> Ckpt.Ints (n, f (Array.copy a)) | s -> s)

let map_floats name f =
  replace name (function Ckpt.Floats (n, a) -> Ckpt.Floats (n, f (Array.copy a)) | s -> s)

let set0 v a = if Array.length a = 0 then [| v |] else (a.(0) <- v; a)
let shorter a = Array.sub a 0 (max 0 (Array.length a - 1))
let as_ints = function Ckpt.Floats (n, a) -> Ckpt.Ints (n, Array.map int_of_float a) | s -> s

(* variants of one rank's sections, shared by both apps *)
let rank_variants ~particle ~field =
  [
    ("empty meta", map_ints "meta" (fun _ -> [||]));
    ("missing meta", drop "meta");
    ("negative particle count", map_ints "meta" (set0 (-1)));
    ("particle count beyond the dats", map_ints "meta" (fun a -> set0 (a.(0) + 1) a));
    ("missing particle dat", drop particle);
    ("particle dat of the wrong kind", replace particle as_ints);
    ("short particle dat", map_floats particle shorter);
    ("short p2c", map_ints "p2c" shorter);
    ("p2c beyond the local cells", map_ints "p2c" (set0 1_000_000));
    ("negative p2c", map_ints "p2c" (set0 (-1)));
    ("short field dat", map_floats field shorter);
    ("field dat of the wrong kind", replace field as_ints);
  ]

(* driver variants of rank 0's shard *)
let driver_variants =
  [
    ("empty driver", map_ints "driver" (fun _ -> [||]));
    ("missing driver", drop "driver");
    ("driver of the wrong kind", replace "driver" (fun _ -> Ckpt.Floats ("driver", [| 1.0 |])));
  ]

let expect_corrupt label f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" label
  | exception Ckpt.Corrupt _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s, not Corrupt" label (Printexc.to_string e)

(* Feed every variant through both entry points: respawn (rank 1's
   reconstructed sections) and a checkpoint restore (the variant
   written as shard 1, or as rank 0's driver). *)
let check_malformed ~sections_all ~respawn ~restore ~rank_variants ~driver_variants =
  let dir = tmpdir "opp_resil_malformed" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let clean = sections_all () in
      clean.(0) <- clean.(0) @ [ Ckpt.Ints ("driver", [| 3 |]) ];
      let via_ckpt label shards =
        rm_rf dir;
        Ckpt.save ~dir ~step:3 shards;
        expect_corrupt (label ^ " (checkpoint)") (fun () -> restore ~dir)
      in
      List.iter
        (fun (label, f) ->
          expect_corrupt (label ^ " (respawn)") (fun () -> respawn ~rank:1 (f clean.(1)));
          via_ckpt label (Array.mapi (fun r s -> if r = 1 then f s else s) clean))
        rank_variants;
      List.iter
        (fun (label, f) -> via_ckpt label (Array.mapi (fun r s -> if r = 0 then f s else s) clean))
        driver_variants)

let test_fempic_malformed_shards () =
  let d = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
  for _ = 1 to 3 do
    ignore (Fd.step d)
  done;
  check_malformed
    ~sections_all:(fun () ->
      let s = Fd.sections_all d in
      s.(0) <- s.(0) @ [ Ckpt.Floats ("g_phi", Array.copy (Fd.potential d)) ];
      s)
    ~respawn:(fun ~rank secs -> Fd.respawn d ~rank secs)
    ~restore:(fun ~dir -> Fd.restore_checkpoint d ~dir)
    ~rank_variants:
      (rank_variants ~particle:"part_pos" ~field:"node_phi"
      @ [
          ("short face carries", map_floats "face_carry" shorter);
          ("missing face RNG streams", drop "face_rng");
          ( "face RNG streams of the wrong kind",
            replace "face_rng" (function
              | Ckpt.I64s (n, a) -> Ckpt.Floats (n, Array.map Int64.to_float a)
              | s -> s) );
        ])
    ~driver_variants:
      (driver_variants
      @ [ ("short g_phi", map_floats "g_phi" shorter); ("missing g_phi", drop "g_phi") ])

let test_cabana_malformed_shards () =
  let d = Cd.create ~prm:cabana_prm ~nranks:2 () in
  for _ = 1 to 2 do
    Cd.step d
  done;
  check_malformed
    ~sections_all:(fun () -> Cd.sections_all d)
    ~respawn:(fun ~rank secs -> Cd.respawn d ~rank secs)
    ~restore:(fun ~dir -> Cd.restore_checkpoint d ~dir)
    ~rank_variants:
      (rank_variants ~particle:"part_w" ~field:"cell_e"
      @ [
          ("seed mismatch", map_ints "meta" (fun a -> a.(1) <- a.(1) + 1; a));
          ("meta without the seed", map_ints "meta" (fun a -> [| a.(0) |]));
          ("short scratch dat", map_floats "cell_interp" shorter);
        ])
    ~driver_variants

(* --- the shared stepping loop (Apps_dist.Drive.drive) --- *)

module Drive = Apps_dist.Drive

let with_dir prefix f =
  let dir = tmpdir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* The CI chaos soak in miniature, through the loop every driver runs:
   message faults plus a crash of rank 1 at step 8, recovered by
   teardown, restore of the step-6 checkpoint and replay. *)
let test_drive_fempic_crash_recovers () =
  let steps = 12 in
  let make () = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
  let clean = make () in
  Fd.run clean ~steps;
  let inj =
    match Fault.parse "seed=7,drop=halo:0.05,corrupt=any:0.03,dup=migrate:0.02,crash=1@8" with
    | Ok inj -> inj
    | Error e -> Alcotest.fail e
  in
  let ran = ref [] in
  let final =
    with_injector inj (fun () ->
        with_dir "oppic_drive_crash" (fun dir ->
            Drive.drive ~steps ~ckpt_every:3 ~ckpt_dir:dir ~restart:None ~make
              ~do_step:(fun d s ->
                ignore (Fd.step d);
                ran := s :: !ran)
              ()))
  in
  Alcotest.(check int) "the crash fired" 1 (Fault.stat inj "crashes");
  Alcotest.(check (list int)) "steps 1-7, then replay from the step-6 checkpoint"
    (List.init 7 succ @ List.init 6 (fun i -> 7 + i))
    (List.rev !ran);
  Alcotest.(check int64) "state hash equals the fault-free run's" (Fd.state_hash clean)
    (Fd.state_hash final)

(* Heal and balance composed in the one loop, on either app's handle:
   4 slab ranks rebalanced on particle counts at most every 5 steps,
   rank 1 crashing on the step after the first rebalance past step 1
   (taken from the crash-free run), so that it is recovered from the
   snapshot taken in the rebalanced shape. Respawn must end on the
   crash-free state hash, shrink on its particle count; with
   checkpointing off, nothing is written to disk. *)
let drive_heal_balance ~make ~config ~mode () =
  let module H = Apps_dist.Dist_handle in
  let steps = 10 in
  let run ?crash () =
    let balancer =
      Apps_dist.Dist_balance.make
        ~config:
          { config with Opp_balance.Policy.mode = Opp_balance.Policy.Particles; min_interval = 5 }
        ()
    in
    let healer = Apps_dist.Dist_heal.make ~mode () in
    (* rebalances fired before step s ran *)
    let fired_before = Array.make (steps + 1) 0 in
    let inj = Fault.create ?crash [] in
    with_dir "oppic_drive_hb" (fun root ->
        let ckpt_dir = Filename.concat root "ckpt" in
        let final =
          with_injector inj (fun () ->
              Drive.drive ~healer ~balancer ~steps ~ckpt_every:0 ~ckpt_dir ~restart:None ~make
                ~do_step:(fun d s ->
                  fired_before.(s) <-
                    Opp_balance.Policy.fired (Apps_dist.Dist_balance.policy balancer);
                  H.step d)
                ())
        in
        Alcotest.(check bool) "checkpointing off writes no checkpoint" false
          (Sys.file_exists ckpt_dir);
        (final, fired_before, Fault.stat inj "crashes"))
  in
  let clean, clean_fired, _ = run () in
  let crash_step =
    let after_rebalance s = clean_fired.(s) > clean_fired.(s - 1) in
    match List.find_opt after_rebalance (List.init (steps - 2) (( + ) 3)) with
    | Some s -> s
    | None -> Alcotest.fail "the crash-free run never rebalanced past step 1"
  in
  let final, fired_before, crashes = run ~crash:(1, crash_step) () in
  Alcotest.(check int) "the crash fired" 1 crashes;
  Alcotest.(check bool)
    (Printf.sprintf "step %d, just before the crash, rebalanced" (crash_step - 1))
    true
    (fired_before.(crash_step) > fired_before.(crash_step - 1));
  match mode with
  | Opp_heal.Heal.Respawn ->
      Alcotest.(check int64) "state hash equals the crash-free run's" (H.state_hash clean)
        (H.state_hash final)
  | Opp_heal.Heal.Shrink ->
      Alcotest.(check int) "shrunk by one rank" (clean.H.nranks - 1) final.H.nranks;
      Alcotest.(check int) "particles equal the crash-free run's" (H.total_particles clean)
        (H.total_particles final)

let fempic_heal_balance mode =
  let mesh = fempic_mesh () in
  drive_heal_balance
    ~make:(fun () -> Fd.create ~prm:fempic_prm ~nranks:4 ~partitioner:`Slab mesh)
    ~config:Opp_balance.Policy.default_config ~mode

(* CabanaPIC's slabs stay within a few percent of balance, so its
   balancer trips at 1.005 and re-arms without hysteresis. *)
let cabana_heal_balance mode =
  drive_heal_balance
    ~make:(fun () -> Cd.create ~prm:cabana_prm ~nranks:4 ())
    ~config:{ Opp_balance.Policy.default_config with threshold = 1.005; hysteresis = 1.0 }
    ~mode

(* A one-rank handle (what the seq backend runs) stepped to 6 with a
   checkpoint every 3, then a fresh one restarted from that directory
   to 9, against 9 steps straight through — every leg through
   [Drive.drive]. *)
let drive_seq_restart ~make ~step ~state () =
  let module H = Apps_dist.Dist_handle in
  (* the final handle and the steps this leg ran *)
  let drive ?(ckpt_every = 0) ?(ckpt_dir = "unused") ?restart steps =
    let ran = ref [] in
    let h =
      Drive.drive ~steps ~ckpt_every ~ckpt_dir ~restart ~make
        ~do_step:(fun h s ->
          step h;
          ran := s :: !ran)
        ()
    in
    (h, List.rev !ran)
  in
  let straight, _ = drive 9 in
  let resumed, ran =
    with_dir "oppic_drive_seq" (fun dir ->
        let first, _ = drive ~ckpt_every:3 ~ckpt_dir:dir 6 in
        Alcotest.(check int) "first leg stops at 6" 6 first.H.step_count;
        Alcotest.(check (list int)) "checkpoints at 3 and 6" [ 3; 6 ]
          (List.sort compare (Ckpt.available ~dir));
        drive ~restart:dir 9)
  in
  Alcotest.(check (list int)) "the restart ran only steps 7 to 9" [ 7; 8; 9 ] ran;
  Alcotest.(check bool) "resumed run is bit-identical" true (state straight = state resumed)

let test_drive_fempic_seq_restart () =
  let mesh = fempic_mesh () in
  drive_seq_restart
    ~make:(fun () -> Fd.create ~prm:fempic_prm ~nranks:1 mesh)
    ~step:(fun h -> ignore (Fd.step h))
    ~state:(fun h -> Array.map (List.map section_sig) (Fd.sections_all h))
    ()

let test_drive_cabana_seq_restart () =
  drive_seq_restart
    ~make:(fun () -> Cd.create ~prm:cabana_prm ~nranks:1 ())
    ~step:Cd.step ~state:cabana_dist_sig ()

(* Every backend runs a handle, so a one-rank run heals too: respawn
   rebuilds rank 0 in place and ends on the crash-free state hash;
   shrink has no survivor to shrink onto and is refused before any step
   runs (test/dune runs the CLI for its exit status). *)
let test_one_rank_heal () =
  let steps = 5 in
  let make () = Fd.create ~prm:fempic_prm ~nranks:1 (fempic_mesh ()) in
  let clean = make () in
  Fd.run clean ~steps;
  let healer = Apps_dist.Dist_heal.make ~mode:Opp_heal.Heal.Respawn () in
  let inj = Fault.create ~crash:(0, 3) [] in
  let final =
    with_injector inj (fun () ->
        with_dir "oppic_one_rank_heal" (fun dir ->
            Drive.drive ~healer ~steps ~ckpt_every:0 ~ckpt_dir:dir ~restart:None ~make
              ~do_step:(fun d _ -> ignore (Fd.step d))
              ()))
  in
  Alcotest.(check int) "the crash fired" 1 (Fault.stat inj "crashes");
  Alcotest.(check int64) "state hash equals the crash-free run's" (Fd.state_hash clean)
    (Fd.state_hash final);
  let applicable nranks mode = Apps_dist.Dist_heal.applicable ~nranks mode = Ok () in
  Alcotest.(check bool) "respawn applies to one rank" true (applicable 1 Opp_heal.Heal.Respawn);
  Alcotest.(check bool) "shrink is refused on one rank" false (applicable 1 Opp_heal.Heal.Shrink);
  Alcotest.(check bool) "shrink applies to two ranks" true (applicable 2 Opp_heal.Heal.Shrink)

let suite =
  [
    Alcotest.test_case "fault spec parsing" `Quick test_parse;
    Alcotest.test_case "Exch.create link validation (E070-E072)" `Quick test_create_validation;
    Alcotest.test_case "mailbox quarantines poisoned migrants" `Quick test_mailbox_quarantine;
    Alcotest.test_case "checkpoint round-trip" `Quick test_ckpt_roundtrip;
    Alcotest.test_case "torn shard falls back to older checkpoint" `Quick test_ckpt_torn_fallback;
    Alcotest.test_case "checkpoint pruning keeps newest" `Quick test_ckpt_prune;
    Alcotest.test_case "one-shard checkpoint writes atomically" `Quick
      test_seq_checkpoint_atomic;
    Alcotest.test_case "fempic_dist: faulty run == clean run" `Slow
      test_fempic_faulty_equals_clean;
    Alcotest.test_case "fempic_dist: crash-at-every-step recovery sweep" `Slow
      test_fempic_crash_sweep;
    Alcotest.test_case "opp_heal: respawn crash-at-every-step sweep is bit-identical" `Slow
      test_fempic_heal_respawn_sweep;
    Alcotest.test_case "opp_heal: fempic shrink recovery conserves state" `Slow
      test_fempic_heal_shrink;
    Alcotest.test_case "cabana: checkpoint resume is bit-exact" `Quick
      test_cabana_resume_bit_exact;
    Alcotest.test_case "cabana_dist: faulty+crashed run == clean run" `Slow
      test_cabana_dist_faulty_crash_equals_clean;
    Alcotest.test_case "derived run across rebalance + shrink ends at the unplanned hash" `Slow
      test_derived_across_world_changes;
    Alcotest.test_case "fempic: malformed shards raise Corrupt only" `Quick
      test_fempic_malformed_shards;
    Alcotest.test_case "cabana: malformed shards raise Corrupt only" `Quick
      test_cabana_malformed_shards;
    Alcotest.test_case "drive: fempic 3 ranks, crash at 8 recovers the fault-free state hash"
      `Slow test_drive_fempic_crash_recovers;
    Alcotest.test_case "drive: fempic heal x balance, respawn after a rebalance" `Slow
      (fempic_heal_balance Opp_heal.Heal.Respawn);
    Alcotest.test_case "drive: fempic seq checkpoint at 6, restart to 9 is bit-identical" `Quick
      test_drive_fempic_seq_restart;
    Alcotest.test_case "drive: cabana seq checkpoint at 6, restart to 9 is bit-identical" `Quick
      test_drive_cabana_seq_restart;
    Alcotest.test_case "opp_heal: fempic shrinks twice, both from the newest snapshot" `Slow
      test_fempic_heal_shrink_twice;
    Alcotest.test_case "opp_heal: cabana respawn crash-at-every-step sweep is bit-identical"
      `Slow test_cabana_heal_respawn_sweep;
    Alcotest.test_case "sanitizer: both apps on 4 ranks, rebalance + respawn, no violation" `Slow
      test_checked_world_oracle;
    QCheck_alcotest.to_alcotest prop_shrink_preserves_state_hash;
    QCheck_alcotest.to_alcotest prop_checksum_bit_sensitive;
    QCheck_alcotest.to_alcotest prop_injector_deterministic;
    QCheck_alcotest.to_alcotest prop_detection_complete;
    Alcotest.test_case "drive: cabana heal x balance, respawn after a rebalance" `Slow
      (cabana_heal_balance Opp_heal.Heal.Respawn);
    Alcotest.test_case "drive: fempic heal shrink x balance, shrink after a rebalance" `Slow
      (fempic_heal_balance Opp_heal.Heal.Shrink);
    Alcotest.test_case "drive: cabana heal shrink x balance, shrink after a rebalance" `Slow
      (cabana_heal_balance Opp_heal.Heal.Shrink);
    Alcotest.test_case "drive: one-rank heal respawns, shrink is refused" `Quick
      test_one_rank_heal;
  ]
