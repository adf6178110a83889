(* Tests for opp_heal's building blocks: the per-rank snapshot journal
   (bit-exact reconstruct, corruption detection, footprint), retry
   backoff determinism and per-link budgets, the mailbox delivery
   deadline (reroute and dead-letter), the incremental shrink
   re-partition, and the monitor's rank-health plumbing (A008, rank
   states, shrink). End-to-end recovery lives in test_resil. *)

open Opp_resil
module Journal = Opp_heal.Journal
module Heal = Opp_heal.Heal
module Mailbox = Opp_dist.Mailbox
module Partition = Opp_dist.Partition

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

let section_sig = function
  | Ckpt.Floats (n, a) -> (n, Codec.checksum_floats a)
  | Ckpt.Ints (n, a) -> (n, Codec.checksum_ints a)
  | Ckpt.I64s (n, a) -> (n, Codec.checksum_i64s a)

(* --- journal --- *)

(* A toy two-rank state: one float field, one int field, and a
   growable particle buffer, mutated deterministically per step. *)
let toy_sections ~step r =
  [
    Ckpt.Floats ("field", Array.init 6 (fun i -> float_of_int ((step * 100) + (r * 10) + i)));
    Ckpt.Ints ("map", Array.init 4 (fun i -> (step * 7) + r + i));
    Ckpt.Floats ("parts", Array.init (3 + step) (fun i -> float_of_int (step + r) +. (0.5 *. float_of_int i)));
  ]

let test_journal_snapshot_bit_exact () =
  Opp_obs.Metrics.enable ();
  Fun.protect ~finally:Opp_obs.Metrics.disable (fun () ->
      let j = Journal.create ~step:0 (Array.init 2 (toy_sections ~step:0)) in
      for s = 1 to 10 do
        Journal.record j ~step:s (Array.init 2 (toy_sections ~step:s))
      done;
      Alcotest.(check int) "snapshot is at the newest step" 10 (Journal.step j);
      for r = 0 to 1 do
        Alcotest.(check bool)
          (Printf.sprintf "rank %d reconstruct is bit-identical to the live sections" r)
          true
          (List.map section_sig (Journal.reconstruct j ~rank:r)
          = List.map section_sig (toy_sections ~step:10 r))
      done;
      (* the footprint is one step's sections (field + map + parts, on
         both ranks), however many steps ran *)
      Alcotest.(check (float 0.0))
        "heal.journal.words is one step's section words"
        (float_of_int (2 * (6 + 4 + (3 + 10))))
        (Option.value ~default:0.0 (Opp_obs.Metrics.value "heal.journal.words")))

let test_journal_detects_corruption () =
  let j = Journal.create ~step:0 (Array.init 2 (toy_sections ~step:0)) in
  Journal.record j ~step:1 (Array.init 2 (toy_sections ~step:1));
  (* flip one byte of rank 0's stored shard — reconstruct must refuse
     to hand back silently-wrong state *)
  let sh = j.Journal.ranks.(0) in
  let at = sh.Ckpt.len / 2 in
  Bytes.set sh.Ckpt.bytes at (Char.chr (Char.code (Bytes.get sh.Ckpt.bytes at) lxor 0x04));
  (match Journal.reconstruct j ~rank:0 with
  | exception Journal.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt on a tampered snapshot");
  (* the untouched rank still reconstructs *)
  Alcotest.(check bool)
    "other rank unaffected" true
    (List.map section_sig (Journal.reconstruct j ~rank:1)
    = List.map section_sig (toy_sections ~step:1 1))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The journal holds exactly what a checkpoint writes: rank r's bytes
   are shard-000r.bin, and its checksum is that shard's MANIFEST line. *)
let test_journal_is_checkpoint_shards () =
  let sections = Array.init 2 (toy_sections ~step:3) in
  let j = Journal.create ~step:0 (Array.init 2 (toy_sections ~step:9)) in
  Journal.record j ~step:3 sections;
  let dir = tmpdir "opp_heal_shards" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Ckpt.save ~dir ~step:3 sections;
      let ck = Filename.concat dir "ckpt-00000003" in
      let manifest = String.split_on_char '\n' (read_file (Filename.concat ck "MANIFEST")) in
      for r = 0 to 1 do
        let sh = j.Journal.ranks.(r) in
        let file = Printf.sprintf "shard-%04d.bin" r in
        Alcotest.(check string)
          (Printf.sprintf "rank %d bytes are %s" r file)
          (read_file (Filename.concat ck file))
          (Bytes.sub_string sh.Ckpt.bytes 0 sh.Ckpt.len);
        Alcotest.(check int64)
          (Printf.sprintf "rank %d checksum is the FNV-64 of %s" r file)
          (Codec.checksum_bytes sh.Ckpt.bytes ~len:sh.Ckpt.len)
          sh.Ckpt.sum;
        Alcotest.(check bool)
          (Printf.sprintf "rank %d checksum is its MANIFEST line" r)
          true
          (List.mem (Printf.sprintf "%s %016Lx" file sh.Ckpt.sum) manifest)
      done)

(* --- malformed shards end in Corrupt, through restart and respawn --- *)

let valid_shard () =
  let sh = Ckpt.shard () in
  Ckpt.encode sh (toy_sections ~step:2 0);
  Bytes.sub sh.Ckpt.bytes 0 sh.Ckpt.len

let with_word b pos v =
  let b = Bytes.copy b in
  Bytes.set_int64_be b pos v;
  b

(* Offsets in [valid_shard]: magic 0, count 8, then the first section
   ("field", 6 floats): tag 16, name length 24, name 32, values length 37. *)
let malformed_shards () =
  let b = valid_shard () in
  List.init (Bytes.length b) (fun n -> (Printf.sprintf "prefix of %d bytes" n, Bytes.sub b 0 n))
  @ [
      ("bad magic", with_word b 0 0x4F505052L);
      ("unknown section tag", with_word b 16 7L);
      ("negative section tag", with_word b 16 (-1L));
      ("section count past the end", with_word b 8 4000L);
      ("name length past the end", with_word b 24 (Int64.of_int (Bytes.length b)));
      ("values length past the end", with_word b 37 (Int64.of_int (((Bytes.length b - 45) / 8) + 1)));
      ("values length overflowing", with_word b 37 Int64.max_int);
      ("trailing bytes", Bytes.cat b (Bytes.make 8 '\000'));
    ]

let test_malformed_shards_corrupt () =
  let expect_corrupt label f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" label
    | exception Ckpt.Corrupt _ -> ()
    | exception e -> Alcotest.failf "%s: raised %s, not Corrupt" label (Printexc.to_string e)
  in
  (* the checksums match, so it is the decoder that has to refuse *)
  let j = Journal.create ~step:2 (Array.init 2 (toy_sections ~step:2)) in
  let dir = tmpdir "opp_heal_malformed" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Ckpt.save ~dir ~step:2 [| toy_sections ~step:2 0 |];
      let newest = Filename.concat dir "ckpt-00000004" in
      Sys.mkdir newest 0o755;
      List.iter
        (fun (label, b) ->
          let len = Bytes.length b in
          let sum = Codec.checksum_bytes b ~len in
          j.Journal.ranks.(0) <- { Ckpt.bytes = b; len; sum };
          expect_corrupt (label ^ " (respawn)") (fun () -> Journal.reconstruct j ~rank:0);
          Out_channel.with_open_bin (Filename.concat newest "shard-0000.bin") (fun oc ->
              Out_channel.output_bytes oc b);
          Out_channel.with_open_bin (Filename.concat newest "MANIFEST") (fun oc ->
              Printf.fprintf oc "OPPIC-RESIL-CKPT 1\nstep 4\nshards 1\nshard-0000.bin %016Lx\n" sum);
          match Ckpt.load ~dir with
          | Some (2, _) -> ()
          | Some (s, _) -> Alcotest.failf "%s (checkpoint): loaded step %d" label s
          | None -> Alcotest.failf "%s (checkpoint): no fallback to step 2" label)
        (malformed_shards ());
      (* the unmodified shard decodes through both paths *)
      let b = valid_shard () in
      let len = Bytes.length b in
      j.Journal.ranks.(0) <- { Ckpt.bytes = b; len; sum = Codec.checksum_bytes b ~len };
      Alcotest.(check bool)
        "the valid shard reconstructs" true
        (List.map section_sig (Journal.reconstruct j ~rank:0)
        = List.map section_sig (toy_sections ~step:2 0)))

(* --- retry backoff + per-link budgets --- *)

let test_retry_backoff_deterministic () =
  let mk () = Fault.create ~seed:9 [ (Fault.Drop, None, 0.5) ] in
  let a = mk () and b = mk () in
  let prev = ref 0.0 in
  for attempt = 0 to 12 do
    let ba = Retry.backoff_ms a ~chan:Fault.Halo ~key:3 ~attempt in
    let bb = Retry.backoff_ms b ~chan:Fault.Halo ~key:3 ~attempt in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "attempt %d backoff replays identically" attempt)
      ba bb;
    Alcotest.(check bool) "backoff is positive" true (ba > 0.0);
    Alcotest.(check bool) "backoff is capped" true (ba <= 1.5 *. Retry.max_backoff_ms);
    if attempt > 0 && !prev < Retry.max_backoff_ms /. 4.0 then
      Alcotest.(check bool) "backoff grows with the attempt number" true (ba > !prev);
    prev := ba
  done;
  (* jitter decorrelates links: same attempt, different key *)
  let same =
    List.for_all
      (fun key ->
        Retry.backoff_ms a ~chan:Fault.Halo ~key ~attempt:4
        = Retry.backoff_ms a ~chan:Fault.Halo ~key:0 ~attempt:4)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "seeded jitter varies across links" false same

let test_retry_link_budget () =
  let inj = Fault.create ~seed:1 ~link_budget:2 [] in
  Alcotest.(check int) "budget parsed" 2 (Fault.link_budget inj);
  let link = (0, 1) in
  Alcotest.(check bool) "token 1" true (Fault.take_retry_token inj ~chan:Fault.Halo ~link:(Some link));
  Alcotest.(check bool) "token 2" true (Fault.take_retry_token inj ~chan:Fault.Halo ~link:(Some link));
  Alcotest.(check bool) "budget exhausted" false
    (Fault.take_retry_token inj ~chan:Fault.Halo ~link:(Some link));
  (* other links and channels have their own budgets *)
  Alcotest.(check bool) "other link unaffected" true
    (Fault.take_retry_token inj ~chan:Fault.Halo ~link:(Some (1, 0)));
  Alcotest.(check bool) "other channel unaffected" true
    (Fault.take_retry_token inj ~chan:Fault.Migrate ~link:(Some link));
  (* the budget is per step: begin_step resets it *)
  Fault.begin_step inj ~step:2;
  Alcotest.(check bool) "budget resets at the step boundary" true
    (Fault.take_retry_token inj ~chan:Fault.Halo ~link:(Some link));
  (* anonymous sends are never budget-limited *)
  Alcotest.(check bool) "no link, no budget" true
    (Fault.take_retry_token inj ~chan:Fault.Halo ~link:None)

let test_retry_budget_exhausts_with_retry () =
  (match Fault.parse "seed=3,drop=halo:1.0,retries=50,link_budget=4" with
  | Error e -> Alcotest.fail e
  | Ok inj ->
      with_injector inj (fun () ->
          Fault.begin_step inj ~step:1;
          match
            Retry.with_retry inj ~what:"unit" ~chan:Fault.Halo ~seq:1 ~link:(2, 3) (fun _ -> None)
          with
          | exception Retry.Exhausted msg ->
              Alcotest.(check string) "exhaustion names the link budget"
                "unit (link budget)" msg;
              Alcotest.(check int) "used exactly the budget" 4
                (Fault.link_budget_used inj ~chan:Fault.Halo ~link:(2, 3))
          | _ -> Alcotest.fail "expected Exhausted"))

(* --- mailbox delivery deadline --- *)

let test_mailbox_reroute_to_recovery_owner () =
  let mail = Mailbox.create ~nranks:3 ~width:2 () in
  Mail_util.post mail ~src:0 ~dest:2 ~cell:10 [| 1.0; 2.0 |];
  Mail_util.post mail ~src:1 ~dest:2 ~cell:11 [| 3.0; 4.0 |];
  Mail_util.post mail ~src:0 ~dest:1 ~cell:5 [| 5.0; 6.0 |];
  Mailbox.mark_dead mail 2;
  Alcotest.(check bool) "dead flag set" true (Mailbox.is_dead mail 2);
  let got = Array.make 3 [] in
  let n =
    Mailbox.deliver mail
      ~reroute:(fun ~cell -> cell mod 2)
      (fun r batch -> got.(r) <- got.(r) @ Mail_util.rows ~width:2 batch)
  in
  Alcotest.(check int) "all three migrants delivered" 3 n;
  (* cell 10 -> rank 0, cell 11 -> rank 1; nothing lands on the dead rank *)
  Alcotest.(check (list (pair int (list (float 0.0)))))
    "rank 0 got the rerouted cell-10 migrant"
    [ (10, [ 1.0; 2.0 ]) ]
    (List.map (fun (c, p) -> (c, Array.to_list p)) got.(0));
  Alcotest.(check (list (pair int (list (float 0.0)))))
    "rank 1 got its own migrant, then the rerouted one"
    [ (5, [ 5.0; 6.0 ]); (11, [ 3.0; 4.0 ]) ]
    (List.map (fun (c, p) -> (c, Array.to_list p)) got.(1));
  Alcotest.(check (list (pair int (list (float 0.0))))) "dead rank got nothing" []
    (List.map (fun (c, p) -> (c, Array.to_list p)) got.(2))

let test_mailbox_dead_letter () =
  let mail = Mailbox.create ~nranks:2 ~width:1 () in
  Mail_util.post mail ~src:0 ~dest:1 ~cell:0 [| 9.0 |];
  Mailbox.mark_dead mail 1;
  (* no reroute hook: the migrant is dead-lettered, not delivered and
     not left pending forever *)
  let n = Mailbox.deliver mail (fun _ _ -> Alcotest.fail "nothing should be delivered") in
  Alcotest.(check int) "nothing delivered" 0 n;
  Alcotest.(check int) "mailbox drained" 0 (Mailbox.total mail);
  (* a reroute that targets another dead (or invalid) rank also
     dead-letters rather than looping *)
  let mail2 = Mailbox.create ~nranks:2 ~width:1 () in
  Mail_util.post mail2 ~src:0 ~dest:1 ~cell:0 [| 9.0 |];
  Mailbox.mark_dead mail2 1;
  let n2 = Mailbox.deliver mail2 ~reroute:(fun ~cell:_ -> 1) (fun _ _ -> ()) in
  Alcotest.(check int) "reroute to a dead rank dead-letters" 0 n2

(* --- shrink re-partition --- *)

(* A 1-D chain of 12 cells in 3 rank slabs: 0..3 -> rank 0, 4..7 ->
   rank 1 (dead), 8..11 -> rank 2. *)
let chain_world () =
  let cell_rank = Array.init 12 (fun c -> c / 4) in
  let centroid c = [| float_of_int c; 0.0; 0.0 |] in
  let neighbours c =
    List.filter (fun n -> n >= 0 && n < 12) [ c - 1; c + 1 ]
  in
  (cell_rank, centroid, neighbours)

let test_heal_reassign_chain () =
  let cell_rank, centroid, neighbours = chain_world () in
  let nr = Partition.heal_reassign ~nranks:3 ~dead:1 ~cell_rank ~centroid ~neighbours in
  (* survivors keep every cell they own *)
  Array.iteri
    (fun c r -> if r <> 1 then Alcotest.(check int) (Printf.sprintf "cell %d untouched" c) r nr.(c))
    cell_rank;
  (* every dead cell lands on an adjacent survivor, and annexed cells
     abut their new owner: low half to rank 0, high half to rank 2 *)
  for c = 4 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "cell %d reassigned to a survivor" c)
      true
      (nr.(c) = 0 || nr.(c) = 2)
  done;
  for c = 4 to 6 do
    Alcotest.(check bool)
      (Printf.sprintf "annexation is contiguous at cell %d" c)
      true (nr.(c) <= nr.(c + 1))
  done;
  let low = Array.fold_left (fun acc r -> if r = 0 then acc + 1 else acc) 0 nr in
  Alcotest.(check bool) "the split is balanced" true (low >= 5 && low <= 7)

let prop_heal_reassign_total =
  QCheck.Test.make ~name:"heal_reassign always reassigns every dead cell to a survivor"
    ~count:100
    QCheck.(pair (int_range 2 5) (int_range 6 40))
    (fun (nranks, ncells) ->
      let cell_rank = Array.init ncells (fun c -> c * nranks / ncells) in
      let dead = ncells mod nranks in
      let centroid c = [| float_of_int c; float_of_int (c mod 3); 0.0 |] in
      let neighbours c = List.filter (fun n -> n >= 0 && n < ncells) [ c - 1; c + 1 ] in
      let nr = Partition.heal_reassign ~nranks ~dead ~cell_rank ~centroid ~neighbours in
      Array.for_all (fun r -> r >= 0 && r < nranks && r <> dead) nr
      && Array.for_all2 (fun old now -> old = dead || old = now) cell_rank nr)

(* --- monitor rank-health plumbing --- *)

let test_monitor_heal_plumbing () =
  let dir = tmpdir "opp_heal_mon" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let config = { Opp_watch.Monitor.default_config with Opp_watch.Monitor.dir } in
      let mon = Opp_watch.Monitor.create ~config ~nranks:3 () in
      (* the Heal policy action surfaces the offending rank to the driver *)
      Opp_watch.Monitor.on_alert mon (fun al ->
          if al.Opp_watch.Alert.al_code = "A007" then Opp_watch.Monitor.Heal
          else Opp_watch.Monitor.Note);
      Opp_watch.Monitor.raise_alert mon (Opp_watch.Alert.crash ~rank:1 ~step:3);
      Alcotest.(check (option int)) "heal requested for the crashed rank" (Some 1)
        (Opp_watch.Monitor.take_heal_request mon);
      Alcotest.(check (option int)) "the request is one-shot" None
        (Opp_watch.Monitor.take_heal_request mon);
      (* A008 bookkeeping *)
      Opp_watch.Monitor.raise_alert mon
        (Opp_watch.Alert.recovered ~mode:"respawn" ~rank:1 ~step:3 ~ms:1.5 "back in place");
      Alcotest.(check int) "A008 counted" 1 (Opp_watch.Monitor.alert_count mon "A008");
      Opp_watch.Monitor.set_rank_state mon 1 "respawned";
      Alcotest.(check string) "rank state readable" "respawned"
        (Opp_watch.Monitor.rank_state mon 1);
      (* shrink drops the dead slot and degrades the survivors *)
      Opp_watch.Monitor.shrink_ranks mon ~dead:1 ~detail:"rank 1 lost; 2 ranks remain";
      Alcotest.(check string) "survivors are degraded" "degraded"
        (Opp_watch.Monitor.rank_state mon 0);
      Alcotest.(check (option string)) "degraded detail recorded"
        (Some "rank 1 lost; 2 ranks remain")
        (Opp_watch.Monitor.degraded mon);
      (* status.json carries the new shape *)
      let j = Opp_watch.Monitor.status_json mon in
      (match Opp_obs.Json.member "nranks" j with
      | Some (Opp_obs.Json.Num n) -> Alcotest.(check int) "nranks shrank" 2 (int_of_float n)
      | _ -> Alcotest.fail "status.json missing nranks");
      (match Opp_obs.Json.member "rank_states" j with
      | Some (Opp_obs.Json.Arr l) -> Alcotest.(check int) "rank_states shrank" 2 (List.length l)
      | _ -> Alcotest.fail "status.json missing rank_states");
      Opp_watch.Monitor.close mon)

(* --- heal metrics --- *)

let test_heal_metrics () =
  Opp_obs.Metrics.enable ();
  Fun.protect ~finally:Opp_obs.Metrics.disable (fun () ->
      let v name = Option.value ~default:0.0 (Opp_obs.Metrics.value name) in
      let before = v "heal.recoveries" in
      Heal.record_recovery ~mode:Heal.Respawn ~ms:2.5;
      Alcotest.(check (float 0.0)) "recoveries counted" (before +. 1.0) (v "heal.recoveries");
      Alcotest.(check (float 0.0)) "latency gauge set" 2.5 (v "heal.recovery_ms"))

let suite =
  [
    Alcotest.test_case "journal: snapshot is bit-exact, one step of words" `Quick
      test_journal_snapshot_bit_exact;
    Alcotest.test_case "journal: tampered entries raise Corrupt" `Quick
      test_journal_detects_corruption;
    Alcotest.test_case "journal: rank shards are the checkpoint's shard files" `Quick
      test_journal_is_checkpoint_shards;
    Alcotest.test_case "shards: malformed input is Corrupt via restart and respawn" `Quick
      test_malformed_shards_corrupt;
    Alcotest.test_case "retry: backoff is deterministic, capped, jittered" `Quick
      test_retry_backoff_deterministic;
    Alcotest.test_case "retry: per-link budgets are per step and per link" `Quick
      test_retry_link_budget;
    Alcotest.test_case "retry: with_retry raises Exhausted on budget" `Quick
      test_retry_budget_exhausts_with_retry;
    Alcotest.test_case "mailbox: dead-destination migrants reroute in order" `Quick
      test_mailbox_reroute_to_recovery_owner;
    Alcotest.test_case "mailbox: undeliverable migrants dead-letter" `Quick
      test_mailbox_dead_letter;
    Alcotest.test_case "heal_reassign: chain split is adjacent and balanced" `Quick
      test_heal_reassign_chain;
    Alcotest.test_case "monitor: Heal policy, A008, rank states, shrink" `Quick
      test_monitor_heal_plumbing;
    Alcotest.test_case "heal metrics: recoveries and latency" `Quick test_heal_metrics;
    QCheck_alcotest.to_alcotest prop_heal_reassign_total;
  ]
