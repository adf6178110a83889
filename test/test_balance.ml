(* Tests for opp_balance: the Partition.rebalance diffusion plan and
   its invariants (qcheck), the partition accounting edge cases, the
   decision policy's stacked guards (threshold, min-interval,
   hysteresis, netmodel predicted gain), and the end-to-end live migration epoch on both distributed apps:
   a rebalance is a pure ownership change, so the order-canonical
   state hash must be bit-identical across it and every particle must
   survive. *)

module Partition = Opp_dist.Partition
module Policy = Opp_balance.Policy

(* a 1-D chain of cells: adjacency c-1/c+1, centroid x = c *)
let line_centroid c = [| float_of_int c; 0.0; 0.0 |]
let line_neighbours ncells c = List.filter (fun n -> n >= 0 && n < ncells) [ c - 1; c + 1 ]

(* --- partition accounting edge cases --- *)

let test_imbalance_edge_cases () =
  Alcotest.(check (float 0.0)) "empty world is perfectly balanced" 1.0
    (Partition.imbalance ~nranks:4 [||]);
  Alcotest.(check (float 0.0)) "single rank owning everything is 1.0" 1.0
    (Partition.imbalance ~nranks:1 [| 0; 0; 0 |]);
  (* more ranks than cells: empty ranks drag the mean below 1 cell,
     so the max/mean ratio exceeds 1 *)
  let imb = Partition.imbalance ~nranks:4 [| 0; 1 |] in
  Alcotest.(check (float 1e-9)) "nranks > ncells: max/mean = 1/(2/4)" 2.0 imb;
  let counts = Partition.rank_counts ~nranks:4 [| 0; 1 |] in
  Alcotest.(check (list int)) "empty ranks count zero" [ 1; 1; 0; 0 ] (Array.to_list counts)

let test_rank_counts_rejects_out_of_range () =
  Alcotest.check_raises "owner id past nranks is invalid"
    (Invalid_argument "Partition.rank_counts: rank out of range") (fun () ->
      ignore (Partition.rank_counts ~nranks:2 [| 0; 3 |]))

(* --- the diffusion plan --- *)

let test_rebalance_reduces_skew () =
  let ncells = 40 and nranks = 4 in
  (* slab-ish split with all the weight piled on rank 0's cells *)
  let cell_rank = Array.init ncells (fun c -> c * nranks / ncells) in
  let weight c = if c < ncells / nranks then 100.0 else 1.0 in
  let before =
    let w = Array.make nranks 0.0 in
    Array.iteri (fun c r -> w.(r) <- w.(r) +. weight c) cell_rank;
    Array.fold_left Float.max 0.0 w /. (Array.fold_left ( +. ) 0.0 w /. float_of_int nranks)
  in
  let nr =
    Partition.rebalance ~nranks ~cell_rank ~weight ~centroid:line_centroid
      ~neighbours:(line_neighbours ncells) ()
  in
  let after =
    let w = Array.make nranks 0.0 in
    Array.iteri (fun c r -> w.(r) <- w.(r) +. weight c) nr;
    Array.fold_left Float.max 0.0 w /. (Array.fold_left ( +. ) 0.0 w /. float_of_int nranks)
  in
  Alcotest.(check bool)
    (Printf.sprintf "weighted ratio shrinks (%.2f -> %.2f)" before after)
    true
    (after < before /. 1.5);
  Alcotest.(check bool) "the original array is not mutated" true
    (Array.to_list cell_rank = List.init ncells (fun c -> c * nranks / ncells))

let test_rebalance_noop_cases () =
  Alcotest.(check (list int)) "empty world" []
    (Array.to_list
       (Partition.rebalance ~nranks:3 ~cell_rank:[||]
          ~weight:(fun _ -> 1.0)
          ~centroid:line_centroid ~neighbours:(line_neighbours 0) ()));
  Alcotest.(check (list int)) "single rank has nowhere to move" [ 0; 0; 0 ]
    (Array.to_list
       (Partition.rebalance ~nranks:1 ~cell_rank:[| 0; 0; 0 |]
          ~weight:(fun _ -> 1.0)
          ~centroid:line_centroid ~neighbours:(line_neighbours 3) ()))

let prop_rebalance_invariants =
  QCheck.Test.make
    ~name:"rebalance keeps every cell owned, in range, and started-nonempty ranks nonempty"
    ~count:150
    QCheck.(pair (int_range 2 5) (int_range 4 60))
    (fun (nranks, ncells) ->
      let cell_rank = Array.init ncells (fun c -> c * nranks / ncells) in
      (* skewed deterministic weights *)
      let weight c = float_of_int (1 + ((c * 7) mod 13) + if c < ncells / 3 then 50 else 0) in
      let nonempty_before = Array.make nranks false in
      Array.iter (fun r -> nonempty_before.(r) <- true) cell_rank;
      let nr =
        Partition.rebalance ~nranks ~cell_rank ~weight ~centroid:line_centroid
          ~neighbours:(line_neighbours ncells) ()
      in
      let nonempty_after = Array.make nranks false in
      Array.iter (fun r -> nonempty_after.(r) <- true) nr;
      Array.length nr = ncells
      && Array.for_all (fun r -> r >= 0 && r < nranks) nr
      && Array.for_all2
           (fun before after -> (not before) || after)
           nonempty_before nonempty_after)

(* --- the decision policy --- *)

let decide_simple p ~step ~loads = Policy.decide p ~step ~loads ()

let test_policy_threshold_and_interval () =
  let p =
    Policy.create
      { Policy.default_config with Policy.mode = Policy.Particles; threshold = 1.5; min_interval = 5 }
  in
  Alcotest.(check bool) "balanced load holds" true
    (decide_simple p ~step:1 ~loads:[| 10.0; 10.0; 10.0 |] = Policy.No_action);
  (match decide_simple p ~step:2 ~loads:[| 40.0; 10.0; 10.0 |] with
  | Policy.Rebalance { imbalance; _ } ->
      Alcotest.(check (float 1e-9)) "imbalance is max/mean" 2.0 imbalance
  | Policy.No_action -> Alcotest.fail "skewed load must fire");
  Alcotest.(check bool) "min-interval suppresses an immediate refire" true
    (decide_simple p ~step:4 ~loads:[| 80.0; 10.0; 10.0 |] = Policy.No_action);
  Alcotest.(check bool) "after the interval the (worse) skew refires" true
    (match decide_simple p ~step:8 ~loads:[| 80.0; 10.0; 10.0 |] with
    | Policy.Rebalance _ -> true
    | Policy.No_action -> false);
  Alcotest.(check int) "two rebalances recorded" 2 (Policy.fired p);
  Alcotest.(check bool) "off mode never fires" true
    (decide_simple
       (Policy.create { Policy.default_config with Policy.threshold = 1.1 })
       ~step:1 ~loads:[| 99.0; 1.0 |]
    = Policy.No_action)

let test_policy_hysteresis_rearm () =
  let p =
    Policy.create
      {
        Policy.default_config with
        Policy.mode = Policy.Particles;
        threshold = 1.5;
        min_interval = 1;
        hysteresis = 2.0;
      }
  in
  Alcotest.(check bool) "first skew fires" true
    (match decide_simple p ~step:1 ~loads:[| 40.0; 10.0; 10.0 |] with
    | Policy.Rebalance _ -> true
    | _ -> false);
  (* an un-balanceable hot spot: same ratio persists; 2.0 is above the
     threshold but below threshold x hysteresis = 3.0 — disarmed *)
  Alcotest.(check bool) "persistent ratio under the hysteresis band holds" true
    (decide_simple p ~step:5 ~loads:[| 40.0; 10.0; 10.0 |] = Policy.No_action);
  (* with 3 ranks max/mean tops out at 3.0, exactly the re-arm band:
     a 4-rank straggler makes the ratio 3.88, clearly above it *)
  Alcotest.(check bool) "a much worse skew overrides the re-arm band" true
    (match decide_simple p ~step:9 ~loads:[| 100.0; 1.0; 1.0; 1.0 |] with
    | Policy.Rebalance _ -> true
    | _ -> false);
  (* dropping below the threshold re-arms the plain trigger *)
  ignore (decide_simple p ~step:12 ~loads:[| 10.0; 10.0; 10.0 |]);
  Alcotest.(check bool) "after re-arming, a plain threshold crossing fires again" true
    (match decide_simple p ~step:20 ~loads:[| 40.0; 10.0; 10.0 |] with
    | Policy.Rebalance _ -> true
    | _ -> false)

let test_policy_netmodel_gain_guard () =
  let cfg =
    {
      Policy.default_config with
      Policy.mode = Policy.Particles;
      threshold = 1.5;
      net = Some Opp_perf.Netmodel.slingshot_cpu;
      horizon = 50;
    }
  in
  let loads = [| 40_000.0; 10_000.0; 10_000.0 |] in
  (* zero straggler seconds per unit: the epoch can never pay off *)
  let p = Policy.create cfg in
  Alcotest.(check bool) "no modelled gain holds the epoch back" true
    (Policy.decide p ~step:1 ~loads ~move_bytes:1_000_000 ~work_per_unit:0.0 () = Policy.No_action);
  (* realistic per-particle cost: the saved straggler time dwarfs the wire cost *)
  let p = Policy.create cfg in
  Alcotest.(check bool) "positive predicted gain releases it" true
    (match Policy.decide p ~step:1 ~loads ~move_bytes:1_000_000 ~work_per_unit:1e-7 () with
    | Policy.Rebalance { predicted_gain; _ } -> predicted_gain > 0.0
    | Policy.No_action -> false)

(* --- end-to-end live migration epochs --- *)

let fempic_app () =
  Apps_dist.Fempic_dist.create ~prm:Experiments.Config.fempic_small_prm ~nranks:3
    ~partitioner:`Slab
    ~profile:(Opp_core.Profile.create ())
    (Experiments.Config.fempic_mesh ())

let test_fempic_rebalance_pure_ownership_change () =
  let app = fempic_app () in
  Apps_dist.Fempic_dist.run app ~steps:8;
  let before_hash = Apps_dist.Fempic_dist.state_hash app in
  let before_parts = Apps_dist.Fempic_dist.total_particles app in
  let w = Apps_dist.Fempic_dist.cell_particle_weights app in
  let moved = Apps_dist.Fempic_dist.rebalance app ~weight:(fun c -> w.(c)) in
  Alcotest.(check bool) "the skewed slab plan moves cells" true (moved > 0);
  Alcotest.(check int) "every particle survives the epoch" before_parts
    (Apps_dist.Fempic_dist.total_particles app);
  Alcotest.(check bool) "the state hash is bit-identical" true
    (Apps_dist.Fempic_dist.state_hash app = before_hash);
  Alcotest.(check bool) "the load ratio improved" true
    (1.0 +. Apps_dist.Fempic_dist.particle_imbalance app < 1.5);
  (* the rebalanced world keeps stepping *)
  ignore (Apps_dist.Fempic_dist.step app);
  Alcotest.(check bool) "particles keep flowing after the epoch" true
    (Apps_dist.Fempic_dist.total_particles app > 0);
  Apps_dist.Fempic_dist.shutdown app

(* The live rebalance bounds, on a long thin duct whose z slabs put the
   whole inlet on rank 0: after 12 steps on 4 ranks the particle load
   ratio is at least 2.0, and one epoch brings it to at most 1.25 while
   moving cells, keeping the state hash and every particle, and leaving
   a world that keeps stepping. *)
let test_fempic_rebalance_bounds () =
  let app =
    Apps_dist.Fempic_dist.create ~prm:Experiments.Config.fempic_small_prm ~nranks:4
      ~partitioner:`Slab
      ~profile:(Opp_core.Profile.create ())
      (Opp_mesh.Tet_mesh.build ~nx:2 ~ny:2 ~nz:8 ~lx:2e-5 ~ly:2e-5 ~lz:8e-5)
  in
  Apps_dist.Fempic_dist.run app ~steps:12;
  let before = 1.0 +. Apps_dist.Fempic_dist.particle_imbalance app in
  let hash = Apps_dist.Fempic_dist.state_hash app in
  let parts = Apps_dist.Fempic_dist.total_particles app in
  Alcotest.(check bool)
    (Printf.sprintf "seeded load ratio %.2f >= 2.0" before)
    true (before >= 2.0);
  let w = Apps_dist.Fempic_dist.cell_particle_weights app in
  let moved = Apps_dist.Fempic_dist.rebalance app ~weight:(fun c -> w.(c)) in
  let after = 1.0 +. Apps_dist.Fempic_dist.particle_imbalance app in
  Alcotest.(check bool) "the epoch moves cells" true (moved > 0);
  Alcotest.(check bool) (Printf.sprintf "load ratio after %.2f <= 1.25" after) true (after <= 1.25);
  Alcotest.(check int64) "the state hash is bit-identical" hash
    (Apps_dist.Fempic_dist.state_hash app);
  Alcotest.(check int) "every particle survives the epoch" parts
    (Apps_dist.Fempic_dist.total_particles app);
  ignore (Apps_dist.Fempic_dist.step app);
  Alcotest.(check int) "the rebalanced world keeps stepping" 13
    app.Apps_dist.Fempic_dist.step_count;
  Apps_dist.Fempic_dist.shutdown app

let test_cabana_rebalance_pure_ownership_change () =
  let app =
    Apps_dist.Cabana_dist.create
      ~prm:(Experiments.Config.cabana_prm ~ppc:16)
      ~nranks:3
      ~profile:(Opp_core.Profile.create ())
      ()
  in
  Apps_dist.Cabana_dist.run app ~steps:4;
  let before_hash = Apps_dist.Cabana_dist.state_hash app in
  let before_parts = Apps_dist.Cabana_dist.total_particles app in
  (* the two-stream load is uniform, so force movement with a synthetic
     skewed weight: the epoch must still be a pure ownership change *)
  let moved = Apps_dist.Cabana_dist.rebalance app ~weight:(fun c -> float_of_int (1 + c)) in
  Alcotest.(check bool) "the synthetic skew moves cells" true (moved > 0);
  Alcotest.(check int) "every particle survives the epoch" before_parts
    (Apps_dist.Cabana_dist.total_particles app);
  Alcotest.(check bool) "the state hash is bit-identical" true
    (Apps_dist.Cabana_dist.state_hash app = before_hash);
  ignore (Apps_dist.Cabana_dist.step app);
  Apps_dist.Cabana_dist.shutdown app

(* qcheck conservation oracle: whatever the history length and move
   bound, a live rebalance conserves the particle population and the
   partition-invariant hash *)
let prop_fempic_rebalance_conserves =
  QCheck.Test.make ~name:"fempic live rebalance conserves particles and the state hash"
    ~count:4
    QCheck.(pair (int_range 3 7) (int_range 1 10))
    (fun (steps, move_tenths) ->
      let app = fempic_app () in
      Apps_dist.Fempic_dist.run app ~steps;
      let h = Apps_dist.Fempic_dist.state_hash app in
      let n = Apps_dist.Fempic_dist.total_particles app in
      let w = Apps_dist.Fempic_dist.cell_particle_weights app in
      ignore
        (Apps_dist.Fempic_dist.rebalance app
           ~max_move_frac:(float_of_int move_tenths /. 10.0)
           ~weight:(fun c -> w.(c)));
      let ok =
        Apps_dist.Fempic_dist.total_particles app = n
        && Apps_dist.Fempic_dist.state_hash app = h
      in
      Apps_dist.Fempic_dist.shutdown app;
      ok)

(* --- the balancer glue + A009 --- *)

let test_dist_balance_fires_and_alerts () =
  let dir = Filename.temp_file "opp_balance_watch" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let app = fempic_app () in
      let config = { Opp_watch.Monitor.default_config with Opp_watch.Monitor.dir } in
      let mon = Opp_watch.Monitor.create ~config ~nranks:3 () in
      Apps_dist.Fempic_dist.set_watch app mon;
      Apps_dist.Fempic_dist.run app ~steps:8;
      let balancer =
        Apps_dist.Dist_balance.make
          ~config:
            {
              Policy.default_config with
              Policy.mode = Policy.Particles;
              threshold = 1.5;
              min_interval = 1;
            }
          ()
      in
      (match Apps_dist.Dist_balance.check balancer app ~step:8 with
      | Some ev ->
          Alcotest.(check bool) "the event carries the tripping ratio" true
            (ev.Apps_dist.Dist_balance.ev_imbalance > 1.5);
          Alcotest.(check bool) "the event improved the ratio" true
            (ev.Apps_dist.Dist_balance.ev_after < ev.Apps_dist.Dist_balance.ev_imbalance)
      | None -> Alcotest.fail "the skewed slab must trip the balancer");
      Alcotest.(check int) "A009 raised on the monitor" 1
        (Opp_watch.Monitor.alert_count mon "A009");
      (* balanced now: the next check is silent *)
      Alcotest.(check bool) "a balanced world stays silent" true
        (Apps_dist.Dist_balance.check balancer app ~step:20 = None);
      Alcotest.(check int) "no second alert" 1 (Opp_watch.Monitor.alert_count mon "A009");
      Opp_watch.Monitor.close mon;
      Apps_dist.Fempic_dist.shutdown app)

let test_balance_metrics () =
  Opp_obs.Metrics.enable ();
  Fun.protect ~finally:Opp_obs.Metrics.disable (fun () ->
      let v name = Option.value ~default:0.0 (Opp_obs.Metrics.value name) in
      let before = v "balance.rebalances" in
      Opp_balance.Balance.record_rebalance ~ms:3.5 ~moved_cells:17 ~before:2.4 ~after:1.1
        ~step:42;
      Alcotest.(check (float 0.0)) "rebalances counted" (before +. 1.0) (v "balance.rebalances");
      Alcotest.(check (float 0.0)) "epoch latency gauge" 3.5 (v "balance.ms");
      Alcotest.(check (float 0.0)) "moved cells gauge" 17.0 (v "balance.moved_cells");
      Alcotest.(check (float 0.0)) "before/after ratios" 2.4 (v "balance.imbalance_before");
      Alcotest.(check (float 0.0)) "after ratio" 1.1 (v "balance.imbalance_after"))

let suite =
  [
    Alcotest.test_case "partition: imbalance edge cases (empty, 1 rank, nranks>ncells)" `Quick
      test_imbalance_edge_cases;
    Alcotest.test_case "partition: rank_counts validates owner range" `Quick
      test_rank_counts_rejects_out_of_range;
    Alcotest.test_case "rebalance: weighted diffusion reduces skew, input untouched" `Quick
      test_rebalance_reduces_skew;
    Alcotest.test_case "rebalance: empty world and single rank are no-ops" `Quick
      test_rebalance_noop_cases;
    QCheck_alcotest.to_alcotest prop_rebalance_invariants;
    Alcotest.test_case "policy: threshold and min-interval guards" `Quick
      test_policy_threshold_and_interval;
    Alcotest.test_case "policy: hysteresis re-arm band" `Quick test_policy_hysteresis_rearm;
    Alcotest.test_case "policy: netmodel predicted-gain guard" `Quick
      test_policy_netmodel_gain_guard;
    Alcotest.test_case "fempic: live rebalance is a pure ownership change" `Quick
      test_fempic_rebalance_pure_ownership_change;
    Alcotest.test_case "cabana: live rebalance is a pure ownership change" `Quick
      test_cabana_rebalance_pure_ownership_change;
    QCheck_alcotest.to_alcotest prop_fempic_rebalance_conserves;
    Alcotest.test_case "balancer: decision glue fires once and raises A009" `Quick
      test_dist_balance_fires_and_alerts;
    Alcotest.test_case "fempic: 4 slab ranks seeded >= 2.0 rebalance to <= 1.25" `Quick
      test_fempic_rebalance_bounds;
    Alcotest.test_case "balance metrics: epoch accounting" `Quick test_balance_metrics;
  ]
