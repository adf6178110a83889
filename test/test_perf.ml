(* Tests for the performance-model layer: device table, interconnect
   model, roofline classification, report rendering, the experiment
   registry, and the workload projections behind the scaling figures. *)

let check_float = Alcotest.(check (float 1e-12))

(* --- devices --- *)

let test_device_kernel_time () =
  let d = Opp_perf.Device.v100 in
  (* bandwidth-bound: 9 GB at 900 GB/s = 10 ms + launch *)
  Alcotest.(check (float 1e-9)) "bandwidth bound"
    (0.01 +. d.Opp_perf.Device.launch_overhead)
    (Opp_perf.Device.kernel_time d ~bytes:9e9 ~flops:1e6);
  (* compute-bound: 7.8e12 flop/s peak -> 1 s of flops dominates *)
  Alcotest.(check (float 1e-6)) "compute bound"
    (1.0 +. d.Opp_perf.Device.launch_overhead)
    (Opp_perf.Device.kernel_time d ~bytes:1e3 ~flops:7.8e12)

let test_device_table_sanity () =
  List.iter
    (fun (d : Opp_perf.Device.t) ->
      Alcotest.(check bool) (d.Opp_perf.Device.name ^ " bw") true (d.Opp_perf.Device.mem_bw > 1e11);
      Alcotest.(check bool) "peak" true (d.Opp_perf.Device.peak_fp64 > 1e12);
      Alcotest.(check bool) "power" true (d.Opp_perf.Device.power > 100.0);
      Alcotest.(check bool) "warp" true (Opp_perf.Device.warp_size d >= 1))
    Opp_perf.Device.all;
  (* the paper's AMD atomic pathology is encoded *)
  Alcotest.(check bool) "AMD AT >> UA" true
    (Opp_perf.Device.mi250x_gcd.Opp_perf.Device.at_conflict
    > 100.0 *. Opp_perf.Device.mi250x_gcd.Opp_perf.Device.ua_conflict);
  Alcotest.(check bool) "NVIDIA AT fine" true
    (Opp_perf.Device.v100.Opp_perf.Device.at_conflict
    < 10.0 *. Opp_perf.Device.v100.Opp_perf.Device.atomic_base)

(* one lookup for --backend and oppic_prof --device: short names in any
   case plus the CPU aliases; the backend names are the GPUs *)
let test_device_of_name () =
  let name = function Some (d : Opp_perf.Device.t) -> d.Opp_perf.Device.short | None -> "-" in
  List.iter
    (fun (q, want) -> Alcotest.(check string) q want (name (Opp_perf.Device.of_name q)))
    [
      ("v100", "V100"); ("H100", "H100"); ("mi210", "MI210"); ("mi250x", "MI250X");
      ("xeon", "8268"); ("EPYC", "7742"); ("7742", "7742"); ("seq", "-"); ("", "-");
    ];
  Alcotest.(check bool) "every GPU is reachable by its lowercase name" true
    (List.for_all
       (fun (d : Opp_perf.Device.t) ->
         (not (Opp_perf.Device.is_gpu d))
         || Opp_perf.Device.of_name (String.lowercase_ascii d.Opp_perf.Device.short) = Some d)
       Opp_perf.Device.all)

(* --- interconnect --- *)

let test_netmodel () =
  let net = Opp_perf.Netmodel.infiniband in
  check_float "message = latency + size/bw"
    (net.Opp_perf.Netmodel.latency +. (1e6 /. net.Opp_perf.Netmodel.bandwidth))
    (Opp_perf.Netmodel.message_time net ~bytes:1_000_000);
  check_float "allreduce trivial at 1 rank" 0.0
    (Opp_perf.Netmodel.allreduce_time net ~ranks:1 ~bytes:8);
  (* log2 scaling: 8 ranks -> 3 rounds, 1024 -> 10 rounds *)
  let t8 = Opp_perf.Netmodel.allreduce_time net ~ranks:8 ~bytes:8 in
  let t1024 = Opp_perf.Netmodel.allreduce_time net ~ranks:1024 ~bytes:8 in
  Alcotest.(check (float 1e-12)) "log scaling" (10.0 /. 3.0) (t1024 /. t8);
  Alcotest.(check bool) "p2p includes per-message latency" true
    (Opp_perf.Netmodel.p2p_time net ~messages:100 ~bytes:0
    > 99.0 *. net.Opp_perf.Netmodel.latency)

(* --- roofline --- *)

let test_roofline_attainable () =
  let d = Opp_perf.Device.xeon_8268_node in
  (* below the ridge: bandwidth-limited *)
  check_float "bw-limited" (0.1 *. d.Opp_perf.Device.mem_bw)
    (Opp_perf.Roofline.attainable d ~ai:0.1);
  (* above the ridge: peak-limited *)
  check_float "peak-limited" d.Opp_perf.Device.peak_fp64
    (Opp_perf.Roofline.attainable d ~ai:1e6)

let test_roofline_classification () =
  let d = Opp_perf.Device.v100 in
  let profile = Opp_core.Profile.create () in
  (* a kernel running at its bandwidth roof *)
  Opp_core.Profile.record ~t:profile ~name:"at_roof" ~elems:1
    ~seconds:(1e9 /. d.Opp_perf.Device.mem_bw) ~flops:1e8 ~bytes:1e9 ();
  (* a kernel 50x below its roof: latency/serialization *)
  Opp_core.Profile.record ~t:profile ~name:"stalled" ~elems:1
    ~seconds:(50.0 *. 1e9 /. d.Opp_perf.Device.mem_bw) ~flops:1e8 ~bytes:1e9 ();
  match Opp_perf.Roofline.points d ~t:profile () with
  | [ a; b ] ->
      Alcotest.(check string) "order" "at_roof" a.Opp_perf.Roofline.kernel;
      Alcotest.(check bool) "at roof is DRAM bound" true
        (a.Opp_perf.Roofline.bound = Opp_perf.Roofline.Dram_bound);
      Alcotest.(check (float 0.01)) "fraction ~1" 1.0 a.Opp_perf.Roofline.fraction_of_roof;
      Alcotest.(check bool) "stalled is latency bound" true
        (b.Opp_perf.Roofline.bound = Opp_perf.Roofline.Latency_bound)
  | _ -> Alcotest.fail "expected two roofline points"

let test_roofline_skips_pure_movers () =
  let profile = Opp_core.Profile.create () in
  Opp_core.Profile.record ~t:profile ~name:"memcpyish" ~elems:1 ~seconds:0.1 ~flops:0.0
    ~bytes:1e9 ();
  Alcotest.(check int) "no flops, no point" 0
    (List.length (Opp_perf.Roofline.points Opp_perf.Device.v100 ~t:profile ()))

(* --- reports render --- *)

let render f =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let contains hay needle =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re hay 0);
    true
  with Not_found -> false

let test_report_breakdown () =
  let p1 = Opp_core.Profile.create () and p2 = Opp_core.Profile.create () in
  Opp_core.Profile.record ~t:p1 ~name:"Move" ~elems:10 ~seconds:0.5 ~flops:0.0 ~bytes:0.0 ();
  Opp_core.Profile.record ~t:p2 ~name:"Move" ~elems:10 ~seconds:0.25 ~flops:0.0 ~bytes:0.0 ();
  let out = render (fun fmt -> Opp_perf.Report.pp_breakdown fmt [ ("A", p1); ("B", p2) ]) in
  Alcotest.(check bool) "has kernel row" true (contains out "Move");
  Alcotest.(check bool) "has first column" true (contains out "500.000");
  Alcotest.(check bool) "has second column" true (contains out "250.000");
  Alcotest.(check bool) "has total row" true (contains out "TOTAL")

let test_report_power () =
  let out =
    render (fun fmt ->
        Opp_perf.Report.pp_power_equivalent fmt ~title:"t"
          [ ("base", 18, 12000.0, 2.0); ("gpu", 32, 12000.0, 1.0) ])
  in
  Alcotest.(check bool) "baseline 1x" true (contains out "1.00x");
  Alcotest.(check bool) "speedup 2x" true (contains out "2.00x")

let test_report_utilization () =
  let out =
    render (fun fmt -> Opp_perf.Report.pp_utilization fmt [ ("cfg", 4, 0.9, 0.1) ])
  in
  Alcotest.(check bool) "90%" true (contains out "90%")

(* --- experiments registry and workload model --- *)

let test_registry_complete () =
  (* every table and figure of the paper's evaluation has an entry *)
  List.iter
    (fun id ->
      Alcotest.(check bool) ("registry has " ^ id) true
        (Experiments.Registry.find id <> None))
    [ "tab1"; "tab2"; "fig9a"; "fig9b"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "fig15"; "validate" ];
  let ids = List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_systems_power () =
  check_float "18 ARCHER2 nodes" (18.0 *. 660.0)
    (Experiments.Systems.power Experiments.Systems.archer2 ~devices:18);
  (* 32 V100 = 8 Bede nodes at 1500 W *)
  check_float "32 V100" (8.0 *. 1500.0)
    (Experiments.Systems.power Experiments.Systems.bede ~devices:32);
  (* the paper's three ~12 kW configurations really are comparable *)
  let kw sys n = Experiments.Systems.power sys ~devices:n /. 1e3 in
  Alcotest.(check bool) "~12kW each" true
    (Float.abs (kw Experiments.Systems.archer2 18 -. 12.0) < 0.5
    && Float.abs (kw Experiments.Systems.bede 32 -. 12.0) < 0.5
    && Float.abs (kw Experiments.Systems.lumi_g 40 -. 12.0) < 0.5)

let test_workload_comm_model () =
  let tr = Opp_dist.Traffic.create () in
  tr.Opp_dist.Traffic.halo_bytes <- 8000.0;
  tr.Opp_dist.Traffic.halo_messages <- 40;
  tr.Opp_dist.Traffic.reductions <- 20;
  let c = Experiments.Workload.comm_of_traffic tr ~ranks:4 ~steps:5 in
  check_float "per rank per step bytes" 400.0 c.Experiments.Workload.halo_bytes;
  check_float "per rank per step msgs" 2.0 c.Experiments.Workload.halo_messages;
  (* reductions are collective: per step, not per rank *)
  check_float "reductions per step" 4.0 c.Experiments.Workload.reductions;
  let net = Opp_perf.Netmodel.infiniband in
  check_float "no comm on one rank" 0.0 (Experiments.Workload.comm_time c net ~ranks:1);
  Alcotest.(check bool) "comm grows with ranks" true
    (Experiments.Workload.comm_time c net ~ranks:64
    > Experiments.Workload.comm_time c net ~ranks:2);
  check_float "no sync on one rank" 0.0
    (Experiments.Workload.sync_time c ~compute:1.0 ~ranks:1)

let test_registry_tab2_renders () =
  (* the cheapest registry entry end to end: the systems table *)
  match Experiments.Registry.find "tab2" with
  | None -> Alcotest.fail "tab2 missing"
  | Some e ->
      let out = render (fun fmt -> Experiments.Registry.run_one fmt e) in
      List.iter
        (fun needle -> Alcotest.(check bool) ("mentions " ^ needle) true (contains out needle))
        [ "Intel Xeon 8268"; "AMD EPYC 7742"; "V100"; "MI250X"; "GB/s" ]

let test_traffic_accounting () =
  let tr = Opp_dist.Traffic.create () in
  tr.Opp_dist.Traffic.halo_bytes <- 100.0;
  tr.Opp_dist.Traffic.migrate_bytes <- 50.0;
  tr.Opp_dist.Traffic.solve_bytes <- 25.0;
  tr.Opp_dist.Traffic.halo_messages <- 3;
  tr.Opp_dist.Traffic.migrate_messages <- 2;
  check_float "total bytes" 175.0 (Opp_dist.Traffic.total_bytes tr);
  Alcotest.(check int) "total messages" 5 (Opp_dist.Traffic.total_messages tr);
  Opp_dist.Traffic.reset tr;
  check_float "reset" 0.0 (Opp_dist.Traffic.total_bytes tr)

let suite =
  [
    Alcotest.test_case "device: kernel time" `Quick test_device_kernel_time;
    Alcotest.test_case "device: table sanity" `Quick test_device_table_sanity;
    Alcotest.test_case "device: lookup by name" `Quick test_device_of_name;
    Alcotest.test_case "netmodel" `Quick test_netmodel;
    Alcotest.test_case "roofline: attainable" `Quick test_roofline_attainable;
    Alcotest.test_case "roofline: classification" `Quick test_roofline_classification;
    Alcotest.test_case "roofline: skips pure movers" `Quick test_roofline_skips_pure_movers;
    Alcotest.test_case "report: breakdown" `Quick test_report_breakdown;
    Alcotest.test_case "report: power" `Quick test_report_power;
    Alcotest.test_case "report: utilization" `Quick test_report_utilization;
    Alcotest.test_case "experiments: registry complete" `Quick test_registry_complete;
    Alcotest.test_case "experiments: system power" `Quick test_systems_power;
    Alcotest.test_case "experiments: workload comm model" `Quick test_workload_comm_model;
    Alcotest.test_case "traffic accounting" `Quick test_traffic_accounting;
    Alcotest.test_case "registry: tab2 renders" `Quick test_registry_tab2_renders;
  ]
