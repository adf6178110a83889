(** Figure 9: single node/device runtime breakdowns.

    Both mini-apps are replayed through the SIMT cost model for each
    device of the paper's Figure 9 (two CPU nodes, V100, H100, MI210,
    MI250X GCD), producing the per-kernel time columns. The expected
    shapes: Move (or Move_Deposit) dominates everywhere; on AMD GPUs
    DepositCharge rivals or beats Move because even UA/SR atomics pay
    for contention; NVIDIA atomics keep DepositCharge cheap. *)

open Opp_core

let devices =
  [
    (Opp_perf.Device.xeon_8268_node, Opp_gpu.Gpu_runner.AT);
    (Opp_perf.Device.epyc_7742_node, Opp_gpu.Gpu_runner.AT);
    (Opp_perf.Device.v100, Opp_gpu.Gpu_runner.AT);
    (Opp_perf.Device.h100, Opp_gpu.Gpu_runner.AT);
    (Opp_perf.Device.mi210, Opp_gpu.Gpu_runner.UA);
    (Opp_perf.Device.mi250x_gcd, Opp_gpu.Gpu_runner.UA);
  ]

(* Modelled cost of the field solve on [device]: the CG iterations
   stream the stiffness matrix (12 bytes/nnz) and half a dozen node
   vectors per iteration. *)
let model_field_solve ~device ~nnz ~nnodes ~cg_iterations =
  let bytes_per_iter = float_of_int ((nnz * 12) + (6 * nnodes * 8)) in
  Opp_perf.Device.kernel_time device ~bytes:(float_of_int cg_iterations *. bytes_per_iter)
    ~flops:(float_of_int cg_iterations *. float_of_int (2 * nnz))

(** Mini-FEM-PIC breakdown ledger for one device. *)
let fempic_on (device, mode) =
  let model = Profile.create () in
  let host = Profile.create () in
  let gpu =
    Opp_gpu.Gpu_runner.create ~profile:model ~mode ~work_scale:Config.fempic_work_scale device
  in
  let sim =
    Fempic.Fempic_sim.create ~prm:Config.fempic_prm ~runner:(Opp_gpu.Gpu_runner.runner gpu)
      ~profile:host ~use_direct_hop:true (Config.fempic_mesh ())
  in
  ignore (Fempic.Fempic_sim.prefill sim);
  let cg_total = ref 0 in
  for _ = 1 to Config.fempic_steps do
    (* the paper keeps GPU particles locality-ordered (auxiliary sort
       API + periodic shuffling): warp lanes walk similar paths, so
       divergence stays low — at the price of deposit contention *)
    if Opp_perf.Device.is_gpu device then
      Opp.sort_by_cell sim.Fempic.Fempic_sim.parts ~p2c:sim.Fempic.Fempic_sim.p2c;
    ignore (Fempic.Fempic_sim.step sim);
    match sim.Fempic.Fempic_sim.last_solver_stats with
    | Some st -> cg_total := !cg_total + st.Fempic.Field_solver.cg_iterations
    | None -> ()
  done;
  let solver = Option.get sim.Fempic.Fempic_sim.solver in
  let solve_seconds =
    Config.fempic_work_scale
    *. model_field_solve ~device
         ~nnz:(Fempic.Field_solver.stiffness_nnz solver)
         ~nnodes:(Fempic.Field_solver.node_count solver)
         ~cg_iterations:!cg_total
  in
  Profile.record ~t:model ~name:"Solve" ~elems:0 ~seconds:solve_seconds ~flops:0.0 ~bytes:0.0
    ();
  model

(** CabanaPIC breakdown ledger for one device and particle regime. *)
let cabana_on ~ppc (device, mode) =
  let model = Profile.create () in
  let host = Profile.create () in
  let gpu =
    Opp_gpu.Gpu_runner.create ~profile:model ~mode ~work_scale:Config.cabana_work_scale device
  in
  let sim =
    Cabana.Cabana_sim.create ~prm:(Config.cabana_prm ~ppc)
      ~runner:(Opp_gpu.Gpu_runner.runner gpu) ~profile:host ()
  in
  Cabana.Cabana_sim.run sim ~steps:Config.cabana_steps;
  model

let run_fempic fmt =
  Format.fprintf fmt
    "Figure 9(a): Mini-FEM-PIC runtime breakdown (modelled at %gx scale: 48k cells, ~70M particles equivalent; %d steps, direct-hop)@.@."
    Config.fempic_work_scale Config.fempic_steps;
  let columns =
    List.map (fun (d, m) -> ((d : Opp_perf.Device.t).Opp_perf.Device.short, fempic_on (d, m))) devices
  in
  Opp_perf.Report.pp_breakdown fmt columns

let run_cabana fmt =
  List.iter
    (fun ppc ->
      let prm = Config.cabana_prm ~ppc in
      Format.fprintf fmt
        "@.Figure 9(b): CabanaPIC runtime breakdown (%d ppc; modelled at %gx scale: 96k cells, %.0fM particles equivalent; %d steps)@.@."
        ppc Config.cabana_work_scale
        (float_of_int (Cabana.Cabana_params.nparticles prm) *. Config.cabana_work_scale /. 1e6)
        Config.cabana_steps;
      let columns =
        List.map
          (fun (d, m) -> ((d : Opp_perf.Device.t).Opp_perf.Device.short, cabana_on ~ppc (d, m)))
          devices
      in
      Opp_perf.Report.pp_breakdown fmt columns)
    [ Config.cabana_ppc_low; Config.cabana_ppc_mid ]
