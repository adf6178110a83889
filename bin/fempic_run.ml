(* Mini-FEM-PIC driver.

   Examples:
     dune exec bin/fempic_run.exe -- --steps 100
     dune exec bin/fempic_run.exe -- --nx 6 --ny 6 --nz 12 --particles 50000 --direct-hop
     dune exec bin/fempic_run.exe -- --backend omp --workers 4
     dune exec bin/fempic_run.exe -- --backend mpi --ranks 4
     dune exec bin/fempic_run.exe -- --backend v100 --steps 20   (modelled GPU)
     dune exec bin/fempic_run.exe -- --write-mesh duct.dat *)

open Cmdliner
module Fsim = Fempic.Fempic_sim
module Fdist = Apps_dist.Fempic_dist

(* The mpi backend: the rank-partitioned duct. *)
let dist_app (env : Driver.env) ~prm ~partitioner ~direct_hop mesh =
  let f = env.Driver.flags in
  let partitioner =
    match partitioner with
    | "columns" -> `Columns
    | "slab" -> `Slab
    | "rcb" -> `Rcb
    | s -> Driver.fail "unknown --partitioner '%s' (columns|slab|rcb)" s
  in
  {
    Driver.make =
      (fun () ->
        let d =
          Fdist.create ~prm ~nranks:f.Driver.ranks ~partitioner ~use_direct_hop:direct_hop
            ?workers:(Driver.hybrid_workers f) ~checked:f.Driver.check ?locality:f.Driver.locality
            ~profile:env.Driver.profile mesh
        in
        Option.iter (Fdist.set_watch d) env.Driver.monitor;
        d);
    destroy = Fdist.shutdown;
    step_count = (fun d -> d.Fdist.step_count);
    step = (fun d -> ignore (Fdist.step d));
    save = (fun d ~dir -> Fdist.save_checkpoint d ~dir);
    restore = Fdist.restore_checkpoint;
    poison = Fdist.poison;
    progress =
      (fun d s ->
        if !Opp_obs.Metrics.enabled then Opp_obs.Metrics.tick ~step:s;
        if s mod 10 = 0 || s = f.Driver.steps then
          Printf.printf "step %4d: particles=%d migrated=%d\n%!" s (Fdist.total_particles d)
            d.Fdist.last_migrated);
    canary = None;
    summary = (fun d -> Driver.dist_summary d.Fdist.traffic);
  }

(* Every other backend: one sim on the chosen runner, with optional
   Monte-Carlo collisions against a neutral background. *)
let single_app (env : Driver.env) runner sched ~prm ~direct_hop ~prefill ~neutral_density mesh =
  let f = env.Driver.flags in
  let mcc = ref None in
  {
    Driver.make =
      (fun () ->
        let sim =
          Fsim.create ~prm ~runner ~profile:env.Driver.profile ?locality:sched
            ~use_direct_hop:direct_hop mesh
        in
        if prefill then Printf.printf "prefilled %d particles\n%!" (Fsim.prefill sim);
        if neutral_density > 0.0 then
          mcc :=
            Some
              (Fempic.Collisions.create ~neutral_density ~dt:prm.Fempic.Params.dt
                 ~parts:sim.Fsim.parts ~part_vel:sim.Fsim.part_vel
                 ~seed:(prm.Fempic.Params.seed + 1) ());
        sim);
    destroy = ignore;
    step_count = (fun sim -> sim.Fsim.step_count);
    step =
      (fun sim ->
        ignore (Fsim.step sim);
        Option.iter (fun m -> ignore (Fempic.Collisions.apply ~runner m)) !mcc);
    save = (fun sim ~dir -> Fdist.save_sim sim ~dir);
    restore = Fdist.restore_sim;
    (* the potential seeds the in-place Newton solve, so the NaN
       survives into the scattered field *)
    poison = (fun sim -> sim.Fsim.node_phi.Opp_core.Types.d_data.(0) <- Float.nan);
    progress =
      (fun sim s ->
        let d = lazy (Fsim.diagnostics sim) in
        if !Opp_obs.Metrics.enabled then begin
          let d = Lazy.force d in
          Opp_obs.Metrics.set "particles" (float_of_int d.Fsim.particles);
          Opp_obs.Metrics.set "phi.min" d.Fsim.min_potential;
          Opp_obs.Metrics.set "phi.max" d.Fsim.max_potential;
          Opp_obs.Metrics.set "ef.mean" d.Fsim.mean_ef_magnitude;
          Opp_obs.Metrics.tick ~step:s
        end;
        if s mod 10 = 0 || s = f.Driver.steps then begin
          let d = Lazy.force d in
          Printf.printf "step %4d: particles=%7d phi=[%.3f, %.3f] |E|=%.3e\n%!" s d.Fsim.particles
            d.Fsim.min_potential d.Fsim.max_potential d.Fsim.mean_ef_magnitude
        end);
    canary = Some (fun sim -> (sim.Fsim.parts, Fdist.canary sim));
    summary =
      (fun _ ->
        Option.iter
          (fun m ->
            Printf.printf "collisions: %d charge-exchange, %d elastic\n%!"
              m.Fempic.Collisions.cx_count m.Fempic.Collisions.elastic_count)
          !mcc);
  }

let run flags nx ny nz lx ly lz particles partitioner direct_hop prefill seed write_mesh
    neutral_density =
  Driver.setup flags;
  let mesh = Opp_mesh.Tet_mesh.build ~nx ~ny ~nz ~lx ~ly ~lz in
  (match write_mesh with
  | Some path ->
      Opp_mesh.Mesh_io.write_tet mesh path;
      Printf.printf "mesh written to %s\n%!" path
  | None -> ());
  let prm =
    { Fempic.Params.default with Fempic.Params.target_particles = float_of_int particles; seed }
  in
  Printf.printf "Mini-FEM-PIC: %d cells, %d nodes, %d inlet faces, backend=%s\n%!"
    mesh.Opp_mesh.Tet_mesh.ncells mesh.Opp_mesh.Tet_mesh.nnodes
    (Array.length mesh.Opp_mesh.Tet_mesh.inlet_faces)
    flags.Driver.backend;
  Driver.run flags ~name:"fempic"
    ~scoped:
      [
        ("collisions", neutral_density > 0.0, Driver.Single_rank);
        ("prefill", prefill, Driver.Single_rank);
      ]
    ~dist:(fun env -> dist_app env ~prm ~partitioner ~direct_hop mesh)
    ~heal:Apps_dist.Dist_heal.fempic ~balance:Apps_dist.Dist_balance.fempic
    ~single:(fun env runner sched ->
      single_app env runner sched ~prm ~direct_hop ~prefill ~neutral_density mesh)

let cmd =
  let nx = Arg.(value & opt int 4 & info [ "nx" ] ~doc:"duct hexes in x") in
  let ny = Arg.(value & opt int 4 & info [ "ny" ] ~doc:"duct hexes in y") in
  let nz = Arg.(value & opt int 8 & info [ "nz" ] ~doc:"duct hexes in z (flow axis)") in
  let lx = Arg.(value & opt float 4e-5 & info [ "lx" ] ~doc:"duct width (m)") in
  let ly = Arg.(value & opt float 4e-5 & info [ "ly" ] ~doc:"duct height (m)") in
  let lz = Arg.(value & opt float 8e-5 & info [ "lz" ] ~doc:"duct length (m)") in
  let particles =
    Arg.(value & opt int 20_000 & info [ "particles" ] ~doc:"steady-state macro-particle target")
  in
  let partitioner =
    Arg.(
      value & opt string "columns"
      & info [ "partitioner" ] ~docv:"SCHEME"
          ~doc:
            "mpi backend: initial mesh partitioner — $(b,columns) (balanced, flow-aligned), \
             $(b,slab) (z slabs; skews under inlet injection, useful with $(b,--balance)), \
             or $(b,rcb) (recursive coordinate bisection)")
  in
  let direct_hop = Arg.(value & flag & info [ "direct-hop" ] ~doc:"use the direct-hop mover") in
  let prefill = Arg.(value & flag & info [ "prefill" ] ~doc:"start from the steady-state fill") in
  let seed = Arg.(value & opt int 1234 & info [ "seed" ] ~doc:"RNG seed") in
  let write_mesh =
    Arg.(value & opt (some string) None & info [ "write-mesh" ] ~doc:"dump the mesh as ASCII .dat")
  in
  let neutral_density =
    Arg.(
      value & opt float 0.0
      & info [ "collisions" ]
          ~doc:"neutral background density (m^-3) for Monte-Carlo collisions; 0 disables")
  in
  Cmd.v
    (Cmd.info "fempic_run" ~doc:"Mini-FEM-PIC: electrostatic unstructured-mesh PIC in OP-PIC")
    Term.(
      const run $ Driver.flags ~steps:50 $ nx $ ny $ nz $ lx $ ly $ lz $ particles $ partitioner
      $ direct_hop $ prefill $ seed $ write_mesh $ neutral_density)

let () = Driver.main cmd
