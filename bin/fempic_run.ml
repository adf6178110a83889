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
  let partitioner =
    match partitioner with
    | "columns" -> `Columns
    | "slab" -> `Slab
    | "rcb" -> `Rcb
    | s -> Driver.fail "unknown --partitioner '%s' (columns|slab|rcb)" s
  in
  Driver.run flags ~name:"fempic"
    ~create:(fun ~profile ~device ~workers ~nranks ->
      let d =
        Fdist.create ~prm ~nranks ~partitioner ~use_direct_hop:direct_hop ?workers ?device
          ~checked:flags.Driver.check ?locality:flags.Driver.locality ~profile ~prefill
          ~neutral_density mesh
      in
      if prefill then Printf.printf "prefilled %d particles\n%!" (Fdist.total_particles d);
      d)
    ~gauges:ignore
    ~line:(fun d s ->
      if s mod 10 = 0 || s = flags.Driver.steps then
        Printf.printf "step %4d: particles=%d migrated=%d\n%!" s (Fdist.total_particles d)
          d.Fdist.last_migrated)
    ~summary:(fun d ->
      if neutral_density > 0.0 then begin
        let count f =
          Array.fold_left
            (fun acc sim -> acc + Option.fold ~none:0 ~some:f sim.Fsim.collisions)
            0 d.Fdist.sims
        in
        Printf.printf "collisions: %d charge-exchange, %d elastic\n%!"
          (count (fun m -> m.Fempic.Collisions.cx_count))
          (count (fun m -> m.Fempic.Collisions.elastic_count))
      end)

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
            "initial mesh partitioner over the ranks — $(b,columns) (balanced, flow-aligned), \
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
