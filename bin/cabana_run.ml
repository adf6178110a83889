(* CabanaPIC driver (electromagnetic two-stream).

   Examples:
     dune exec bin/cabana_run.exe -- --steps 200
     dune exec bin/cabana_run.exe -- --nz 64 --ppc 128 --steps 500
     dune exec bin/cabana_run.exe -- --backend mpi --ranks 4
     dune exec bin/cabana_run.exe -- --validate    (against the structured original) *)

open Cmdliner
module Csim = Cabana.Cabana_sim
module Cdist = Apps_dist.Cabana_dist

(* Per-step energy gauges (energies are three par_loops, so callers
   only compute them when metrics are on). *)
let energy_gauges (e : Csim.energies) nparticles =
  Opp_obs.Metrics.set "energy.e" e.Csim.e_field;
  Opp_obs.Metrics.set "energy.b" e.Csim.b_field;
  Opp_obs.Metrics.set "energy.k" e.Csim.kinetic;
  Opp_obs.Metrics.set "particles" (float_of_int nparticles)

(* --validate: step the DSL sim beside the structured-mesh original
   and report the largest electric-field energy difference. *)
let compare_with_reference ~prm ~steps ~report_every =
  let dsl = Csim.create ~prm ~profile:(Opp_core.Profile.create ()) () in
  let reference = Cabana_ref.create ~prm () in
  let max_diff = ref 0.0 in
  for s = 1 to steps do
    Csim.step dsl;
    Cabana_ref.step reference;
    let a = (Csim.energies dsl).Csim.e_field in
    let b = (Cabana_ref.energies reference).Cabana_ref.e_field in
    max_diff := Float.max !max_diff (Float.abs (a -. b));
    if s mod report_every = 0 then
      Printf.printf "step %4d: E=%.6e |dsl-ref|=%.3e\n%!" s a (Float.abs (a -. b))
  done;
  Printf.printf "max |E energy difference| over %d steps: %.3e\n%!" steps !max_diff

let run flags nx ny nz ppc v0 seed validate =
  Driver.setup flags;
  let prm = { Cabana.Cabana_params.default with Cabana.Cabana_params.nx; ny; nz; ppc; v0; seed } in
  Printf.printf "CabanaPIC: %d cells, %d particles, dt=%.4f, backend=%s\n%!"
    (Cabana.Cabana_params.ncells prm)
    (Cabana.Cabana_params.nparticles prm)
    (Cabana.Cabana_params.dt prm) flags.Driver.backend;
  let report_every = max 1 (flags.Driver.steps / 10) in
  if validate then begin
    compare_with_reference ~prm ~steps:flags.Driver.steps ~report_every;
    Driver.obs_finish flags
  end
  else
    Driver.run flags ~name:"cabana"
      ~create:(fun ~profile ~device ~workers ~nranks ->
        Cdist.create ~prm ~nranks ?workers ?device ~checked:flags.Driver.check
          ?locality:flags.Driver.locality ~profile ())
      ~gauges:(fun d -> energy_gauges (Cdist.energies d) (Cdist.total_particles d))
      ~line:(fun d s ->
        if s mod report_every = 0 then begin
          let e = Cdist.energies d in
          Printf.printf "step %4d: E=%.6e B=%.6e K=%.6e migrated=%d\n%!" s e.Csim.e_field
            e.Csim.b_field e.Csim.kinetic d.Cdist.last_migrated
        end)
      ~summary:ignore

let cmd =
  let nx = Arg.(value & opt int 4 & info [ "nx" ] ~doc:"cells in x") in
  let ny = Arg.(value & opt int 4 & info [ "ny" ] ~doc:"cells in y") in
  let nz = Arg.(value & opt int 32 & info [ "nz" ] ~doc:"cells in z (stream axis)") in
  let ppc = Arg.(value & opt int 32 & info [ "ppc" ] ~doc:"particles per cell") in
  let v0 = Arg.(value & opt float 0.2 & info [ "v0" ] ~doc:"stream speed (fraction of c)") in
  let seed = Arg.(value & opt int 99 & info [ "seed" ] ~doc:"RNG seed") in
  let validate =
    Arg.(value & flag & info [ "validate" ] ~doc:"compare against the structured-mesh original")
  in
  Cmd.v
    (Cmd.info "cabana_run" ~doc:"CabanaPIC: electromagnetic two-stream PIC in OP-PIC")
    Term.(const run $ Driver.flags ~steps:100 $ nx $ ny $ nz $ ppc $ v0 $ seed $ validate)

let () = Driver.main cmd
