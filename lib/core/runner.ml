(** Backend dispatch.

    An application declares its solver once against this interface; a
    runner binds the loops to a parallelization (sequential reference,
    Domains threads, simulated SIMT device, simulated MPI rank), which
    is the paper's separation of science source from parallel
    implementation. *)

type t = {
  r_name : string;
  r_par_loop :
    string (* kernel name *) ->
    float (* flops per element *) ->
    Seq.kernel ->
    Types.set ->
    Seq.iterate ->
    Arg.t list ->
    unit;
  r_particle_move :
    string ->
    float ->
    (int -> int) option (* direct-hop locator *) ->
    Seq.move_kernel ->
    Types.set ->
    Types.map (* p2c *) ->
    Arg.t list ->
    Seq.move_result;
  r_profile : Profile.t;
  r_around : 'a. string -> Seq.iterate -> Arg.t list -> (unit -> 'a) -> 'a;
}

let direct _ _ _ launch = launch ()

(* Observability wiring lives at this dispatch point so every backend
   (sequential, Domains, simulated SIMT, the simulated-MPI rank loops)
   is measured the same way: one pair of monotonic clock reads per
   launch ({!Profile.measure}) becomes the runner's ledger entry and,
   when tracing is on, the launch's span. The engines never read the
   clock. *)

(* --- step boundaries (opp_watch) ---

   A PIC run is a sequence of steps, but the runner only sees loop
   launches. The step structure is announced from outside: every sim
   step function (and the distributed drivers) calls {!step_end} when
   a step completes, and subscribers — the live health monitor first
   of all — hook in with {!on_step_end}. *)

let step_hooks : (step:int -> unit) list ref = ref []
let on_step_end f = step_hooks := f :: !step_hooks
let clear_step_hooks () = step_hooks := []
let step_end ~step = List.iter (fun f -> f ~step) !step_hooks

(* The ledger entry of one launch; its elems/flops/bytes are also the
   span's args, so oppic_prof can place every kernel on the roofline
   from the trace artifact alone (built only when tracing). *)
let record r ~name ~elems ~flops ~bytes seconds =
  Profile.record ~t:r.r_profile ~name ~elems ~seconds ~flops ~bytes ();
  if !Opp_obs.Trace.enabled then
    [ ("elems", float_of_int elems); ("flops", flops); ("bytes", bytes) ]
  else []

let par_loop r ~name ?(flops_per_elem = 0.0) kernel set iterate args =
  r.r_around name iterate args (fun () ->
      (* the element count is read before the launch: an injected-window
         loop may shrink the window *)
      let lo, hi = Seq.iter_range set iterate in
      let n = hi - lo in
      Profile.measure ~cat:"par_loop" ~name
        (fun () -> r.r_par_loop name flops_per_elem kernel set iterate args)
        (fun () ->
          record r ~name ~elems:n
            ~flops:(flops_per_elem *. float_of_int n)
            ~bytes:(Seq.loop_bytes args n)))

(** The one measurement of a particle-move launch. Exposed so call
    sites that must route around the runner's engine (the distributed
    movers, which pass [should_stop]/[on_pending] straight to
    {!Seq.particle_move}) are measured into [r]'s ledger like any
    launch. [elems] counts the particles walked; [flops_per_elem] and
    [args] are per hop, like the mover's own cost accounting, and the
    hop count rides along as the span's [hops] arg. *)
let traced_move r ~name ?(flops_per_elem = 0.0) ?(args = []) run =
  (* a move's direct arguments are particle dats, which have no halo
     copies, so its iteration range does not matter to [r_around] *)
  let result =
    r.r_around name Seq.Iterate_all args (fun () ->
        Profile.measure ~cat:"particle_move" ~name run (fun (res : Seq.move_result) seconds ->
            let hops = res.mv_total_hops in
            ("hops", float_of_int hops)
            :: record r ~name
                 ~elems:(res.mv_moved + res.mv_removed + res.mv_sent)
                 ~flops:(flops_per_elem *. float_of_int hops)
                 ~bytes:(Seq.loop_bytes args hops) seconds))
  in
  if !Opp_obs.Metrics.enabled then begin
    Opp_obs.Metrics.add "move.total_hops" (float_of_int result.Seq.mv_total_hops);
    Opp_obs.Metrics.add "move.removed" (float_of_int result.Seq.mv_removed);
    Opp_obs.Metrics.add "move.sent" (float_of_int result.Seq.mv_sent);
    Opp_obs.Metrics.set "move.max_hops" (float_of_int result.Seq.mv_max_hops)
  end;
  result

let particle_move r ~name ?(flops_per_elem = 0.0) ?dh kernel set ~p2c args =
  traced_move r ~name ~flops_per_elem ~args (fun () ->
      r.r_particle_move name flops_per_elem dh kernel set p2c args)

(** The sequential reference runner, recording into [profile]. *)
let seq ?(profile = Profile.global) () =
  {
    r_name = "seq";
    r_par_loop =
      (fun name _ kernel set iterate args -> Seq.par_loop ~name kernel set iterate args);
    r_particle_move =
      (fun name _ dh kernel set p2c args -> Seq.particle_move ?dh ~name kernel set ~p2c args);
    r_profile = profile;
    r_around = direct;
  }
