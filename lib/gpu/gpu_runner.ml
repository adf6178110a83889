(** Simulated SIMT (CUDA/HIP) backend.

    Kernels execute on the host with sequential semantics — results are
    identical to the reference backend (bitwise for AT/UA; up to
    addition reordering for SR) — while a cost model charges what the
    same launch would cost on a real device:

    - roofline time from the bytes/flops the loop declares;
    - kernel launch overhead;
    - atomic serialization for indirect INC arguments: within each
      warp, increments hitting the same address serialize. Standard
      atomics (AT), unsafe read-modify-write atomics (UA) and
      segmented reductions (SR) price this differently (section 3.3 —
      AT on AMD is the paper's 200x pathology);
    - warp divergence for the particle mover: a warp retires only when
      its longest-walking particle finishes, so modelled time scales
      with per-warp max hops, not mean hops (the paper's Move_Deposit
      bottleneck on V100).

    Modelled seconds land in the runner's profile ledger. The
    {!Opp_core.Runner.t} packaging measures host wall time into the
    separate [exec_profile], so the two never mix. *)

open Opp_core
open Opp_core.Types

type atomic_mode = AT | UA | SR

let atomic_mode_to_string = function AT -> "AT" | UA -> "UA" | SR -> "SR"

type t = {
  device : Opp_perf.Device.t;
  mode : atomic_mode;
  work_scale : float;
      (** model multiplier: the executed problem stands for one
          [work_scale] times larger (bytes, flops and atomics all
          scale; launch overhead does not) *)
  profile : Profile.t;
  (* host wall time of the launches, measured by the Runner packaging *)
  exec_profile : Profile.t;
  pairs : Segmented.t;
  (* how many atomic units can retire concurrently; spreads the
     serialization cost the way wavefront scheduling does *)
  atomic_parallelism : float;
  mutable last_divergence : float;  (** eff_hops / hops of the last move *)
  mutable last_conflicts : int;
}

let create ?(profile = Profile.global) ?(mode = AT) ?(work_scale = 1.0) device =
  {
    device;
    mode;
    work_scale;
    profile;
    exec_profile = Profile.create ();
    pairs = Segmented.create ();
    atomic_parallelism = 128.0;
    last_divergence = 1.0;
    last_conflicts = 0;
  }

let is_racy_inc (a : Arg.t) =
  match a with
  | Arg.Arg_dat d -> d.acc = Inc && (d.map <> None || d.p2c <> None)
  | Arg.Arg_gbl _ -> false

(* Count, warp by warp, how many increments hit an address another
   lane of the same warp also hits. [targets w lane] gives the
   address for that lane or -1 when inactive. *)
let warp_conflicts ~warp ~n ~targets =
  let scratch = Array.make warp 0 in
  let conflicts = ref 0 in
  let nwarps = (n + warp - 1) / warp in
  for w = 0 to nwarps - 1 do
    let lanes = min warp (n - (w * warp)) in
    let m = ref 0 in
    for lane = 0 to lanes - 1 do
      let a = targets w lane in
      if a >= 0 then begin
        scratch.(!m) <- a;
        incr m
      end
    done;
    let sub = Array.sub scratch 0 !m in
    Array.sort compare sub;
    for i = 1 to !m - 1 do
      if sub.(i) = sub.(i - 1) then incr conflicts
    done
  done;
  !conflicts

let conflict_cost t =
  match t.mode with
  | AT -> t.device.Opp_perf.Device.at_conflict
  | UA -> t.device.Opp_perf.Device.ua_conflict
  | SR -> 0.0

(* Modelled seconds for the atomic traffic of a loop. [divergence]
   amplifies serialization inside divergent movers (warp replays). *)
let atomic_seconds ?(divergence = 1.0) t ~incs ~conflicts =
  let incs = float_of_int incs *. t.work_scale in
  let conflicts = float_of_int conflicts *. t.work_scale in
  match t.mode with
  | AT | UA ->
      ((incs *. t.device.Opp_perf.Device.atomic_base) +. (conflicts *. conflict_cost t))
      *. divergence /. t.atomic_parallelism
  | SR ->
      (* store + sort (radix passes) + reduce, all streaming pairs of
         (8-byte value, 4-byte key) through DRAM; the paper finds UA
         marginally ahead of SR on AMD, which this pass count matches *)
      let pair_bytes = 12.0 *. incs in
      10.0 *. pair_bytes /. t.device.Opp_perf.Device.mem_bw

let record t ~name ~elems ~bytes ~flops ~seconds =
  Profile.record ~t:t.profile ~name ~elems ~seconds ~flops ~bytes ()

(* --- par_loop --- *)

let par_loop t ~name ?(flops_per_elem = 0.0) kernel set iterate args =
  List.iter (Arg.validate ~iter_set:set) args;
  let lo, hi = Seq.iter_range set iterate in
  let n = hi - lo in
  let res = Seq.resolve args in
  let racy = Array.map (fun (r : Arg.resolved) -> is_racy_inc r.arg) res in
  let has_racy = Array.exists Fun.id racy in
  let warp = Opp_perf.Device.warp_size t.device in
  let conflicts = ref 0 in
  let incs = ref 0 in
  if (not has_racy) || t.mode <> SR then begin
    (* direct execution (exactly the reference semantics) *)
    Seq.par_loop ~name kernel set iterate args;
    if has_racy && warp > 1 then
      Array.iteri
        (fun k (r : Arg.resolved) ->
          if racy.(k) then begin
            incs := !incs + (n * r.dim);
            conflicts :=
              !conflicts
              + (r.dim
                * warp_conflicts ~warp ~n ~targets:(fun w lane ->
                      Seq.base r (lo + (w * warp) + lane)))
          end)
        res
  end
  else begin
    (* SR: redirect racy increments into per-element scratch, then run
       the store / sort-by-key / reduce-by-key pipeline *)
    let views = Seq.make_views res in
    let scratch = Array.map (fun (r : Arg.resolved) -> Array.make r.dim 0.0) res in
    let buffers =
      Array.map (fun (r : Arg.resolved) -> Segmented.create ~capacity:(r.dim * max n 1) ()) res
    in
    let n0 = set.s_size in
    let nargs = Array.length res in
    for idx = 0 to n - 1 do
      let e = lo + idx in
      Seq.bind_views ~name res views e;
      for k = 0 to nargs - 1 do
        if racy.(k) then begin
          let s = scratch.(k) in
          Array.fill s 0 (Array.length s) 0.0;
          views.(k).View.data <- s;
          views.(k).View.base <- 0
        end
      done;
      kernel views;
      for k = 0 to nargs - 1 do
        if racy.(k) then begin
          let base = Seq.base res.(k) e and s = scratch.(k) in
          for i = 0 to Array.length s - 1 do
            if s.(i) <> 0.0 then Segmented.add buffers.(k) ~key:(base + i) ~value:s.(i)
          done
        end
      done
    done;
    Seq.check_stores ~name ~set ~n0 res;
    Array.iteri
      (fun k (r : Arg.resolved) ->
        if racy.(k) then begin
          incs := !incs + Segmented.length buffers.(k);
          ignore (Segmented.apply buffers.(k) r.store)
        end)
      res
  end;
  t.last_conflicts <- !conflicts;
  let bytes = Seq.loop_bytes args n *. t.work_scale in
  let flops = flops_per_elem *. float_of_int n *. t.work_scale in
  let seconds =
    Opp_perf.Device.kernel_time t.device ~bytes ~flops
    +. atomic_seconds t ~incs:!incs ~conflicts:!conflicts
  in
  record t ~name ~elems:n ~bytes ~flops ~seconds

(* --- particle_move --- *)

let particle_move t ~name ?(flops_per_elem = 0.0) ?dh kernel set ~(p2c : map) args =
  let warp = Opp_perf.Device.warp_size t.device in
  let n = set.s_size in
  (* conflict fraction estimate from start cells: lanes of a warp
     whose particles share a cell contend on every deposit *)
  let start_conflicts =
    if warp > 1 then
      warp_conflicts ~warp ~n ~targets:(fun w lane ->
          let i = (w * warp) + lane in
          if i < n then p2c.m_data.(i) else -1)
    else 0
  in
  let conflict_fraction = if n > 0 then float_of_int start_conflicts /. float_of_int n else 0.0 in
  let nwarps = max ((n + warp - 1) / warp) 1 in
  let warp_max = Array.make nwarps 0 in
  (* the walk visits every slot in order, so lane = slot *)
  let on_particle ~p ~hops =
    let w = p / warp in
    if hops > warp_max.(w) then warp_max.(w) <- hops
  in
  let result = Seq.particle_move ?dh ~on_particle ~name kernel set ~p2c args in
  let hops = result.Seq.mv_total_hops in
  let eff_hops = warp * Array.fold_left ( + ) 0 warp_max in
  let raw_divergence =
    if hops > 0 then float_of_int eff_hops /. float_of_int hops else 1.0
  in
  (* device-specific amplification: divergent walks also defeat
     coalescing and replay contended atomics *)
  let divergence =
    1.0
    +. (t.device.Opp_perf.Device.divergence_sensitivity *. (raw_divergence -. 1.0))
  in
  t.last_divergence <- divergence;
  (* increments during the walk: one per INC arg dimension per hop *)
  let inc_dims =
    List.fold_left
      (fun acc a -> if is_racy_inc a then acc + Arg.view_dim a else acc)
      0 args
  in
  let incs = hops * inc_dims in
  let conflicts = int_of_float (conflict_fraction *. float_of_int incs) in
  t.last_conflicts <- conflicts;
  let bytes = Seq.loop_bytes args hops *. divergence *. t.work_scale in
  let flops = flops_per_elem *. float_of_int hops *. t.work_scale in
  let seconds =
    Opp_perf.Device.kernel_time t.device ~bytes ~flops
    +. atomic_seconds ~divergence t ~incs ~conflicts
  in
  record t ~name ~elems:n ~bytes ~flops ~seconds;
  result

(** Package as a {!Opp_core.Runner.t}. *)
let runner t =
  {
    Runner.r_name =
      Printf.sprintf "%s/%s" t.device.Opp_perf.Device.short (atomic_mode_to_string t.mode);
    Runner.r_par_loop =
      (fun name flops_per_elem kernel set iterate args ->
        par_loop t ~name ~flops_per_elem kernel set iterate args);
    Runner.r_particle_move =
      (fun name flops_per_elem dh kernel set p2c args ->
        particle_move t ~name ~flops_per_elem ?dh kernel set ~p2c args);
    Runner.r_profile = t.exec_profile;
    Runner.r_around = Runner.direct;
  }
