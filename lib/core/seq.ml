(** Sequential reference backend: [par_loop] over mesh or particle sets
    and the multi-hop / direct-hop [particle_move] engine.

    Other backends (threads, simulated GPU, simulated MPI) either wrap
    or re-implement these loops; this one defines the semantics. *)

open Types

type iterate =
  | Iterate_all  (** every element, including halo copies *)
  | Iterate_core  (** owned elements only ([0, s_exec_size)) *)
  | Iterate_injected  (** particles appended since [reset_injected] *)

(** A user kernel: reads/writes its arguments through views, one view
    per argument, in declaration order. *)
type kernel = View.t array -> unit

type move_status = Move_done | Need_move | Need_remove

(** Mutable per-particle state threaded through a move kernel. The
    kernel inspects [cell] (current candidate cell) and [hop] (0 on the
    first call for a particle, so one-off work like the Boris push of an
    electromagnetic mover can run exactly once), and before returning
    sets [status], updating [cell] to the next candidate on
    [Need_move] (normally via a cell-to-cell map). *)
type move_ctx = { mutable cell : int; mutable status : move_status; mutable hop : int }

type move_kernel = View.t array -> move_ctx -> unit

type move_result = {
  mv_moved : int;  (** particles that finished in a new or same cell *)
  mv_removed : int;  (** particles removed (left the domain) *)
  mv_sent : int;  (** particles handed to [on_pending] (MPI boundary) *)
  mv_total_hops : int;
  mv_max_hops : int;
}

let iter_range set = function
  | Iterate_all -> (0, set.s_size)
  | Iterate_core -> (0, set.s_exec_size)
  | Iterate_injected -> (set.s_size - set.s_injected, set.s_size)

let resolve args = Array.map Arg.resolve (Array.of_list args)

(* The per-element arithmetic of every engine. Defined here, beside the
   reference loops, so that they inline it ([-opaque] stops
   cross-module inlining in the dev profile); other engines call it. *)

let[@inline] stale (r : Arg.resolved) =
  match r.arg with Arg.Arg_dat a -> a.dat.d_data != r.store | Arg.Arg_gbl _ -> false

let[@inline] base (r : Arg.resolved) e =
  match r.kind with
  | Arg.Global -> 0
  | Arg.Direct -> e * r.dim
  | Arg.P2c -> r.p2c.(e) * r.dim
  | Arg.Map -> r.map.((e * r.arity) + r.slot) * r.dim
  | Arg.P2c_map -> r.map.((r.p2c.(e) * r.arity) + r.slot) * r.dim

let[@inline] move_base (r : Arg.resolved) p cell =
  match r.kind with
  | Arg.Global -> 0
  | Arg.Direct -> p * r.dim
  | Arg.P2c -> cell * r.dim
  | Arg.P2c_map -> r.map.((cell * r.arity) + r.slot) * r.dim
  | Arg.Map -> invalid_arg "move arg: mesh map without p2c"

let make_views res = Array.map (fun (r : Arg.resolved) -> View.of_array r.store r.dim) res

let loop_bytes args n =
  float_of_int (n * List.fold_left (fun acc a -> acc + Arg.bytes_per_elem a) 0 args)

exception Storage_reallocated of string
(** A kernel mutated the population of the set it iterates (injection
    or removal inside a loop body), so the loop's views point at stale
    storage. Raised by the loop engines; the sanitizer runner
    ([Opp_check]) reports it as diagnostic E080. *)

let realloc_fail ~name (r : Arg.resolved) =
  let dat_name = match r.arg with Arg.Arg_dat d -> d.dat.d_name | Arg.Arg_gbl _ -> "" in
  raise
    (Storage_reallocated
       (Printf.sprintf
          "%s: storage of dat %s was reallocated during the loop (particle \
           injection inside a kernel?); views are stale [E080]" name dat_name))

let check_stores ~name ~set ~n0 res =
  Array.iter (fun r -> if stale r then realloc_fail ~name r) res;
  if set.s_size <> n0 then
    raise
      (Storage_reallocated
         (Printf.sprintf
            "%s: population of set %s changed from %d to %d during the loop \
             (injection or removal inside a kernel?) [E080]" name set.s_name n0
            set.s_size))

(* Point every view at element [e], failing on the first dat whose
   storage moved since the launch resolved it. *)
let bind_views ~name res views e =
  for k = 0 to Array.length res - 1 do
    let r = res.(k) in
    if stale r then realloc_fail ~name r;
    views.(k).View.base <- base r e
  done

(** Execute [kernel] for every element of [set] (the [opp_par_loop] of
    the paper). *)
let par_loop ~name kernel set iterate args =
  List.iter (Arg.validate ~iter_set:set) args;
  let res = resolve args in
  let views = make_views res in
  let lo, hi = iter_range set iterate in
  let n0 = set.s_size in
  for e = lo to hi - 1 do
    bind_views ~name res views e;
    kernel views
  done;
  check_stores ~name ~set ~n0 res

let set_move_views res views p cell =
  for k = 0 to Array.length res - 1 do
    views.(k).View.base <- move_base res.(k) p cell
  done

exception Move_diverged of string

(** Mutable counters shared by the walk driver; thread backends keep
    one per worker and merge them. *)
type move_acc = {
  mutable acc_moved : int;
  mutable acc_removed : int;
  mutable acc_sent : int;
  mutable acc_total_hops : int;
  mutable acc_max_hops : int;
}

let make_move_acc () =
  { acc_moved = 0; acc_removed = 0; acc_sent = 0; acc_total_hops = 0; acc_max_hops = 0 }

(* Walk a single particle to completion: the common core of the
   sequential, threaded and SIMT movers. *)
let walk_one ~name ~max_hops ~(kernel : move_kernel) ~args ~views ~(ctx : move_ctx)
    ~(p2c : map) ~dh ~stop_at ~on_pending ~on_particle ~(dead : bool array) ~(acc : move_acc) p
    =
  let start_cell =
    match dh with
    | None -> p2c.m_data.(p)
    | Some locate ->
        let c = locate p in
        if c >= 0 then c else p2c.m_data.(p)
  in
  ctx.cell <- start_cell;
  ctx.status <- Need_move;
  let hops = ref 0 in
  let finished = ref false in
  while not !finished do
    if ctx.cell < 0 then begin
      (* walked off the mesh without the kernel flagging removal *)
      dead.(p) <- true;
      acc.acc_removed <- acc.acc_removed + 1;
      finished := true
    end
    else if stop_at ctx.cell then begin
      (match on_pending with Some f -> f ~p ~cell:ctx.cell | None -> ());
      dead.(p) <- true;
      acc.acc_sent <- acc.acc_sent + 1;
      finished := true
    end
    else begin
      set_move_views args views p ctx.cell;
      ctx.hop <- !hops;
      kernel views ctx;
      incr hops;
      match ctx.status with
      | Move_done ->
          p2c.m_data.(p) <- ctx.cell;
          acc.acc_moved <- acc.acc_moved + 1;
          finished := true
      | Need_remove ->
          dead.(p) <- true;
          acc.acc_removed <- acc.acc_removed + 1;
          finished := true
      | Need_move ->
          if !hops > max_hops then
            raise
              (Move_diverged
                 (Printf.sprintf "%s: particle %d exceeded %d hops (cell %d)" name p max_hops
                    ctx.cell))
    end
  done;
  acc.acc_total_hops <- acc.acc_total_hops + !hops;
  if !hops > acc.acc_max_hops then acc.acc_max_hops <- !hops;
  match on_particle with Some f -> f ~p ~hops:!hops | None -> ()

(** The [opp_particle_move] special loop (paper section 3.1.3).

    For every particle the kernel is applied at its current cell; while
    it answers [Need_move] the walk continues at [ctx.cell] (multi-hop).
    With [dh] the walk starts from the cell returned by the structured
    overlay locator instead (direct-hop), falling back to multi-hop for
    the final approach. [should_stop] marks cells outside this
    partition: reaching one suspends the walk and reports the particle
    through [on_pending] (used by the distributed backend to pack it
    for communication); the particle is then removed locally.
    [on_particle] observes per-particle hop counts (used by the SIMT
    divergence model). *)
let particle_move ?(max_hops = 10_000) ?(iterate = Iterate_all) ?dh ?should_stop
    ?on_pending ?on_particle ~name (kernel : move_kernel) set ~(p2c : map) args =
  if not (is_particle_set set) then invalid_arg "particle_move: not a particle set";
  if p2c.m_from != set then invalid_arg "particle_move: p2c source is not the particle set";
  List.iter (Arg.validate ~iter_set:set) args;
  let res = resolve args in
  let views = make_views res in
  let n = set.s_size in
  let lo, hi = iter_range set iterate in
  let dead = Array.make (max n 1) false in
  let ctx = { cell = 0; status = Move_done; hop = 0 } in
  let acc = make_move_acc () in
  let stop_at = match should_stop with Some f -> f | None -> fun _ -> false in
  (* feed per-particle hop counts to the metrics histogram (one branch
     when metrics are off) *)
  let on_particle =
    if not !Opp_obs.Metrics.enabled then on_particle
    else
      Some
        (fun ~p ~hops ->
          Opp_obs.Metrics.observe "move.hops" (float_of_int hops);
          match on_particle with Some f -> f ~p ~hops | None -> ())
  in
  let walk p =
    walk_one ~name ~max_hops ~kernel ~args:res ~views ~ctx ~p2c ~dh ~stop_at ~on_pending
      ~on_particle ~dead ~acc p
  in
  for p = lo to hi - 1 do
    walk p
  done;
  check_stores ~name ~set ~n0:n res;
  let n_removed = Particle.remove_flagged set dead in
  assert (n_removed = acc.acc_removed + acc.acc_sent);
  {
    mv_moved = acc.acc_moved;
    mv_removed = acc.acc_removed;
    mv_sent = acc.acc_sent;
    mv_total_hops = acc.acc_total_hops;
    mv_max_hops = acc.acc_max_hops;
  }
