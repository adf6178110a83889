(** Shared-memory (OpenMP-analogue) backend on OCaml 5 domains.

    Data races on indirectly incremented dats are handled with the
    paper's CPU strategy: {e scatter arrays} (section 3.3, Figure
    2(b)) — every worker increments a private copy of the dat, and the
    copies are reduced into the real dat after the join. Global INC
    arguments get per-worker buffers reduced the same way. Indirect
    WRITE/RW arguments are rejected: they cannot be made race-free
    without colouring, which PIC loops do not need.

    The scatter copies come from a {!Scatter_pool}: they
    are reused across launches (the seed backend allocated fresh
    full-size copies every launch) and each worker records the lo/hi
    span of entries it touched, so the reduction walks only written
    segments and restores the pool's all-zero invariant as it goes.

    [particle_move] distributes particles over workers with an atomic
    grab-a-block queue when the move has no INC argument (variable-hop
    walks make static chunks arbitrarily unbalanced); moves that do
    reduce — and all [par_loop]s — keep deterministic static chunks. *)

open Opp_core
open Opp_core.Types

type t = {
  pool : Pool.t;
  profile : Profile.t;
  spool : Scatter_pool.t;
  move_sched : [ `Dynamic | `Static ];
}

(* particles per grab of the dynamic mover's work queue *)
let move_block = 64

let create ?(profile = Profile.global) ?move_sched ~workers () =
  (* dynamic grab-a-block balances real concurrency; when the pool
     oversubscribes the machine the domains are time-sliced, there is
     no imbalance to fix, and the shared cursor only adds coherence
     traffic — so the default is static there. An explicit [move_sched]
     is always honoured. *)
  let move_sched =
    match move_sched with
    | Some m -> m
    | None -> if workers > Domain.recommended_domain_count () then `Static else `Dynamic
  in
  {
    pool = Pool.create workers;
    profile;
    spool = Scatter_pool.create ();
    move_sched;
  }

let shutdown t = Pool.shutdown t.pool
let workers t = Pool.size t.pool
let scatter_pool t = t.spool

let is_indirect (a : Arg.t) =
  match a with
  | Arg.Arg_gbl _ -> false
  | Arg.Arg_dat d -> d.map <> None || d.p2c <> None

let check_races name args =
  List.iter
    (fun (a : Arg.t) ->
      match a with
      | Arg.Arg_dat d when is_indirect a && (d.acc = Write || d.acc = Rw) ->
          invalid_arg
            (Printf.sprintf "%s: indirect %s access to %s is racy under threads" name
               (access_to_string d.acc) d.dat.d_name)
      | Arg.Arg_gbl g when g.acc = Write || g.acc = Rw ->
          invalid_arg (Printf.sprintf "%s: global WRITE/RW is racy under threads" name)
      | _ -> ())
    args

(* Per-worker argument bindings: private scatter copies for racy INC
   targets, shared storage otherwise. [ranges] records, per worker,
   the half-open span of entries that worker touched; the reduction
   walks only those. *)
type binding =
  | Shared
  | Scatter of { copies : float array array; ranges : (int * int) array }
  | Gbl_scatter of float array array

let no_range = (max_int, min_int)

let make_bindings t nworkers args =
  List.map
    (fun (a : Arg.t) ->
      match a with
      | Arg.Arg_dat d when d.acc = Inc && is_indirect a ->
          Scatter
            {
              copies =
                Array.init nworkers (fun _ ->
                    Scatter_pool.acquire t.spool (Array.length d.dat.d_data));
              ranges = Array.make nworkers no_range;
            }
      | Arg.Arg_gbl g when g.acc = Inc ->
          Gbl_scatter (Array.init nworkers (fun _ -> Array.make (Array.length g.buf) 0.0))
      | _ -> Shared)
    args

(* Reduce scatter copies into the shared data, in worker order so the
   result is deterministic for a fixed worker count. Only the dirty
   span of each copy is walked; touched entries are zeroed on the way
   so the copy can go back to the pool with its all-zero invariant
   intact. Zero entries are skipped for dat and global copies alike
   (the seed backend skipped them only for dats). *)
let reduce_bindings t args bindings =
  let dirty = ref 0 and total = ref 0 in
  List.iter2
    (fun (a : Arg.t) b ->
      match (a, b) with
      | Arg.Arg_dat d, Scatter { copies; ranges } ->
          let dst = d.dat.d_data in
          Array.iteri
            (fun w copy ->
              let lo, hi = ranges.(w) in
              let lo = max lo 0 and hi = min hi (Array.length copy) in
              if hi > lo then begin
                dirty := !dirty + (hi - lo);
                for i = lo to hi - 1 do
                  let c = copy.(i) in
                  if c <> 0.0 then begin
                    dst.(i) <- dst.(i) +. c;
                    copy.(i) <- 0.0
                  end
                done
              end;
              total := !total + Array.length copy;
              Scatter_pool.release t.spool copy)
            copies
      | Arg.Arg_gbl g, Gbl_scatter copies ->
          Array.iter
            (fun copy ->
              for i = 0 to Array.length copy - 1 do
                if copy.(i) <> 0.0 then g.buf.(i) <- g.buf.(i) +. copy.(i)
              done)
            copies
      | _ -> ())
    args bindings;
  if !Opp_obs.Metrics.enabled && !total > 0 then
    Opp_obs.Metrics.set "locality.scatter.dirty_frac"
      (float_of_int !dirty /. float_of_int !total)

let worker_views args bindings w =
  Array.of_list
    (List.map2
       (fun (a : Arg.t) b ->
         match (a, b) with
         | Arg.Arg_dat d, Shared -> View.of_array d.dat.d_data d.dat.d_dim
         | Arg.Arg_dat d, Scatter { copies; _ } -> View.of_array copies.(w) d.dat.d_dim
         | Arg.Arg_gbl g, Gbl_scatter copies -> View.of_array copies.(w) (Array.length g.buf)
         | Arg.Arg_gbl g, _ -> View.of_array g.buf (Array.length g.buf)
         | Arg.Arg_dat _, Gbl_scatter _ -> assert false)
       args bindings)

let par_loop t ~name kernel set iterate args =
  List.iter (Arg.validate ~iter_set:set) args;
  check_races name args;
  let lo, hi = Seq.iter_range set iterate in
  let n = hi - lo in
  let nworkers = Pool.size t.pool in
  let bindings = make_bindings t nworkers args in
  let bindings_a = Array.of_list bindings in
  let res = Seq.resolve args in
  let n0 = set.s_size in
  let nargs = Array.length res in
  Pool.run t.pool (fun w ->
      let views = worker_views args bindings w in
      let wlo = Array.make nargs max_int and whi = Array.make nargs min_int in
      let clo, chi = Pool.chunk ~n ~parts:nworkers w in
      for idx = clo to chi - 1 do
        let e = lo + idx in
        for k = 0 to nargs - 1 do
          let r = res.(k) in
          let base = Seq.base r e in
          views.(k).View.base <- base;
          match bindings_a.(k) with
          | Scatter _ ->
              if base < wlo.(k) then wlo.(k) <- base;
              if base + r.Arg.dim > whi.(k) then whi.(k) <- base + r.Arg.dim
          | _ -> ()
        done;
        kernel views
      done;
      for k = 0 to nargs - 1 do
        match bindings_a.(k) with
        | Scatter { ranges; _ } -> ranges.(w) <- (wlo.(k), whi.(k))
        | _ -> ()
      done);
  Seq.check_stores ~name ~set ~n0 res;
  reduce_bindings t args bindings

(* Every entry a move's scatter copies may have touched: move views
   are re-based inside the walk (not observable here), so the
   reduction must walk the whole copy. *)
let mark_full_dirty bindings =
  List.iter
    (function
      | Scatter { copies; ranges } ->
          Array.iteri (fun w _ -> ranges.(w) <- (0, Array.length copies.(w))) ranges
      | _ -> ())
    bindings

let particle_move t ~name ?(max_hops = 10_000) ?dh kernel set ~(p2c : map) args =
  List.iter (Arg.validate ~iter_set:set) args;
  check_races name args;
  let n = set.s_size in
  let nworkers = Pool.size t.pool in
  let bindings = make_bindings t nworkers args in
  let dead = Array.make (max n 1) false in
  let accs = Array.init nworkers (fun _ -> Seq.make_move_acc ()) in
  let res = Seq.resolve args in
  let has_inc = List.exists (fun a -> Arg.access a = Inc) args in
  let walk ~views ~ctx ~acc p =
    Seq.walk_one ~name ~max_hops ~kernel ~args:res ~views ~ctx ~p2c ~dh
      ~stop_at:(fun _ -> false)
      ~on_pending:None ~on_particle:None ~dead ~acc p
  in
  (if t.move_sched = `Dynamic && not has_inc then begin
     (* No INC argument: work distribution cannot affect the result,
        so workers grab fixed-size blocks from an atomic cursor and
        variable-hop particles no longer serialise on the slowest
        static chunk. *)
     let next = Atomic.make 0 in
     Pool.run t.pool (fun w ->
         let views = worker_views args bindings w in
         let ctx = { Seq.cell = 0; Seq.status = Seq.Move_done; Seq.hop = 0 } in
         let acc = accs.(w) in
         let running = ref true in
         while !running do
           let b = Atomic.fetch_and_add next move_block in
           if b >= n then running := false
           else
             for idx = b to min n (b + move_block) - 1 do
               walk ~views ~ctx ~acc idx
             done
         done)
   end
   else
     Pool.run t.pool (fun w ->
         let views = worker_views args bindings w in
         let ctx = { Seq.cell = 0; Seq.status = Seq.Move_done; Seq.hop = 0 } in
         let clo, chi = Pool.chunk ~n ~parts:nworkers w in
         for idx = clo to chi - 1 do
           walk ~views ~ctx ~acc:accs.(w) idx
         done));
  Seq.check_stores ~name ~set ~n0:n res;
  mark_full_dirty bindings;
  reduce_bindings t args bindings;
  let total =
    Array.fold_left
      (fun (m, r, h, mx) a ->
        ( m + a.Seq.acc_moved,
          r + a.Seq.acc_removed,
          h + a.Seq.acc_total_hops,
          max mx a.Seq.acc_max_hops ))
      (0, 0, 0, 0) accs
  in
  let removed = Particle.remove_flagged set dead in
  let moved, racc, hops, max_h = total in
  assert (removed = racc);
  {
    Seq.mv_moved = moved;
    Seq.mv_removed = racc;
    Seq.mv_sent = 0;
    Seq.mv_total_hops = hops;
    Seq.mv_max_hops = max_h;
  }

(* --- colouring execution (the paper's alternative CPU strategy) --- *)

(* Greedy round-based colouring: in each round every still-uncoloured
   element tries to claim all its INC targets; claims are granted in
   element order, so elements of one colour never share a target and
   can increment directly, without scatter arrays. *)
let build_coloring ~lo ~hi args =
  let racy =
    List.map Arg.resolve
      (List.filter is_indirect (List.filter (fun a -> Arg.access a = Inc) args))
  in
  let n = hi - lo in
  let colors = Array.make n (-1) in
  if racy = [] then begin
    Array.fill colors 0 n 0;
    (colors, 1)
  end
  else begin
    let claimed : (int, int) Hashtbl.t = Hashtbl.create 1024 in
    let remaining = ref n in
    let color = ref 0 in
    while !remaining > 0 do
      Hashtbl.reset claimed;
      for e = 0 to n - 1 do
        if colors.(e) = -1 then begin
          let elem = lo + e in
          let free =
            List.for_all
              (fun r ->
                match Hashtbl.find_opt claimed (Seq.base r elem) with
                | Some owner -> owner = e
                | None -> true)
              racy
          in
          if free then begin
            List.iter (fun r -> Hashtbl.replace claimed (Seq.base r elem) e) racy;
            colors.(e) <- !color;
            decr remaining
          end
        end
      done;
      incr color
    done;
    (colors, !color)
  end

(** [par_loop] executed colour-by-colour: elements of one colour never
    share an indirect-INC target, so increments go straight to the
    shared dat (no scatter arrays, no reduction pass). The paper notes
    the trade-off: colouring particle loops needs the particles kept
    sorted to keep the colour count low. *)
let par_loop_colored t ~name kernel set iterate args =
  List.iter (Arg.validate ~iter_set:set) args;
  check_races name args;
  let lo, hi = Seq.iter_range set iterate in
  let n = hi - lo in
  let nworkers = Pool.size t.pool in
  let res = Seq.resolve args in
  let colors, ncolors = build_coloring ~lo ~hi args in
  (* bucket elements by colour once *)
  let buckets = Array.make ncolors [] in
  for e = n - 1 downto 0 do
    buckets.(colors.(e)) <- (lo + e) :: buckets.(colors.(e))
  done;
  (* dats are shared (colouring makes direct increments safe); only
     global reductions still need per-worker buffers *)
  let bindings =
    List.map
      (fun (a : Arg.t) ->
        match a with
        | Arg.Arg_gbl g when g.acc = Inc ->
            Gbl_scatter (Array.init nworkers (fun _ -> Array.make (Array.length g.buf) 0.0))
        | _ -> Shared)
      args
  in
  Array.iter
    (fun bucket ->
      let elems = Array.of_list bucket in
      let m = Array.length elems in
      Pool.run t.pool (fun w ->
          let views = worker_views args bindings w in
          let clo, chi = Pool.chunk ~n:m ~parts:nworkers w in
          for i = clo to chi - 1 do
            Seq.bind_views ~name res views elems.(i);
            kernel views
          done))
    buckets;
  reduce_bindings t args bindings

(** Package as a {!Opp_core.Runner.t} for the application drivers. *)
let runner t =
  {
    Runner.r_name = Printf.sprintf "omp(%d)" (Pool.size t.pool);
    Runner.r_par_loop =
      (fun name _ kernel set iterate args -> par_loop t ~name kernel set iterate args);
    Runner.r_particle_move =
      (fun name _ dh kernel set p2c args -> particle_move t ~name ?dh kernel set ~p2c args);
    Runner.r_profile = t.profile;
    Runner.r_around = Runner.direct;
  }
