(** Synthetic executor for step programs: the oracle behind the
    qcheck legality properties.

    Executes a {!Prog.t} over a deterministic single-rank model of
    distributed storage: every mesh set has [owned] elements plus
    [halo] mirror slots (halo slot [h] mirrors owned slot [h]), so
    - [exchange d]: [d[owned+h] <- d[h]] (owners refresh the mirrors);
    - [reduce d]:   [d[h] <- d[h] + d[owned+h]; d[owned+h] <- 0]
      (halo contributions fold into owners and are consumed) —
    exactly the {!Opp_dist.Exch} contract collapsed to one rank.

    Loop kernels are synthesized from the descriptor footprint alone:
    each argument's value is resolved (direct by element, indirect by
    a deterministic pseudo-map), folded into a contribution that mixes
    reads, the element's identity and a per-loop seed with
    non-associative float arithmetic, and written back per access mode.
    A halo element runs as the owned element it mirrors, touching only
    halo copies (see {!slot}). Any reordering
    or elision the plan performs that is NOT legal therefore perturbs
    the final owned-state hash; the properties assert the hash is
    unchanged by a derived plan and changed runs are never accepted by
    {!Plan.verify}. *)

module D = Opp_check.Descriptor

let owned = 8
let halo = 4
let psize = 10
let pinjected = 3

type state = {
  st_data : (string, float array) Hashtbl.t;
  st_desc : D.t;
  mutable st_global : float;  (** synthetic global-reduction accumulator *)
}

let is_particle_set (desc : D.t) sname =
  match D.find_set desc sname with Some s -> s.D.sd_cells <> None | None -> false

let dat_set (desc : D.t) dname =
  match D.find_dat desc dname with Some d -> Some d.D.dd_set | None -> None

let dat_size desc dname =
  match dat_set desc dname with
  | Some s when is_particle_set desc s -> psize
  | Some _ -> owned + halo
  | None -> owned + halo

(* deterministic seeding: same program -> same initial state *)
let seed_value dname i =
  let h = Hashtbl.hash (dname, i) in
  float_of_int (h mod 1000) /. 7.0 +. 1.0

let init (desc : D.t) =
  let st_data = Hashtbl.create 16 in
  List.iter
    (fun (d : D.dat_d) ->
      let n = dat_size desc d.D.dd_name in
      Hashtbl.replace st_data d.D.dd_name (Array.init n (seed_value d.D.dd_name)))
    desc.D.pr_dats;
  { st_data; st_desc = desc; st_global = 0.0 }

let data st d = Hashtbl.find st.st_data d

(* ------------------------------------------------------------------ *)
(* Collectives.                                                        *)

let exchange st dname =
  match dat_set st.st_desc dname with
  | Some s when not (is_particle_set st.st_desc s) ->
      let a = data st dname in
      for h = 0 to halo - 1 do
        a.(owned + h) <- a.(h)
      done
  | _ -> ()

let reduce st dname =
  match dat_set st.st_desc dname with
  | Some s when not (is_particle_set st.st_desc s) ->
      let a = data st dname in
      for h = 0 to halo - 1 do
        a.(h) <- a.(h) +. a.(owned + h);
        a.(owned + h) <- 0.0
      done
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Synthetic kernels.                                                  *)

let iter_bounds (desc : D.t) (l : D.loop_d) (it : Prog.iterate) =
  if is_particle_set desc l.D.ld_set then
    match it with `Injected -> (psize - pinjected, psize) | _ -> (0, psize)
  else
    match (l.D.ld_kind, it) with
    | D.Particle_move_d, _ -> (0, psize)
    | _, `All -> (0, owned + halo)
    | _, `Core -> (0, owned)
    | _, `Injected -> (0, owned)

(* deterministic pseudo-map: indirect target of (loop arg, element) *)
let resolve (desc : D.t) (a : D.arg_d) e =
  let mh =
    Hashtbl.hash
      (Option.value a.D.ad_map ~default:"", Option.value a.D.ad_p2c ~default:"", a.D.ad_idx)
  in
  let n =
    match a.D.ad_dat with
    | Some d -> dat_size desc d
    | None -> owned + halo
  in
  ((e * 31) + (a.D.ad_idx * 7) + (mh mod 13)) mod n

(* The owned element [h] a mesh halo element [owned+h] mirrors. *)
let mirror desc (l : D.loop_d) e =
  if e >= owned && not (is_particle_set desc l.D.ld_set) then Some (e - owned) else None

(* The slot element [e] of loop [l] touches through argument [a], or
   [None] when that element holds no copy of the target.

   A mesh halo element [owned+h] is element [h] executed redundantly
   on a neighbouring rank: it maps through [h]'s identity, and it
   reaches its targets only through that rank's copies — its own slot
   for a direct argument, the halo mirror of an indirect target.
   An owned target without a mirror ([halo <= t < owned]) is not held
   there, so the element neither reads nor writes it. Hence a halo
   element's output lands on halo copies only: the contract the flow
   analysis relies on when it elides an exchange whose halo copies are
   not observed. *)
let slot desc l (a : D.arg_d) e =
  if a.D.ad_map = None && a.D.ad_p2c = None then Some e
  else
    match mirror desc l e with
    | None -> Some (resolve desc a e)
    | Some h ->
        let t = resolve desc a h in
        if t < halo then Some (owned + t) else if t >= owned then Some t else None

(* One element of one loop: gather every readable argument into the
   contribution with order- and magnitude-sensitive float arithmetic,
   then scatter it per access mode. The contribution is seeded by the
   element's identity, so a halo element agrees with the owned element
   it mirrors whenever it reads the same values. *)
let run_element st (l : D.loop_d) e =
  let desc = st.st_desc in
  let ident = Option.value (mirror desc l e) ~default:e in
  let lseed = float_of_int (Hashtbl.hash l.D.ld_name mod 97) /. 13.0 in
  let args = l.D.ld_args in
  let c = ref (lseed +. (float_of_int (ident + 1) *. 0.01)) in
  List.iter
    (fun (a : D.arg_d) ->
      match a.D.ad_dat with
      | Some d when Opp_check.Static.reads_acc a.D.ad_acc && a.D.ad_acc <> D.Inc -> (
          let arr = data st d in
          match slot desc l a e with
          | Some i -> c := (!c *. 1.0000001) +. (arr.(i mod Array.length arr) *. 0.3)
          | None -> ())
      | None when Opp_check.Static.reads_acc a.D.ad_acc -> c := !c +. (st.st_global *. 1e-6)
      | _ -> ())
    args;
  List.iteri
    (fun k (a : D.arg_d) ->
      let c = !c +. (float_of_int k *. 0.001) in
      match a.D.ad_dat with
      | Some d -> (
          let arr = data st d in
          match slot desc l a e with
          | Some i -> (
              let i = i mod Array.length arr in
              match a.D.ad_acc with
              | D.Write -> arr.(i) <- c
              | D.Rw -> arr.(i) <- (arr.(i) *. 0.9) +. c
              | D.Inc -> arr.(i) <- arr.(i) +. c
              | D.Read -> ())
          | None -> ())
      | None -> (
          match a.D.ad_acc with
          | D.Inc | D.Rw | D.Write -> st.st_global <- st.st_global +. c
          | D.Read -> ()))
    args

let run_loop st (l : D.loop_d) (it : Prog.iterate) =
  let lo, hi = iter_bounds st.st_desc l it in
  for e = lo to hi - 1 do
    run_element st l e
  done

(* ------------------------------------------------------------------ *)
(* Program execution.                                                  *)

let run_event st (ev : Prog.event) =
  match ev with
  | Prog.Loop { e_loop; e_iterate } -> run_loop st e_loop e_iterate
  | Prog.Exchange c -> List.iter (exchange st) c.Prog.c_dats
  | Prog.Reduce c -> List.iter (reduce st) c.Prog.c_dats
  | Prog.Probe _ -> ()
  | Prog.Fresh ds ->
      (* the driver asserts halo copies were recomputed consistently;
         the model realizes the assertion so planned and unplanned
         schedules agree on what "fresh" means *)
      List.iter (exchange st) ds
  | Prog.Opaque o ->
      (* deterministic stand-in for a host-side phase: reads fold into
         the global, writes overwrite from it *)
      List.iter
        (fun d ->
          let a = data st d in
          Array.iter (fun v -> st.st_global <- (st.st_global *. 1.0000001) +. (v *. 1e-3)) a)
        (o.Prog.o_reads @ o.Prog.o_hreads);
      List.iter
        (fun d ->
          let a = data st d in
          Array.iteri (fun i _ -> a.(i) <- st.st_global +. seed_value d i) a)
        (o.Prog.o_writes @ o.Prog.o_fresh)

let run_step st (prog : Prog.t) = List.iter (run_event st) prog.Prog.pg_events

(* Planned execution: elided sites are skipped; fused groups execute
   element-interleaved via a faithful model of the fused loop body. *)
let run_fused st (ls : (D.loop_d * Prog.iterate) list) =
  match ls with
  | [] -> ()
  | (l0, it0) :: _ ->
      let lo, hi = iter_bounds st.st_desc l0 it0 in
      for e = lo to hi - 1 do
        List.iter (fun (l, _) -> run_element st l e) ls
      done

let run_step_planned st (prog : Prog.t) (plan : Plan.t) =
  let events = Array.of_list prog.Prog.pg_events in
  let n = Array.length events in
  let in_group_tail = Hashtbl.create 8 in
  (* map: index of group head -> member list; indices of non-head
     members are skipped *)
  let heads = Hashtbl.create 8 in
  List.iter
    (fun group ->
      let idxs =
        List.filter_map
          (fun name ->
            let rec find i =
              if i >= n then None
              else
                match events.(i) with
                | Prog.Loop { e_loop; _ } when e_loop.D.ld_name = name -> Some i
                | _ -> find (i + 1)
            in
            find 0)
          group
      in
      match idxs with
      | i0 :: rest when List.length idxs = List.length group ->
          Hashtbl.replace heads i0
            (List.filter_map
               (fun i ->
                 match events.(i) with
                 | Prog.Loop { e_loop; e_iterate } -> Some (e_loop, e_iterate)
                 | _ -> None)
               idxs);
          List.iter (fun i -> Hashtbl.replace in_group_tail i ()) rest
      | _ -> ())
    plan.Plan.p_fuse;
  Array.iteri
    (fun i ev ->
      if Hashtbl.mem in_group_tail i then ()
      else
        match Hashtbl.find_opt heads i with
        | Some group -> run_fused st group
        | None -> (
            match ev with
            | Prog.Exchange c when List.mem c.Prog.c_site plan.Plan.p_elide -> ()
            | _ -> run_event st ev))
    events

(* ------------------------------------------------------------------ *)
(* Observable state hash.                                              *)

(* Owned state only: halo copies are scratch in the distributed
   contract (exchange rewrites them, reduce zeroes them), so planned
   and unplanned runs must agree exactly on owners, particles and
   globals — not on elided halo scratch. *)
let hash st =
  let acc = ref 17 in
  let mix v = acc := (!acc * 31) + Hashtbl.hash v in
  List.iter
    (fun (d : D.dat_d) ->
      let a = data st d.D.dd_name in
      let upto =
        if is_particle_set st.st_desc d.D.dd_set then Array.length a
        else min owned (Array.length a)
      in
      mix d.D.dd_name;
      for i = 0 to upto - 1 do
        mix (Int64.bits_of_float a.(i))
      done)
    (List.sort compare st.st_desc.D.pr_dats);
  mix (Int64.bits_of_float st.st_global);
  !acc

(** Run [cycles] whole steps unplanned and return the final hash. *)
let run_unplanned (prog : Prog.t) ~cycles =
  let st = init prog.Prog.pg_desc in
  for _ = 1 to cycles do
    run_step st prog
  done;
  hash st

(** Mirror the runtime lifecycle: step 1 records (runs unplanned),
    steps 2..cycles run under [plan]. *)
let run_planned (prog : Prog.t) (plan : Plan.t) ~cycles =
  let st = init prog.Prog.pg_desc in
  if cycles > 0 then run_step st prog;
  for _ = 2 to cycles do
    run_step_planned st prog plan
  done;
  hash st
