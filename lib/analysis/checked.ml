(** The runtime sanitizer backend: [runner inner] is a drop-in
    {!Opp_core.Runner.t} that executes every loop under instrumented
    sequential reference semantics and raises {!Diag.Violation} on the
    first contract breach. Checks per launch:

    - E010 — argument list inconsistent with the iteration set (the
      live mirror of the static analyzer, via {!Descriptor.of_live},
      plus the runtime's own [Arg.validate]);
    - E030 — map or p2c entry outside the target set (catching the -1
      "unset" entries leaking into a loop);
    - E020 — a kernel wrote through an argument declared Read
      (detected by shadow-copy compare around each kernel call);
    - E021 — a kernel left part of a Write argument unwritten
      (detected by NaN-canary pre-fill; par_loops only — move kernels
      legally defer their writes until the final hop);
    - E040 — a kernel produced NaN/Inf in a written argument;
    - E050 — two different iteration elements wrote the same target
      element of an indirectly-accessed dat (a real race on every
      parallel backend; Inc is exempt — that is what Inc is for);
    - E060 — a loop read the halo region of a dat written since its
      copies were last refreshed. The dirty bit ({!Opp_dist.Freshness})
      is kept by the distributed world that derives the halo
      exchanges ([Opp_dist.World.derive]); this check reads it
      element by element, independently of that derivation;
    - E080 — the backing storage of an argument's dat was reallocated
      while the loop was running (an injection inside a kernel grew
      the set): every view already handed to the kernel still points
      at the old array, so subsequent writes are silently lost.

    The wrapper deliberately does NOT delegate execution to [inner]:
    thread and SIMT backends re-point views at private accumulation
    buffers, so per-element instrumentation inside their kernels would
    race and running both engines would double-apply increments. The
    inner runner only lends its name ("<inner>+check"), keeping driver
    wiring identical; sanitized runs answer "is this loop nest
    well-formed?", not "is this backend's schedule correct?". *)

open Opp_core
open Opp_core.Types

let finite x = match classify_float x with FP_nan | FP_infinite -> false | _ -> true

(* Value equality that treats NaN as equal to itself: pre-existing
   NaNs in Read data must not masquerade as kernel writes. *)
let same (x : float) (y : float) = x = y || (x <> x && y <> y)

(* E010: the static mirror over the live argument list, then the
   runtime's own structural validation. *)
let validate_launch ~loop ~kind set args =
  let desc = Descriptor.of_live ~name:loop ~kind ~set args in
  List.iter
    (fun (d : Diag.t) ->
      if d.severity = Diag.Error then
        Diag.violate ~code:d.code ~loop ?dat:d.dat "%s" d.message)
    (Static.check_loop desc (List.hd desc.pr_loops));
  List.iter
    (fun a ->
      try Arg.validate ~iter_set:set a
      with Invalid_argument msg -> Diag.violate ~code:"E010" ~loop "%s" msg)
    args

(* Resolve the target element of a dat argument for iteration element
   [e], bounds-checking every map hop (E030). *)
let target_elem ~loop e (a : Arg.t) =
  match a with
  | Arg.Arg_gbl _ -> -1
  | Arg.Arg_dat d ->
      let elem =
        match d.p2c with
        | None -> e
        | Some p2c ->
            let c = p2c.m_data.(e) in
            if c < 0 || c >= p2c.m_to.s_size then
              Diag.violate ~code:"E030" ~loop ~dat:d.dat.d_name ~elem:e
                "p2c map %s entry is %d, outside [0, %d) of set %s" p2c.m_name c p2c.m_to.s_size
                p2c.m_to.s_name;
            c
      in
      (match d.map with
      | None -> elem
      | Some m ->
          let t = m.m_data.((elem * m.m_arity) + d.idx) in
          if t < 0 || t >= m.m_to.s_size then
            Diag.violate ~code:"E030" ~loop ~dat:d.dat.d_name ~elem:e
              "map %s slot %d of element %d is %d, outside [0, %d) of set %s" m.m_name d.idx
              elem t m.m_to.s_size m.m_to.s_name;
          t)

let dat_name = function Arg.Arg_dat d -> Some d.dat.d_name | Arg.Arg_gbl _ -> None

(* ------------------------------------------------------------------ *)
(* Instrumented par_loop (sequential reference semantics).             *)

let checked_par_loop ~loop kernel set iterate args =
  validate_launch ~loop ~kind:Descriptor.Par_loop_d set args;
  let args_a = Array.of_list args in
  let nargs = Array.length args_a in
  (* E080: resolving snapshots the physical stores, so a mid-loop
     reallocation (injection growing the set inside a kernel) is caught
     on the very next element rather than corrupting silently *)
  let res = Seq.resolve args in
  let views = Seq.make_views res in
  let pre = Array.map (fun a -> Array.make (Arg.view_dim a) 0.0) args_a in
  (* (dat id, target element) -> first writing iteration element *)
  let writers : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let lo, hi = Seq.iter_range set iterate in
  let n0 = set.s_size in
  for e = lo to hi - 1 do
    for k = 0 to nargs - 1 do
      (match args_a.(k) with
      | Arg.Arg_gbl _ -> ()
      | Arg.Arg_dat d as a ->
          if Seq.stale res.(k) then
            Diag.violate ~code:"E080" ~loop ~dat:d.dat.d_name ~elem:e
              "storage of dat %s was reallocated during the loop (injection inside a kernel \
               grew set %s): views handed to earlier elements still point at the old array"
              d.dat.d_name d.dat.d_set.s_name;
          let target = target_elem ~loop e a in
          views.(k).View.data <- d.dat.d_data;
          views.(k).View.base <- target * d.dat.d_dim;
          (* E060: reading a halo copy that owners have overwritten *)
          if
            (d.acc = Read || d.acc = Rw)
            && target >= d.dat.d_set.s_exec_size
            && Opp_dist.Freshness.is_dirty d.dat
          then
            Diag.violate ~code:"E060" ~loop ~dat:d.dat.d_name ~elem:e
              "reads halo element %d of a dat written since its halo copies were last \
               exchanged (stale halo)"
              target;
          (* E050: non-Inc indirect writes must have unique targets *)
          (match (d.map, d.p2c, d.acc) with
          | (Some _, _, (Write | Rw)) | (_, Some _, (Write | Rw)) -> (
              let key = (d.dat.d_id, target) in
              match Hashtbl.find_opt writers key with
              | Some e' when e' <> e ->
                  Diag.violate ~code:"E050" ~loop ~dat:d.dat.d_name ~elem:e
                    "iteration elements %d and %d both write target element %d through an \
                     indirect non-Inc argument: a write race on every parallel backend"
                    e' e target
              | Some _ -> ()
              | None -> Hashtbl.add writers key e)
          | _ -> ()));
      (* shadow copies and canaries *)
      let v = views.(k) in
      match Arg.access args_a.(k) with
      | Read -> Array.blit v.View.data v.View.base pre.(k) 0 v.View.dim
      | Write -> View.fill v nan
      | Inc | Rw -> ()
    done;
    kernel views;
    for k = 0 to nargs - 1 do
      let v = views.(k) in
      let dat = dat_name args_a.(k) in
      (match Arg.access args_a.(k) with
      | Read ->
          for i = 0 to v.View.dim - 1 do
            if not (same (View.get v i) pre.(k).(i)) then
              Diag.violate ~code:"E020" ~loop ?dat ~elem:e
                "kernel wrote component %d of an argument declared Read (%g -> %g)" i
                pre.(k).(i) (View.get v i)
          done
      | Write ->
          for i = 0 to v.View.dim - 1 do
            let x = View.get v i in
            if x <> x then
              Diag.violate ~code:"E021" ~loop ?dat ~elem:e
                "component %d of an argument declared Write is NaN after the kernel: either \
                 left unwritten (the canary survived) or written as NaN"
                i
            else if not (finite x) then
              Diag.violate ~code:"E040" ~loop ?dat ~elem:e
                "kernel produced a non-finite value (%g) in component %d" x i
          done
      | Inc | Rw ->
          for i = 0 to v.View.dim - 1 do
            let x = View.get v i in
            if not (finite x) then
              Diag.violate ~code:"E040" ~loop ?dat ~elem:e
                "kernel produced a non-finite value (%g) in component %d" x i
          done)
    done
  done;
  if set.s_size <> n0 then
    Diag.violate ~code:"E080" ~loop
      "iteration set %s changed size during the loop (%d -> %d): particles were injected or \
       removed while their set was being iterated"
      set.s_name n0 set.s_size

(* ------------------------------------------------------------------ *)
(* Instrumented particle_move: delegate to the sequential engine with  *)
(* a wrapped kernel (the canary is NOT used — move kernels legally     *)
(* defer writes until the hop that answers Move_done).                 *)

let checked_particle_move ~loop ~dh kernel set (p2c : map) args =
  validate_launch ~loop ~kind:Descriptor.Particle_move_d set args;
  let cells = p2c.m_to in
  for p = 0 to set.s_size - 1 do
    let c = p2c.m_data.(p) in
    if c < 0 || c >= cells.s_size then
      Diag.violate ~code:"E030" ~loop ~elem:p
        "p2c map %s holds %d for a live particle at move entry, outside [0, %d) of set %s"
        p2c.m_name c cells.s_size cells.s_name
  done;
  let args_a = Array.of_list args in
  let pre = Array.map (fun a -> Array.make (Arg.view_dim a) 0.0) args_a in
  let wrapped views (ctx : Seq.move_ctx) =
    Array.iteri
      (fun k (v : View.t) ->
        if Arg.access args_a.(k) = Read then Array.blit v.View.data v.View.base pre.(k) 0 v.View.dim)
      views;
    kernel views ctx;
    Array.iteri
      (fun k (v : View.t) ->
        let dat = dat_name args_a.(k) in
        match Arg.access args_a.(k) with
        | Read ->
            for i = 0 to v.View.dim - 1 do
              if not (same (View.get v i) pre.(k).(i)) then
                Diag.violate ~code:"E020" ~loop ?dat
                  "move kernel wrote component %d of an argument declared Read (%g -> %g, \
                   cell %d)"
                  i pre.(k).(i) (View.get v i) ctx.Seq.cell
            done
        | Write | Inc | Rw ->
            for i = 0 to v.View.dim - 1 do
              let x = View.get v i in
              if not (finite x) then
                Diag.violate ~code:"E040" ~loop ?dat
                  "move kernel produced a non-finite value (%g) in component %d (cell %d)" x i
                  ctx.Seq.cell
            done)
      views;
    (* next-candidate bounds: a negative cell is a legal domain exit
       handled by the engine; beyond the cell count is corruption *)
    if ctx.Seq.status = Seq.Need_move && ctx.Seq.cell >= cells.s_size then
      Diag.violate ~code:"E030" ~loop
        "move kernel hopped to cell %d, outside [0, %d) of set %s" ctx.Seq.cell cells.s_size
        cells.s_name
  in
  (* the engine's own reallocation guard surfaces as the E080 code *)
  try Seq.particle_move ?dh ~name:loop wrapped set ~p2c args
  with Seq.Storage_reallocated msg -> Diag.violate ~code:"E080" ~loop "%s" msg

(* ------------------------------------------------------------------ *)

let runner ?(profile = Profile.global) (inner : Runner.t) : Runner.t =
  {
    Runner.r_name = inner.Runner.r_name ^ "+check";
    r_par_loop =
      (fun name _ kernel set iterate args -> checked_par_loop ~loop:name kernel set iterate args);
    r_particle_move =
      (fun name _ dh kernel set p2c args -> checked_particle_move ~loop:name ~dh kernel set p2c args);
    r_profile = profile;
    r_around = inner.Runner.r_around;
  }
