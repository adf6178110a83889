(** CabanaPIC written in the OP-PIC DSL: a 3-D electromagnetic
    two-stream PIC on a periodic cuboid mesh expressed as an
    unstructured mesh (paper section 4).

    Per-step kernel sequence (as in the paper's breakdown):
    Interpolate, Move_Deposit (Boris push folded into the first hop of
    the particle mover, depositing current into per-cell accumulators
    on every cell crossed), AccumulateCurrent, and the leap-frog field
    update AdvanceB(1/2) / AdvanceE / AdvanceB(1/2). The step is
    declared once, as a list of {!phases}: {!step} runs it on one sim,
    and the simulated-MPI driver ([Apps_dist.Cabana_dist]) runs the
    same list on every rank, migrating particles at the [Move] point. *)

open Opp_core
open Opp_core.Types

type t = {
  prm : Cabana_params.t;
  mesh : Opp_mesh.Hex_mesh.t;
  runner : Runner.t;
  profile : Profile.t;
  ctx : ctx;
  cells : set;
  parts : set;
  c2c27 : map;
  c2c6 : map;
  p2c : map;
  cell_e : dat;  (** E field, dim 3 *)
  cell_b : dat;  (** B field, dim 3 *)
  cell_j : dat;  (** current density, dim 3 *)
  cell_acc : dat;  (** current accumulator, dim 3 *)
  cell_interp : dat;  (** interpolator coefficients, dim 18 *)
  part_off : dat;  (** cell-normalised offsets in [-1,1]^3 *)
  part_vel : dat;
  part_disp : dat;  (** remaining displacement during a move *)
  part_w : dat;  (** macro weight *)
  dt : float;
  locality : Opp_locality.Sched.t option;
      (** sort scheduler; share the same scheduler with the backend
          runner so binned iteration and the physical sort agree *)
  mutable step_count : int;
  mutable last_move : Seq.move_result option;
}

(* stencil slots of the 27-point map *)
let s_own = Opp_mesh.Hex_mesh.slot ~dx:0 ~dy:0 ~dz:0
let s_px = Opp_mesh.Hex_mesh.slot ~dx:1 ~dy:0 ~dz:0
let s_py = Opp_mesh.Hex_mesh.slot ~dx:0 ~dy:1 ~dz:0
let s_pz = Opp_mesh.Hex_mesh.slot ~dx:0 ~dy:0 ~dz:1
let s_pyz = Opp_mesh.Hex_mesh.slot ~dx:0 ~dy:1 ~dz:1
let s_pzx = Opp_mesh.Hex_mesh.slot ~dx:1 ~dy:0 ~dz:1
let s_pxy = Opp_mesh.Hex_mesh.slot ~dx:1 ~dy:1 ~dz:0
let s_mx = Opp_mesh.Hex_mesh.slot ~dx:(-1) ~dy:0 ~dz:0
let s_my = Opp_mesh.Hex_mesh.slot ~dx:0 ~dy:(-1) ~dz:0
let s_mz = Opp_mesh.Hex_mesh.slot ~dx:0 ~dy:0 ~dz:(-1)

(** Rank-local connectivity override for the distributed backend.
    Cells [0, tp_owned) are owned; the rest are halo copies. Map
    entries pointing outside the local cell list are -1 (the mover
    never runs there: it stops at halo cells and migrates). *)
type topology = {
  tp_ncells : int;
  tp_owned : int;
  tp_c2c27 : int array;
  tp_c2c6 : int array;
  tp_cell_gid : int array;  (** local -> global cell id (RNG seeds) *)
  tp_cell_z0 : float array;  (** z origin of each local cell *)
}

(** The trivial topology of a single-rank run. *)
let default_topology (prm : Cabana_params.t) (mesh : Opp_mesh.Hex_mesh.t) =
  let ncells = mesh.Opp_mesh.Hex_mesh.ncells in
  let dz = Cabana_params.dz prm in
  {
    tp_ncells = ncells;
    tp_owned = ncells;
    tp_c2c27 = mesh.Opp_mesh.Hex_mesh.cell_cell27;
    tp_c2c6 = Opp_mesh.Hex_mesh.face_neighbours mesh;
    tp_cell_gid = Array.init ncells Fun.id;
    tp_cell_z0 =
      Array.init ncells (fun c ->
          let _, _, k = Opp_mesh.Hex_mesh.cell_ijk mesh c in
          float_of_int k *. dz);
  }

(* --- kernels --- *)

(* views: 0 interp W | 1..7 E (own px py pz pyz pzx pxy) R | 8..11 B
   (own px py pz) R *)
let interpolate_kernel views =
  let interp = views.(0) in
  let get_e slot comp =
    let vi =
      match slot with
      | Cabana_phys.Own -> 1
      | Cabana_phys.Px -> 2
      | Cabana_phys.Py -> 3
      | Cabana_phys.Pz -> 4
      | Cabana_phys.Pyz -> 5
      | Cabana_phys.Pzx -> 6
      | Cabana_phys.Pxy -> 7
    in
    View.get views.(vi) comp
  in
  let get_b slot comp =
    let vi =
      match slot with
      | Cabana_phys.Own -> 8
      | Cabana_phys.Px -> 9
      | Cabana_phys.Py -> 10
      | Cabana_phys.Pz -> 11
      | Cabana_phys.Pyz | Cabana_phys.Pzx | Cabana_phys.Pxy ->
          invalid_arg "interpolate: B slot"
    in
    View.get views.(vi) comp
  in
  Cabana_phys.build_interpolator ~get_e ~get_b ~set:(fun i v -> View.set interp i v)

(* views: 0 interp R (follows candidate cell) | 1 off RW | 2 vel RW |
   3 disp RW | 4 w R | 5 acc INC (follows candidate cell) *)
let move_deposit_kernel ~qmdt2 ~dt ~deltas ~c2c6_data views (mc : Seq.move_ctx) =
  let interp = views.(0) and off = views.(1) and vel = views.(2) in
  let disp = views.(3) and w = views.(4) and acc = views.(5) in
  let o = [| View.get off 0; View.get off 1; View.get off 2 |] in
  let r = [| View.get disp 0; View.get disp 1; View.get disp 2 |] in
  (* a zero remaining displacement marks a fresh step: do the push once
     per particle per step, even when the walk resumes on another rank
     after migration (mc.hop restarts at 0 there) *)
  ignore mc.Seq.hop;
  if r.(0) = 0.0 && r.(1) = 0.0 && r.(2) = 0.0 then begin
    (* the push: interpolate fields at the particle and Boris-rotate *)
    let ex, ey, ez, bx, by, bz =
      Cabana_phys.eval_fields ~g:(fun i -> View.get interp i) ~ox:o.(0) ~oy:o.(1) ~oz:o.(2)
    in
    let v = [| View.get vel 0; View.get vel 1; View.get vel 2 |] in
    Cabana_phys.boris ~qmdt2 ~ex ~ey ~ez ~bx ~by ~bz v;
    for d = 0 to 2 do
      View.set vel d v.(d);
      (* displacement in cell-normalised units: the cell spans 2 *)
      r.(d) <- 2.0 *. v.(d) *. dt /. deltas.(d)
    done
  end;
  let trav = [| 0.0; 0.0; 0.0 |] in
  let face = Cabana_phys.stream o r trav in
  (* deposit the current carried over the traversed segment *)
  let qw = Cabana_params.qe *. View.get w 0 in
  for d = 0 to 2 do
    View.inc acc d (qw *. (trav.(d) *. deltas.(d) /. 2.0) /. dt)
  done;
  let finish () =
    for d = 0 to 2 do
      View.set off d o.(d);
      (* exactly zero, so the next step's kernel re-pushes *)
      View.set disp d 0.0
    done;
    mc.Seq.status <- Seq.Move_done
  in
  if face < 0 then finish ()
  else begin
    (* the offset already describes the entered neighbour, so the cell
       must advance even if the displacement is now spent *)
    mc.Seq.cell <- c2c6_data.((6 * mc.Seq.cell) + face);
    if Cabana_phys.spent r then finish ()
    else begin
      for d = 0 to 2 do
        View.set off d o.(d);
        View.set disp d r.(d)
      done;
      mc.Seq.status <- Seq.Need_move
    end
  end

let reset_acc_kernel views = View.fill views.(0) 0.0

(* views: 0 acc R | 1 j W *)
let accumulate_current_kernel ~inv_vol views =
  for d = 0 to 2 do
    View.set views.(1) d (View.get views.(0) d *. inv_vol)
  done

(* views: 0 b RW | 1 e own | 2 e+x | 3 e+y | 4 e+z *)
let advance_b_kernel ~frac_dt ~dx ~dy ~dz views =
  let ge slot comp = View.get views.(slot + 1) comp in
  let cx, cy, cz = Cabana_phys.curl_e_forward ~ge ~dx ~dy ~dz in
  View.inc views.(0) 0 (-.frac_dt *. cx);
  View.inc views.(0) 1 (-.frac_dt *. cy);
  View.inc views.(0) 2 (-.frac_dt *. cz)

(* views: 0 e RW | 1 b own | 2 b-x | 3 b-y | 4 b-z | 5 j R *)
let advance_e_kernel ~dt ~dx ~dy ~dz views =
  let gb slot comp = View.get views.(slot + 1) comp in
  let cx, cy, cz = Cabana_phys.curl_b_backward ~gb ~dx ~dy ~dz in
  View.inc views.(0) 0 (dt *. (cx -. View.get views.(5) 0));
  View.inc views.(0) 1 (dt *. (cy -. View.get views.(5) 1));
  View.inc views.(0) 2 (dt *. (cz -. View.get views.(5) 2))

(* views: 0 e R | 1 b R | 2 gbl INC [e_energy; b_energy] *)
let field_energy_kernel ~half_vol views =
  let sq v i = View.get v i *. View.get v i in
  View.inc views.(2) 0 (half_vol *. (sq views.(0) 0 +. sq views.(0) 1 +. sq views.(0) 2));
  View.inc views.(2) 1 (half_vol *. (sq views.(1) 0 +. sq views.(1) 1 +. sq views.(1) 2))

(* --- construction --- *)

let create ?(prm = Cabana_params.default) ?(runner = Runner.seq ()) ?(profile = Profile.global)
    ?locality ?topology () =
  let mesh =
    Opp_mesh.Hex_mesh.build ~nx:prm.Cabana_params.nx ~ny:prm.Cabana_params.ny
      ~nz:prm.Cabana_params.nz ~lx:prm.Cabana_params.lx ~ly:prm.Cabana_params.ly
      ~lz:prm.Cabana_params.lz
  in
  let tp = match topology with Some t -> t | None -> default_topology prm mesh in
  let ctx = Opp.init () in
  let ncells = tp.tp_ncells in
  let cells = Opp.decl_set ctx ~name:"cells" ncells in
  cells.s_exec_size <- tp.tp_owned;
  let parts = Opp.decl_particle_set ctx ~name:"electrons" cells in
  let c2c27 =
    Opp.decl_map ctx ~name:"cell_stencil" ~from:cells ~to_:cells ~arity:27 (Some tp.tp_c2c27)
  in
  let c2c6 =
    Opp.decl_map ctx ~name:"cell_faces" ~from:cells ~to_:cells ~arity:6 (Some tp.tp_c2c6)
  in
  let p2c = Opp.decl_map ctx ~name:"particle_to_cell" ~from:parts ~to_:cells ~arity:1 None in
  let cell_e = Opp.decl_dat ctx ~name:"cell_e" ~set:cells ~dim:3 None in
  let cell_b = Opp.decl_dat ctx ~name:"cell_b" ~set:cells ~dim:3 None in
  let cell_j = Opp.decl_dat ctx ~name:"cell_j" ~set:cells ~dim:3 None in
  let cell_acc = Opp.decl_dat ctx ~name:"cell_acc" ~set:cells ~dim:3 None in
  let cell_interp = Opp.decl_dat ctx ~name:"cell_interp" ~set:cells ~dim:18 None in
  let part_off = Opp.decl_dat ctx ~name:"part_off" ~set:parts ~dim:3 None in
  let part_vel = Opp.decl_dat ctx ~name:"part_vel" ~set:parts ~dim:3 None in
  let part_disp = Opp.decl_dat ctx ~name:"part_disp" ~set:parts ~dim:3 None in
  let part_w = Opp.decl_dat ctx ~name:"part_w" ~set:parts ~dim:1 None in
  let t =
    {
      prm;
      mesh;
      runner;
      profile;
      ctx;
      cells;
      parts;
      c2c27;
      c2c6;
      p2c;
      cell_e;
      cell_b;
      cell_j;
      cell_acc;
      cell_interp;
      part_off;
      part_vel;
      part_disp;
      part_w;
      dt = Cabana_params.dt prm;
      locality;
      step_count = 0;
      last_move = None;
    }
  in
  (* two-stream initial particle load over owned cells; the RNG is
     seeded by global cell id so any partitioning reproduces the
     identical load *)
  let ppc = prm.Cabana_params.ppc in
  let w = Cabana_params.weight prm in
  let dz = Cabana_params.dz prm in
  let start = Opp.inject parts (tp.tp_owned * ppc) in
  assert (start = 0);
  for c = 0 to tp.tp_owned - 1 do
    let rng = Rng.create (prm.Cabana_params.seed + tp.tp_cell_gid.(c)) in
    let z0 = tp.tp_cell_z0.(c) in
    for p = 0 to ppc - 1 do
      let idx = (c * ppc) + p in
      let off, vel = Cabana_phys.two_stream_particle rng ~prm ~idx:p ~z0 ~dz in
      for d = 0 to 2 do
        t.part_off.d_data.((3 * idx) + d) <- off.(d);
        t.part_vel.d_data.((3 * idx) + d) <- vel.(d)
      done;
      t.part_w.d_data.(idx) <- w;
      t.p2c.m_data.(idx) <- c
    done
  done;
  Opp.reset_injected parts;
  t

(* --- step phases --- *)

let arg_stencil t dat slot = Opp.arg_dat_i dat ~idx:slot ~map:t.c2c27 Opp.read

let interpolate t =
  Runner.par_loop t.runner ~name:"Interpolate"
    ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "Interpolate") interpolate_kernel t.cells
    Opp.core
    [
      Opp.arg_dat t.cell_interp Opp.write;
      arg_stencil t t.cell_e s_own;
      arg_stencil t t.cell_e s_px;
      arg_stencil t t.cell_e s_py;
      arg_stencil t t.cell_e s_pz;
      arg_stencil t t.cell_e s_pyz;
      arg_stencil t t.cell_e s_pzx;
      arg_stencil t t.cell_e s_pxy;
      arg_stencil t t.cell_b s_own;
      arg_stencil t t.cell_b s_px;
      arg_stencil t t.cell_b s_py;
      arg_stencil t t.cell_b s_pz;
    ]

let reset_accumulator t =
  Runner.par_loop t.runner ~name:"ResetAccumulator" reset_acc_kernel t.cells Opp.core
    [ Opp.arg_dat t.cell_acc Opp.write ]

(** The combined push / streaming-move / current-deposit loop. The
    distributed driver passes [should_stop] / [on_pending] / [iterate]
    (routing around the runner, as in {!Fempic.Fempic_sim.move}). A
    fresh walk starts from a zero accumulator; continuing the walks of
    received migrants ([Iterate_injected]) adds to it. *)
let move_deposit ?should_stop ?on_pending ?iterate t =
  if iterate <> Some Seq.Iterate_injected then reset_accumulator t;
  let prm = t.prm in
  let qmdt2 = Cabana_params.qe /. Cabana_params.me *. t.dt /. 2.0 in
  let deltas = [| Cabana_params.dx prm; Cabana_params.dy prm; Cabana_params.dz prm |] in
  let kernel = move_deposit_kernel ~qmdt2 ~dt:t.dt ~deltas ~c2c6_data:t.c2c6.m_data in
  let args =
    [
      Opp.arg_dat_p2c t.cell_interp ~p2c:t.p2c Opp.read;
      Opp.arg_dat t.part_off Opp.rw;
      Opp.arg_dat t.part_vel Opp.rw;
      Opp.arg_dat t.part_disp Opp.rw;
      Opp.arg_dat t.part_w Opp.read;
      Opp.arg_dat_p2c t.cell_acc ~p2c:t.p2c Opp.inc;
    ]
  in
  let r =
    match (should_stop, on_pending, iterate) with
    | None, None, None ->
        Runner.particle_move t.runner ~name:"Move_Deposit"
          ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "Move_Deposit") kernel
          t.parts ~p2c:t.p2c args
    | _ ->
        Runner.traced_move t.runner ~name:"Move_Deposit"
          ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "Move_Deposit") ~args (fun () ->
            Seq.particle_move ?should_stop ?on_pending ?iterate ~name:"Move_Deposit" kernel
              t.parts ~p2c:t.p2c args)
  in
  t.last_move <- Some r;
  r

let accumulate_current t =
  let inv_vol = 1.0 /. Opp_mesh.Hex_mesh.cell_volume t.mesh in
  Runner.par_loop t.runner ~name:"AccumulateCurrent"
    ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "AccumulateCurrent")
    (accumulate_current_kernel ~inv_vol)
    t.cells Opp.core
    [ Opp.arg_dat t.cell_acc Opp.read; Opp.arg_dat t.cell_j Opp.write ]

let advance_b t ~frac =
  let prm = t.prm in
  Runner.par_loop t.runner ~name:"AdvanceB" ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "AdvanceB")
    (advance_b_kernel ~frac_dt:(frac *. t.dt) ~dx:(Cabana_params.dx prm)
       ~dy:(Cabana_params.dy prm) ~dz:(Cabana_params.dz prm))
    t.cells Opp.core
    [
      Opp.arg_dat t.cell_b Opp.rw;
      arg_stencil t t.cell_e s_own;
      arg_stencil t t.cell_e s_px;
      arg_stencil t t.cell_e s_py;
      arg_stencil t t.cell_e s_pz;
    ]

let advance_e t =
  let prm = t.prm in
  Runner.par_loop t.runner ~name:"AdvanceE" ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "AdvanceE")
    (advance_e_kernel ~dt:t.dt ~dx:(Cabana_params.dx prm) ~dy:(Cabana_params.dy prm)
       ~dz:(Cabana_params.dz prm))
    t.cells Opp.core
    [
      Opp.arg_dat t.cell_e Opp.rw;
      arg_stencil t t.cell_b s_own;
      arg_stencil t t.cell_b s_mx;
      arg_stencil t t.cell_b s_my;
      arg_stencil t t.cell_b s_mz;
      Opp.arg_dat t.cell_j Opp.read;
    ]

(* Step-boundary scheduling point: hand the particle set to the sort
   scheduler (no-op without [?locality]); the previous move's mean
   hop count feeds the degradation trigger. *)
let schedule_locality t =
  match t.locality with
  | None -> ()
  | Some sched ->
      let mean_hops =
        match t.last_move with
        | Some mv when mv.Seq.mv_moved + mv.Seq.mv_removed + mv.Seq.mv_sent > 0 ->
            Some
              (float_of_int mv.Seq.mv_total_hops
              /. float_of_int (mv.Seq.mv_moved + mv.Seq.mv_removed + mv.Seq.mv_sent))
        | _ -> None
      in
      ignore (Opp_locality.Sched.maybe_sort sched ?mean_hops t.parts)

(* --- the step, declared once --- *)

(** A step phase: a named rank-local phase, or the particle move — the
    collective point where a distributed driver migrates particles. *)
type phase = Local of string * (t -> unit) | Move

(** The paper's kernel sequence, in order. *)
let phases t =
  (if t.locality = None then [] else [ Local ("SortSchedule", schedule_locality) ])
  @ [
      Local ("Interpolate", interpolate);
      Move;
      Local ("AccumulateCurrent", accumulate_current);
      Local ("AdvanceB", advance_b ~frac:0.5);
      Local ("AdvanceE", advance_e);
      Local ("AdvanceB2", advance_b ~frac:0.5);
    ]

let step t =
  List.iter (function Local (_, f) -> f t | Move -> ignore (move_deposit t)) (phases t);
  t.step_count <- t.step_count + 1;
  Runner.step_end ~step:t.step_count

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

(* --- diagnostics --- *)

type energies = { e_field : float; b_field : float; kinetic : float }

let energies t =
  let acc = [| 0.0; 0.0 |] in
  let half_vol = 0.5 *. Opp_mesh.Hex_mesh.cell_volume t.mesh in
  Runner.par_loop t.runner ~name:"FieldEnergy" ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "FieldEnergy")
    (field_energy_kernel ~half_vol) t.cells Opp.core
    [ Opp.arg_dat t.cell_e Opp.read; Opp.arg_dat t.cell_b Opp.read; Opp.arg_gbl acc Opp.inc ];
  let ke = [| 0.0 |] in
  Runner.par_loop t.runner ~name:"KineticEnergy" ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "KineticEnergy")
    (fun v ->
      let sq i = View.get v.(0) i *. View.get v.(0) i in
      View.inc v.(2) 0
        (0.5 *. Cabana_params.me *. View.get v.(1) 0 *. (sq 0 +. sq 1 +. sq 2)))
    t.parts Opp.all
    [ Opp.arg_dat t.part_vel Opp.read; Opp.arg_dat t.part_w Opp.read; Opp.arg_gbl ke Opp.inc ];
  { e_field = acc.(0); b_field = acc.(1); kinetic = ke.(0) }
