(** Mini-FEM-PIC: an electrostatic 3-D unstructured-mesh finite-element
    PIC code written in the OP-PIC DSL (paper section 4, after Wright
    et al.'s FEM-PIC miniapp).

    Ions are injected at a constant rate through the inlet faces of a
    tetrahedral duct, drift under the self-consistent electric field,
    and are removed when they leave the domain; the duct wall carries a
    retaining potential. Each step runs the paper's kernel sequence:
    Inject, CalcPosVel, Move (multi-hop or direct-hop), DepositCharge,
    ComputeNodeChargeDensity, the nonlinear field solve
    (ComputeJMatrix / ComputeF1Vector / Solve), and
    ComputeElectricField.

    Injection draws from one RNG stream per inlet face (keyed by the
    face's stable [f_id]), so a distributed run over any partitioning
    injects exactly the particles the sequential run does. The step is
    declared once, as a list of {!phases}: {!step} runs it on one sim,
    and the simulated-MPI driver ([Apps_dist.Fempic_dist]) runs the
    same list on every rank, with its own particle migration and
    gather-solve-scatter at the [Move] and [Solve] points. *)

open Opp_core
open Opp_core.Types

(* View.get/set/inc inlined here: -opaque (dev profile) makes each an out-of-line, float-boxing call. *)
let[@inline] get v i = v.View.data.(v.View.base + i)
let[@inline] set v i x = v.View.data.(v.View.base + i) <- x
let[@inline] inc v i x = v.View.data.(v.View.base + i) <- v.View.data.(v.View.base + i) +. x

type t = {
  mesh : Opp_mesh.Tet_mesh.t;
  prm : Params.t;
  runner : Runner.t;
  profile : Profile.t;
  ctx : ctx;
  cells : set;
  nodes : set;
  parts : set;
  c2n : map;
  c2c : map;
  p2c : map;
  cell_ef : dat;  (** electric field per cell, dim 3 *)
  cell_det : dat;  (** barycentric coefficients ("cell determinants"), dim 16 *)
  cell_volume : dat;
  node_phi : dat;  (** potential, dim 1 *)
  node_charge : dat;  (** deposited macro charge, C *)
  node_charge_den : dat;  (** charge density, C/m^3 *)
  node_volume : dat;
  part_pos : dat;  (** dim 3 *)
  part_vel : dat;  (** dim 3 *)
  part_lc : dat;  (** barycentric weights at the final cell, dim 4 *)
  solver : Field_solver.t option;
      (** [None] on a rank sim, whose potential its handle solves *)
  spwt : float;  (** macro-particle weight *)
  face_rate : float array;  (** macro-particles per step, per local inlet face *)
  face_carry : float array;
  face_rng : Rng.t array;
  dh : (int -> int) option;  (** direct-hop locator, when enabled *)
  collisions : Collisions.t option;  (** MCC against a neutral background *)
  mutable step_count : int;
  mutable injected : int;  (** particles the last Inject phase added *)
  mutable last_solver_stats : Field_solver.stats option;
  mutable last_move : Seq.move_result option;
}

(* --- kernels (pure functions of their views, written once and reused
   by every backend) --- *)

let calc_pos_vel_kernel ~qm ~dt views =
  let ef = views.(0) and vel = views.(1) and pos = views.(2) in
  for d = 0 to 2 do
    inc vel d (qm *. dt *. get ef d)
  done;
  for d = 0 to 2 do
    inc pos d (dt *. get vel d)
  done

(* Leapfrog alignment for freshly injected particles: pull the velocity
   back half a step. *)
let inject_kernel ~qm ~dt views =
  let ef = views.(0) and vel = views.(1) in
  for d = 0 to 2 do
    inc vel d (-0.5 *. qm *. dt *. get ef d)
  done

(* Barycentric walk: locate the particle; exit through the face of the
   most negative weight when outside (paper's multi-hop tracking). *)
let move_kernel ~c2c_data views (mc : Seq.move_ctx) =
  let pos = views.(0) and lc = views.(1) and det = views.(2) in
  let x = get pos 0 and y = get pos 1 and z = get pos 2 in
  let l0 = get det 0 +. (get det 1 *. x) +. (get det 2 *. y) +. (get det 3 *. z) in
  let l1 = get det 4 +. (get det 5 *. x) +. (get det 6 *. y) +. (get det 7 *. z) in
  let l2 = get det 8 +. (get det 9 *. x) +. (get det 10 *. y) +. (get det 11 *. z) in
  let l3 = get det 12 +. (get det 13 *. x) +. (get det 14 *. y) +. (get det 15 *. z) in
  let eps = -1e-12 in
  if l0 >= eps && l1 >= eps && l2 >= eps && l3 >= eps then begin
    set lc 0 l0;
    set lc 1 l1;
    set lc 2 l2;
    set lc 3 l3;
    mc.Seq.status <- Seq.Move_done
  end
  else begin
    let jmin = ref 0 and lmin = ref l0 in
    if l1 < !lmin then begin
      jmin := 1;
      lmin := l1
    end;
    if l2 < !lmin then begin
      jmin := 2;
      lmin := l2
    end;
    if l3 < !lmin then begin
      jmin := 3;
      lmin := l3
    end;
    let next = c2c_data.((4 * mc.Seq.cell) + !jmin) in
    if next < 0 then mc.Seq.status <- Seq.Need_remove
    else begin
      mc.Seq.cell <- next;
      mc.Seq.status <- Seq.Need_move
    end
  end

let deposit_kernel ~charge views =
  let lc = views.(0) in
  for i = 0 to 3 do
    inc views.(i + 1) 0 (charge *. get lc i)
  done

let charge_density_kernel views =
  let q = views.(0) and vol = views.(1) and den = views.(2) in
  set den 0 (get q 0 /. get vol 0)

let reset_kernel views = View.fill views.(0) 0.0

let electric_field_kernel views =
  let ef = views.(0) and det = views.(1) in
  for d = 0 to 2 do
    let s = ref 0.0 in
    for i = 0 to 3 do
      s := !s +. (get views.(i + 2) 0 *. get det ((i * 4) + 1 + d))
    done;
    set ef d (-. !s)
  done

(* --- construction --- *)

(** Inlet and wall nodes are Dirichlet nodes: set their potentials in
    [phi] and return the mask of the nodes the field solve updates. *)
let dirichlet ~prm (mesh : Opp_mesh.Tet_mesh.t) phi =
  let active = Array.make mesh.Opp_mesh.Tet_mesh.nnodes true in
  Array.iteri
    (fun n kind ->
      match kind with
      | Opp_mesh.Tet_mesh.Inlet ->
          active.(n) <- false;
          phi.(n) <- prm.Params.inlet_potential
      | Opp_mesh.Tet_mesh.Wall ->
          active.(n) <- false;
          phi.(n) <- prm.Params.wall_potential
      | Opp_mesh.Tet_mesh.Outlet | Opp_mesh.Tet_mesh.Interior -> ())
    mesh.Opp_mesh.Tet_mesh.node_kind;
  active

(** The nonlinear field solver over [mesh] — one per run, timed as
    [ComputeJMatrix]. *)
let field_solver ~profile ~prm (mesh : Opp_mesh.Tet_mesh.t) ~active =
  let nnodes = mesh.Opp_mesh.Tet_mesh.nnodes in
  Profile.timed ~t:profile ~name:"ComputeJMatrix" (fun () ->
      Field_solver.create ~nnodes ~ncells:mesh.Opp_mesh.Tet_mesh.ncells
        ~cell_nodes:mesh.Opp_mesh.Tet_mesh.cell_nodes ~cell_bary:mesh.Opp_mesh.Tet_mesh.cell_bary
        ~cell_volume:mesh.Opp_mesh.Tet_mesh.cell_volume
        ~node_volume:mesh.Opp_mesh.Tet_mesh.node_volume ~active
        ~comm:(Field_solver.comm_seq ~nnodes) prm)

(** Build a simulation on [mesh]. [total_inlet_area] is the area of the
    whole problem's inlet (defaults to this mesh's inlet): rank-local
    meshes of a distributed run pass the global value so that
    per-face injection rates and the macro-particle weight match the
    sequential run. [solve = false] builds no field solver, for a rank
    sim whose potential is solved by its handle. A positive
    [neutral_density] (m^-3) adds Monte-Carlo collisions against a
    neutral background as the step's last phase, drawing from the RNG
    stream [collision_seed] (a rank sim passes its own). *)
let create ?(prm = Params.default) ?(runner = Runner.seq ()) ?(profile = Profile.global)
    ?(use_direct_hop = false) ?total_inlet_area ?(solve = true)
    ?(neutral_density = 0.0) ?(collision_seed = prm.Params.seed + 1) (mesh : Opp_mesh.Tet_mesh.t)
    =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" mesh.Opp_mesh.Tet_mesh.ncells in
  let nodes = Opp.decl_set ctx ~name:"nodes" mesh.Opp_mesh.Tet_mesh.nnodes in
  let parts = Opp.decl_particle_set ctx ~name:"ions" cells in
  let c2n =
    Opp.decl_map ctx ~name:"cell_to_nodes" ~from:cells ~to_:nodes ~arity:4
      (Some mesh.Opp_mesh.Tet_mesh.cell_nodes)
  in
  let c2c =
    Opp.decl_map ctx ~name:"cell_to_cells" ~from:cells ~to_:cells ~arity:4
      (Some mesh.Opp_mesh.Tet_mesh.cell_cell)
  in
  let p2c = Opp.decl_map ctx ~name:"particle_to_cell" ~from:parts ~to_:cells ~arity:1 None in
  let cell_ef = Opp.decl_dat ctx ~name:"electric_field" ~set:cells ~dim:3 None in
  let cell_det =
    Opp.decl_dat ctx ~name:"cell_determinants" ~set:cells ~dim:16
      (Some mesh.Opp_mesh.Tet_mesh.cell_bary)
  in
  let cell_volume =
    Opp.decl_dat ctx ~name:"cell_volume" ~set:cells ~dim:1 (Some mesh.Opp_mesh.Tet_mesh.cell_volume)
  in
  let node_phi = Opp.decl_dat ctx ~name:"node_potential" ~set:nodes ~dim:1 None in
  let node_charge = Opp.decl_dat ctx ~name:"node_charge" ~set:nodes ~dim:1 None in
  let node_charge_den = Opp.decl_dat ctx ~name:"node_charge_density" ~set:nodes ~dim:1 None in
  let node_volume =
    Opp.decl_dat ctx ~name:"node_volume" ~set:nodes ~dim:1 (Some mesh.Opp_mesh.Tet_mesh.node_volume)
  in
  let part_pos = Opp.decl_dat ctx ~name:"particle_position" ~set:parts ~dim:3 None in
  let part_vel = Opp.decl_dat ctx ~name:"particle_velocity" ~set:parts ~dim:3 None in
  let part_lc = Opp.decl_dat ctx ~name:"particle_lc" ~set:parts ~dim:4 None in
  let active = dirichlet ~prm mesh node_phi.d_data in
  let solver = if solve then Some (field_solver ~profile ~prm mesh ~active) else None in
  let faces = mesh.Opp_mesh.Tet_mesh.inlet_faces in
  let local_area = Array.fold_left (fun acc f -> acc +. f.Opp_mesh.Tet_mesh.f_area) 0.0 faces in
  let total_area =
    match total_inlet_area with
    | Some a -> a
    | None ->
        if Array.length faces = 0 then
          invalid_arg "Fempic_sim.create: mesh has no inlet faces";
        local_area
  in
  let lz = mesh.Opp_mesh.Tet_mesh.lz in
  let global_rate = Params.injection_rate prm ~lz in
  let face_rate =
    Array.map (fun f -> global_rate *. f.Opp_mesh.Tet_mesh.f_area /. total_area) faces
  in
  let face_rng =
    Array.map (fun f -> Rng.create (prm.Params.seed + f.Opp_mesh.Tet_mesh.f_id)) faces
  in
  let dh =
    if not use_direct_hop then None
    else begin
      let overlay = Opp_mesh.Overlay.of_tet_mesh mesh in
      Some
        (fun p ->
          let d = part_pos.d_data in
          Opp_mesh.Overlay.locate overlay ~x:d.(3 * p) ~y:d.((3 * p) + 1) ~z:d.((3 * p) + 2))
    end
  in
  {
    mesh;
    prm;
    runner;
    profile;
    ctx;
    cells;
    nodes;
    parts;
    c2n;
    c2c;
    p2c;
    cell_ef;
    cell_det;
    cell_volume;
    node_phi;
    node_charge;
    node_charge_den;
    node_volume;
    part_pos;
    part_vel;
    part_lc;
    solver;
    spwt =
      prm.Params.plasma_den *. prm.Params.ion_velocity *. total_area *. prm.Params.dt
      /. global_rate;
    face_rate;
    face_carry = Array.map (fun _ -> 0.0) face_rate;
    face_rng;
    dh;
    collisions =
      (if neutral_density > 0.0 then
         Some
           (Collisions.create ~neutral_density ~dt:prm.Params.dt ~parts ~part_vel
              ~seed:collision_seed ())
       else None);
    step_count = 0;
    injected = 0;
    last_solver_stats = None;
    last_move = None;
  }

(* --- per-step phases --- *)

let inject_particles t =
  let faces = t.mesh.Opp_mesh.Tet_mesh.inlet_faces in
  let counts =
    Array.mapi
      (fun i _ ->
        let want = t.face_rate.(i) +. t.face_carry.(i) in
        let n = int_of_float want in
        t.face_carry.(i) <- want -. float_of_int n;
        n)
      faces
  in
  let total = Array.fold_left ( + ) 0 counts in
  if total > 0 then begin
    let start = Opp.inject t.parts total in
    let node_pos = t.mesh.Opp_mesh.Tet_mesh.node_pos in
    let idx = ref start in
    Array.iteri
      (fun fi f ->
        let rng = t.face_rng.(fi) in
        let vertex s =
          let nd = f.Opp_mesh.Tet_mesh.f_nodes.(s) in
          [| node_pos.(3 * nd); node_pos.((3 * nd) + 1); node_pos.((3 * nd) + 2) |]
        in
        for _ = 1 to counts.(fi) do
          let p = Opp_mesh.Geom.sample_triangle rng (vertex 0) (vertex 1) (vertex 2) in
          let vth = t.prm.Params.thermal_velocity in
          t.part_pos.d_data.(3 * !idx) <- p.(0);
          t.part_pos.d_data.((3 * !idx) + 1) <- p.(1);
          t.part_pos.d_data.((3 * !idx) + 2) <- p.(2);
          t.part_vel.d_data.(3 * !idx) <- vth *. Rng.gaussian rng;
          t.part_vel.d_data.((3 * !idx) + 1) <- vth *. Rng.gaussian rng;
          t.part_vel.d_data.((3 * !idx) + 2) <-
            t.prm.Params.ion_velocity +. (vth *. Rng.gaussian rng);
          t.p2c.m_data.(!idx) <- f.Opp_mesh.Tet_mesh.f_cell;
          incr idx
        done)
      faces;
    let qm = t.prm.Params.ion_charge /. t.prm.Params.ion_mass in
    Runner.par_loop t.runner ~name:"Inject" ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "Inject")
      (inject_kernel ~qm ~dt:t.prm.Params.dt)
      t.parts Opp.injected
      [ Opp.arg_dat_p2c t.cell_ef ~p2c:t.p2c Opp.read; Opp.arg_dat t.part_vel Opp.rw ];
    Opp.reset_injected t.parts
  end;
  total

let calc_pos_vel t =
  let qm = t.prm.Params.ion_charge /. t.prm.Params.ion_mass in
  Runner.par_loop t.runner ~name:"CalcPosVel" ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "CalcPosVel")
    (calc_pos_vel_kernel ~qm ~dt:t.prm.Params.dt)
    t.parts Opp.all
    [
      Opp.arg_dat_p2c t.cell_ef ~p2c:t.p2c Opp.read;
      Opp.arg_dat t.part_vel Opp.rw;
      Opp.arg_dat t.part_pos Opp.rw;
    ]

(** The particle mover. The distributed driver passes [should_stop] /
    [on_pending] (for particles crossing the rank boundary) and
    [iterate] (to continue only freshly received particles); those
    options route around the runner to the reference engine. *)
let move ?should_stop ?on_pending ?iterate t =
  let args =
    [
      Opp.arg_dat t.part_pos Opp.read;
      Opp.arg_dat t.part_lc Opp.write;
      Opp.arg_dat_p2c t.cell_det ~p2c:t.p2c Opp.read;
    ]
  in
  let kernel = move_kernel ~c2c_data:t.c2c.m_data in
  let r =
    match (should_stop, on_pending, iterate) with
    | None, None, None ->
        Runner.particle_move t.runner ~name:"Move"
          ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "Move") ?dh:t.dh kernel
          t.parts ~p2c:t.p2c args
    | _ ->
        Runner.traced_move t.runner ~name:"Move"
          ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "Move") ~args (fun () ->
            Seq.particle_move ?dh:t.dh ?should_stop ?on_pending ?iterate ~name:"Move" kernel
              t.parts ~p2c:t.p2c args)
  in
  t.last_move <- Some r;
  r

let deposit_charge t =
  Runner.par_loop t.runner ~name:"ResetCharge" reset_kernel t.nodes Opp.all
    [ Opp.arg_dat t.node_charge Opp.write ];
  let charge = t.spwt *. t.prm.Params.ion_charge in
  Runner.par_loop t.runner ~name:"DepositCharge" ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "DepositCharge") (deposit_kernel ~charge)
    t.parts Opp.all
    [
      Opp.arg_dat t.part_lc Opp.read;
      Opp.arg_dat_p2c_i t.node_charge ~idx:0 ~map:t.c2n ~p2c:t.p2c Opp.inc;
      Opp.arg_dat_p2c_i t.node_charge ~idx:1 ~map:t.c2n ~p2c:t.p2c Opp.inc;
      Opp.arg_dat_p2c_i t.node_charge ~idx:2 ~map:t.c2n ~p2c:t.p2c Opp.inc;
      Opp.arg_dat_p2c_i t.node_charge ~idx:3 ~map:t.c2n ~p2c:t.p2c Opp.inc;
    ]

(* Owned nodes only: the solve reads owned densities, so no halo copy
   of the charge needs refreshing first. *)
let compute_charge_density t =
  Runner.par_loop t.runner ~name:"ComputeNodeChargeDensity"
    ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "ComputeNodeChargeDensity")
    charge_density_kernel t.nodes Opp.core
    [
      Opp.arg_dat t.node_charge Opp.read;
      Opp.arg_dat t.node_volume Opp.read;
      Opp.arg_dat t.node_charge_den Opp.write;
    ]

let solve_potential t =
  let solver =
    match t.solver with
    | Some s -> s
    | None -> invalid_arg "Fempic_sim.solve_potential: a rank sim is solved by its handle"
  in
  let stats =
    Profile.timed ~t:t.profile ~name:"Solve" (fun () ->
        Field_solver.solve solver ~phi:t.node_phi.d_data
          ~ion_charge_density:t.node_charge_den.d_data)
  in
  t.last_solver_stats <- Some stats;
  stats

let compute_electric_field t =
  Runner.par_loop t.runner ~name:"ComputeElectricField"
    ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "ComputeElectricField")
    electric_field_kernel t.cells Opp.all
    [
      Opp.arg_dat t.cell_ef Opp.write;
      Opp.arg_dat t.cell_det Opp.read;
      Opp.arg_dat_i t.node_phi ~idx:0 ~map:t.c2n Opp.read;
      Opp.arg_dat_i t.node_phi ~idx:1 ~map:t.c2n Opp.read;
      Opp.arg_dat_i t.node_phi ~idx:2 ~map:t.c2n Opp.read;
      Opp.arg_dat_i t.node_phi ~idx:3 ~map:t.c2n Opp.read;
    ]

(* --- the step, declared once --- *)

(** A step phase: a named rank-local phase, or one of the collective
    points a distributed driver implements itself — the particle move
    (migration across ranks) and the field solve (gather-solve-scatter). *)
type phase = Local of string * (t -> unit) | Move | Solve

(* One MCC step on the sim's own particles. *)
let collide t =
  Option.iter (fun m -> ignore (Collisions.apply ~runner:t.runner m)) t.collisions

(** The paper's kernel sequence, in order, then the collisions when a
    neutral density was given. *)
let phases t =
  [
    Local ("Inject", fun t -> t.injected <- inject_particles t);
    Local ("CalcPosVel", calc_pos_vel);
    Move;
    Local ("Deposit", deposit_charge);
    Local ("ChargeDensity", compute_charge_density);
    Solve;
    Local ("ElectricField", compute_electric_field);
  ]
  @ if t.collisions = None then [] else [ Local ("Collisions", collide) ]

(** One full PIC step; returns the number of injected particles. *)
let step t =
  List.iter
    (function
      | Local (_, f) -> f t | Move -> ignore (move t) | Solve -> ignore (solve_potential t))
    (phases t);
  t.step_count <- t.step_count + 1;
  Runner.step_end ~step:t.step_count;
  t.injected

let run t ~steps =
  for _ = 1 to steps do
    ignore (step t)
  done

(* --- diagnostics --- *)

type diagnostics = {
  particles : int;
  total_charge : float;  (** deposited macro charge on owned nodes, C *)
  max_potential : float;
  min_potential : float;
  mean_ef_magnitude : float;
}

let diagnostics t =
  let total_charge = ref 0.0 in
  for n = 0 to t.nodes.s_exec_size - 1 do
    total_charge := !total_charge +. t.node_charge.d_data.(n)
  done;
  let max_phi = ref neg_infinity and min_phi = ref infinity in
  for n = 0 to t.nodes.s_exec_size - 1 do
    let v = t.node_phi.d_data.(n) in
    if v > !max_phi then max_phi := v;
    if v < !min_phi then min_phi := v
  done;
  let ef_sum = ref 0.0 in
  for c = 0 to t.cells.s_exec_size - 1 do
    let ex = t.cell_ef.d_data.(3 * c)
    and ey = t.cell_ef.d_data.((3 * c) + 1)
    and ez = t.cell_ef.d_data.((3 * c) + 2) in
    ef_sum := !ef_sum +. sqrt ((ex *. ex) +. (ey *. ey) +. (ez *. ez))
  done;
  {
    particles = t.parts.s_size;
    total_charge = !total_charge;
    max_potential = !max_phi;
    min_potential = !min_phi;
    mean_ef_magnitude = !ef_sum /. float_of_int (max t.cells.s_exec_size 1);
  }

(** Pre-fill the duct with the steady-state particle population:
    [target_particles] macro-particles distributed uniformly over the
    cell volumes of [mesh] with the injection drift velocity. Without
    this, a run needs a full transit time (lz / v dt steps) to reach
    the regime the paper benchmarks in. One RNG stream walks the cells
    in order; [place c] names the sim and its local cell that receive
    cell [c]'s particles, so the fill does not depend on how the mesh
    is partitioned. Every receiving sim's injected window is left open
    for the caller to close. *)
let prefill_cells ~prm (mesh : Opp_mesh.Tet_mesh.t) ~place =
  let total_volume = Opp_mesh.Tet_mesh.total_volume mesh in
  let rng = Rng.create (prm.Params.seed + 7919) in
  let carry = ref 0.0 in
  for c = 0 to mesh.Opp_mesh.Tet_mesh.ncells - 1 do
    let want =
      (prm.Params.target_particles *. mesh.Opp_mesh.Tet_mesh.cell_volume.(c) /. total_volume)
      +. !carry
    in
    let n = int_of_float want in
    carry := want -. float_of_int n;
    if n > 0 then begin
      let t, lc = place c in
      let start = Opp.inject t.parts n in
      let vertex i =
        let nd = mesh.Opp_mesh.Tet_mesh.cell_nodes.((4 * c) + i) in
        [|
          mesh.Opp_mesh.Tet_mesh.node_pos.(3 * nd);
          mesh.Opp_mesh.Tet_mesh.node_pos.((3 * nd) + 1);
          mesh.Opp_mesh.Tet_mesh.node_pos.((3 * nd) + 2);
        |]
      in
      let v0 = vertex 0 and v1 = vertex 1 and v2 = vertex 2 and v3 = vertex 3 in
      for i = 0 to n - 1 do
        let idx = start + i in
        let p = Opp_mesh.Geom.sample_tet rng v0 v1 v2 v3 in
        let vth = prm.Params.thermal_velocity in
        t.part_pos.d_data.(3 * idx) <- p.(0);
        t.part_pos.d_data.((3 * idx) + 1) <- p.(1);
        t.part_pos.d_data.((3 * idx) + 2) <- p.(2);
        t.part_vel.d_data.(3 * idx) <- vth *. Rng.gaussian rng;
        t.part_vel.d_data.((3 * idx) + 1) <- vth *. Rng.gaussian rng;
        t.part_vel.d_data.((3 * idx) + 2) <- prm.Params.ion_velocity +. (vth *. Rng.gaussian rng);
        t.p2c.m_data.(idx) <- lc
      done
    end
  done

(** {!prefill_cells} into this sim alone; returns its particle count. *)
let prefill t =
  prefill_cells ~prm:t.prm t.mesh ~place:(fun c -> (t, c));
  Opp.reset_injected t.parts;
  t.parts.s_size
