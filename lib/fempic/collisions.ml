(** Monte-Carlo collisions (MCC) with a uniform neutral background —
    one of the interleaved routines state-of-the-art PIC codes add to
    the core algorithm (paper section 2: collisions, ionization,
    injection).

    Ions undergo charge-exchange (the ion leaves with a fresh thermal
    neutral velocity) and isotropic elastic scattering against a
    stationary neutral gas, using the null-collision method: per step,
    each particle collides with probability 1 - exp(-n sigma v dt).

    Random numbers are drawn into a per-particle dat {e before} the
    loop (the RNG-state-array pattern of GPU PIC codes), so the
    collision kernel itself stays a pure function of its views and runs
    under any backend. *)

open Opp_core
open Opp_core.Types

(* View.get/set/inc inlined here: -opaque (dev profile) makes each an out-of-line, float-boxing call. *)
let[@inline] get v i = v.View.data.(v.View.base + i)
let[@inline] set v i x = v.View.data.(v.View.base + i) <- x
let[@inline] inc v i x = v.View.data.(v.View.base + i) <- v.View.data.(v.View.base + i) +. x

type t = {
  neutral_density : float;  (** m^-3 *)
  neutral_temperature : float;  (** thermal speed of neutrals, m/s (1-sigma) *)
  sigma_cx : float;  (** charge-exchange cross-section, m^2 *)
  sigma_el : float;  (** elastic cross-section, m^2 *)
  sigma_ion : float;  (** electron-impact-style ionization cross-section, m^2 *)
  dt : float;
  parts : set;
  part_vel : dat;
  part_pos : dat option;  (** needed to place ionization offspring *)
  p2c : map option;
  (* per-particle random draws for this step: [decision; 3x thermal or
     scatter-direction samples] *)
  part_rand : dat;
  (* ionization flags written by the kernel, consumed host-side *)
  part_ionize : dat;
  seed : int;  (** names the stream: the key of its checkpointed state *)
  rng : Rng.t;
  mutable cx_count : int;
  mutable elastic_count : int;
  mutable ionization_count : int;
}

let create ?(neutral_density = 1e19) ?(neutral_temperature = 300.0) ?(sigma_cx = 1e-18)
    ?(sigma_el = 5e-19) ?(sigma_ion = 0.0) ?part_pos ?p2c ~dt ~(parts : set)
    ~(part_vel : dat) ~seed () =
  if not (is_particle_set parts) then invalid_arg "Collisions.create: not a particle set";
  if part_vel.d_set != parts then invalid_arg "Collisions.create: velocity not on the set";
  if sigma_ion > 0.0 && (part_pos = None || p2c = None) then
    invalid_arg "Collisions.create: ionization needs part_pos and p2c";
  let ctx = parts.s_ctx in
  {
    neutral_density;
    neutral_temperature;
    sigma_cx;
    sigma_el;
    sigma_ion;
    dt;
    parts;
    part_vel;
    part_pos;
    p2c;
    part_rand = decl_dat ctx ~name:"collision_randoms" ~set:parts ~dim:4 None;
    part_ionize = decl_dat ctx ~name:"collision_ionize_flags" ~set:parts ~dim:1 None;
    seed;
    rng = Rng.create seed;
    cx_count = 0;
    elastic_count = 0;
    ionization_count = 0;
  }

(* Collision kernel: views are [vel RW; rand R; ionize W; counters GBL
   INC]. rand.(0) in [0,1) decides; rand.(1..3) are standard normals.
   Ionization cannot inject from inside a loop (storage would move
   under the running kernels), so the kernel only FLAGS the event; the
   host appends the offspring afterwards -- the standard two-phase
   pattern of GPU PIC codes. *)
let kernel ~n_sigma_cx_dt ~n_sigma_el_dt ~n_sigma_ion_dt ~vth views =
  let vel = views.(0) and rand = views.(1) and ionize = views.(2) and counters = views.(3) in
  set ionize 0 0.0;
  let vx = get vel 0 and vy = get vel 1 and vz = get vel 2 in
  let speed = sqrt ((vx *. vx) +. (vy *. vy) +. (vz *. vz)) in
  (* null-collision probabilities, linearised (n sigma v dt << 1) *)
  let p_cx = n_sigma_cx_dt *. speed in
  let p_el = n_sigma_el_dt *. speed in
  let p_ion = n_sigma_ion_dt *. speed in
  let u = get rand 0 in
  if u < p_ion then begin
    (* flag: a slow ion is born at this particle's position *)
    set ionize 0 1.0;
    inc counters 2 1.0
  end
  else if u < p_ion +. p_cx then begin
    (* charge exchange: the fast ion becomes a slow thermal ion *)
    for d = 0 to 2 do
      set vel d (vth *. get rand (d + 1))
    done;
    inc counters 0 1.0
  end
  else if u < p_ion +. p_cx +. p_el then begin
    (* isotropic elastic scatter in the neutral frame: keep the speed,
       redirect using the three normal draws *)
    let gx = get rand 1 and gy = get rand 2 and gz = get rand 3 in
    let norm = sqrt ((gx *. gx) +. (gy *. gy) +. (gz *. gz)) in
    if norm > 0.0 then begin
      set vel 0 (speed *. gx /. norm);
      set vel 1 (speed *. gy /. norm);
      set vel 2 (speed *. gz /. norm)
    end;
    inc counters 1 1.0
  end

(** Apply one collision step to every particle. Returns
    (charge-exchange, elastic, ionization) counts for this step;
    ionization events append a fresh thermal ion at the parent's
    position and cell. *)
let apply ?(runner = Runner.seq ()) t =
  (* draw this step's randoms host-side (the RNG-array fill) *)
  let n = t.parts.s_size in
  for p = 0 to n - 1 do
    t.part_rand.d_data.(4 * p) <- Rng.float t.rng;
    for d = 1 to 3 do
      t.part_rand.d_data.((4 * p) + d) <- Rng.gaussian t.rng
    done
  done;
  let counters = [| 0.0; 0.0; 0.0 |] in
  Runner.par_loop runner ~name:"CollideMCC" ~flops_per_elem:(Opp_prof.Kernels.flops_per_elem "CollideMCC")
    (kernel
       ~n_sigma_cx_dt:(t.neutral_density *. t.sigma_cx *. t.dt)
       ~n_sigma_el_dt:(t.neutral_density *. t.sigma_el *. t.dt)
       ~n_sigma_ion_dt:(t.neutral_density *. t.sigma_ion *. t.dt)
       ~vth:t.neutral_temperature)
    t.parts Seq.Iterate_all
    [
      Arg.dat t.part_vel Rw;
      Arg.dat t.part_rand Read;
      Arg.dat t.part_ionize Write;
      Arg.gbl counters Inc;
    ];
  let cx = int_of_float counters.(0) and el = int_of_float counters.(1) in
  let ion = int_of_float counters.(2) in
  (* phase 2: append the flagged offspring (host-side, post-loop) *)
  if ion > 0 then begin
    match (t.part_pos, t.p2c) with
    | Some pos, Some p2c ->
        let parents = ref [] in
        for p = n - 1 downto 0 do
          if t.part_ionize.d_data.(p) > 0.5 then parents := p :: !parents
        done;
        let start = Particle.inject t.parts ion in
        List.iteri
          (fun i parent ->
            let child = start + i in
            Array.blit pos.d_data (3 * parent) pos.d_data (3 * child) 3;
            for d = 0 to 2 do
              t.part_vel.d_data.((3 * child) + d) <-
                t.neutral_temperature *. Rng.gaussian t.rng
            done;
            p2c.m_data.(child) <- p2c.m_data.(parent))
          !parents;
        Particle.reset_injected t.parts
    | _ -> assert false
  end;
  t.cx_count <- t.cx_count + cx;
  t.elastic_count <- t.elastic_count + el;
  t.ionization_count <- t.ionization_count + ion;
  (cx, el, ion)

(** Expected collisions per particle per step at speed [v] (for tests
    and for choosing stable parameters). *)
let expected_probability t ~v =
  t.neutral_density *. (t.sigma_cx +. t.sigma_el +. t.sigma_ion) *. v *. t.dt
