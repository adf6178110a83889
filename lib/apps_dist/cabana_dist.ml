(** CabanaPIC over the simulated-MPI backend, on any rank count (one
    rank is the sequential program).

    The periodic cuboid is sliced into z-slabs (the two-stream beams
    run along z, so particles cross rank boundaries constantly — the
    multi-hop distributed mover gets exercised hard, as in the paper's
    CabanaPIC scaling runs). Each rank owns a slab plus a one-cell
    halo ring of the full 27-point stencil. Every rank runs the sim's
    own phase list; the E/B halo exchanges around the field kernels
    (the paper's Update_Ghosts) are derived from the stencil loops'
    access descriptors ({!Opp_dist.World.derive}). Everything
    app-independent is the shared {!Dist_handle}; this module adds the
    declared state, the slab topologies, and the [Move] point, which
    migrates mid-walk particles with their remaining displacement, so
    current deposits land on the rank that owns each crossed cell. *)

open Opp_core
open Opp_dist
include Dist_handle

(** A partition of the slabs: ownership, per-rank topologies and
    global -> local maps, and the cell halo exchange. *)
type part = {
  p_cell_rank : int array;
  p_tops : Cabana.Cabana_sim.topology array;
  p_g2l : (int, int) Hashtbl.t array;
  p_exch : Exch.t;
}

type t = (Cabana.Cabana_sim.t, part, Cabana.Cabana_params.t) handle

(* --- declared state (see [Opp_dist.World]) --- *)

(** What a rank persists, in shard order: the particle SoA (the
    migration payload: 3 offset + 3 velocity + 3 remaining
    displacement + 1 weight), E/B/J over owned and halo cells (hashed
    and regathered in that order), the current-step scratch —
    accumulator and interpolator — saved but recomputed before use
    after a reshape, and the RNG seed. CabanaPIC has no live RNG
    streams (its per-cell splitmix streams are drained at particle
    load), so the seed is meta: a restore into a sim created with a
    different seed is rejected rather than silently blending two
    initial conditions. The sequential sim declares the same state on
    a one-rank world. *)
let state (sim : Cabana.Cabana_sim.t) =
  let open Cabana.Cabana_sim in
  World.declare ~parts:sim.parts ~p2c:sim.p2c
    ~particle:
      [
        ("part_off", sim.part_off);
        ("part_vel", sim.part_vel);
        ("part_disp", sim.part_disp);
        ("part_w", sim.part_w);
      ]
    ~mesh:
      [
        ("cell_e", World.Cells, sim.cell_e);
        ("cell_b", World.Cells, sim.cell_b);
        ("cell_j", World.Cells, sim.cell_j);
      ]
    ~scratch:[ ("cell_acc", sim.cell_acc); ("cell_interp", sim.cell_interp) ]
    ~meta:[ ("seed", sim.prm.Cabana.Cabana_params.seed) ]
    ()

let layout part r =
  let tp = part.p_tops.(r) in
  {
    World.cell_g = tp.Cabana.Cabana_sim.tp_cell_gid;
    cell_owned = tp.Cabana.Cabana_sim.tp_owned;
    node_g = [||];
    node_owned = 0;
    cell_g2l = part.p_g2l.(r);
  }

(* Build a rank's local topology: owned slab cells first (ascending
   global id), then the halo = every stencil neighbour owned
   elsewhere. *)
let build_topology (prm : Cabana.Cabana_params.t) (mesh : Opp_mesh.Hex_mesh.t) ~cell_rank ~r =
  let ncells_g = mesh.Opp_mesh.Hex_mesh.ncells in
  let owned = ref [] in
  for c = ncells_g - 1 downto 0 do
    if cell_rank.(c) = r then owned := c :: !owned
  done;
  let owned = Array.of_list !owned in
  let halo_set = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      for s = 0 to 26 do
        let nb = mesh.Opp_mesh.Hex_mesh.cell_cell27.((27 * c) + s) in
        if cell_rank.(nb) <> r then Hashtbl.replace halo_set nb ()
      done)
    owned;
  let halo = Array.of_list (List.sort compare (Hashtbl.fold (fun c () l -> c :: l) halo_set [])) in
  let cells_g = Array.append owned halo in
  let g2l = Hashtbl.create (Array.length cells_g) in
  Array.iteri (fun l g -> Hashtbl.replace g2l g l) cells_g;
  let localize stencil arity =
    let out = Array.make (arity * Array.length cells_g) (-1) in
    Array.iteri
      (fun l g ->
        for s = 0 to arity - 1 do
          let nb = stencil.((arity * g) + s) in
          out.((arity * l) + s) <-
            (match Hashtbl.find_opt g2l nb with Some lnb -> lnb | None -> -1)
        done)
      cells_g;
    out
  in
  let dz = Cabana.Cabana_params.dz prm in
  let topology =
    {
      Cabana.Cabana_sim.tp_ncells = Array.length cells_g;
      tp_owned = Array.length owned;
      tp_c2c27 = localize mesh.Opp_mesh.Hex_mesh.cell_cell27 27;
      tp_c2c6 = localize (Opp_mesh.Hex_mesh.face_neighbours mesh) 6;
      tp_cell_gid = cells_g;
      tp_cell_z0 =
        Array.map
          (fun g ->
            let _, _, k = Opp_mesh.Hex_mesh.cell_ijk mesh g in
            float_of_int k *. dz)
          cells_g;
    }
  in
  (topology, g2l)

(* Topologies, halo links and guarded exchange for a cell ownership —
   at create and again after every reshape ([Exch.create] re-runs the
   E070–E072 link validation on the rebuilt world). *)
let build_part prm mesh ~cell_rank ~nranks =
  let tops = Array.init nranks (fun r -> build_topology prm mesh ~cell_rank ~r) in
  let cell_g2l = Array.map snd tops in
  let links =
    Array.init nranks (fun r ->
        let tp, _ = tops.(r) in
        Array.init
          (tp.Cabana.Cabana_sim.tp_ncells - tp.Cabana.Cabana_sim.tp_owned)
          (fun i ->
            let l = tp.Cabana.Cabana_sim.tp_owned + i in
            let g = tp.Cabana.Cabana_sim.tp_cell_gid.(l) in
            let owner = cell_rank.(g) in
            {
              Exch.l_local = l;
              Exch.l_owner_rank = owner;
              Exch.l_owner_index = Hashtbl.find cell_g2l.(owner) g;
            }))
  in
  {
    p_cell_rank = cell_rank;
    p_tops = Array.map fst tops;
    p_g2l = cell_g2l;
    p_exch =
      Exch.create
        ~sizes:(Array.map (fun (tp, _) -> tp.Cabana.Cabana_sim.tp_ncells) tops)
        ~nranks links;
  }

(** The global periodic cuboid. *)
let mesh (prm : Cabana.Cabana_params.t) =
  Opp_mesh.Hex_mesh.build ~nx:prm.nx ~ny:prm.ny ~nz:prm.nz ~lx:prm.lx ~ly:prm.ly ~lz:prm.lz

(** The field dats the watch canary scans for non-finite values on
    every rank. *)
let canary (sim : Cabana.Cabana_sim.t) =
  Cabana.Cabana_sim.[ sim.cell_e; sim.cell_b; sim.cell_j ]

(** Poison one cell of rank 0's electric field with NaN — the watch
    canary's self-test hook ([--inject-nan]). The leapfrog field
    update keeps (and spreads) the NaN on every subsequent step. *)
let poison (t : t) = t.sims.(0).Cabana.Cabana_sim.cell_e.Types.d_data.(0) <- Float.nan

(* The sim's phase list on the world; the move migrates particles
   mid-walk, with their remaining displacement. *)
let phases (t : t) =
  List.iter
    (function
      | Cabana.Cabana_sim.Local (name, f) -> rank_phase t name f
      | Move -> migrate t Cabana.Cabana_sim.move_deposit)
    (Cabana.Cabana_sim.phases t.sims.(0))

let create ?(prm = Cabana.Cabana_params.default) ?(nranks = 2) ?workers ?device
    ?(checked = false) ?locality ?(profile = Profile.global) () =
  let mesh = mesh prm in
  let cell_rank =
    Partition.slab ~nranks ~ncells:mesh.Opp_mesh.Hex_mesh.ncells ~coord:(fun c ->
        mesh.Opp_mesh.Hex_mesh.cell_centroid.((3 * c) + 2))
  in
  let centroid c =
    [|
      mesh.Opp_mesh.Hex_mesh.cell_centroid.(3 * c);
      mesh.Opp_mesh.Hex_mesh.cell_centroid.((3 * c) + 1);
      mesh.Opp_mesh.Hex_mesh.cell_centroid.((3 * c) + 2);
    |]
  in
  (* stencil neighbours — what the re-partitioners work over *)
  let neighbours c =
    let seen = Hashtbl.create 32 in
    for s = 0 to 26 do
      let nb = mesh.Opp_mesh.Hex_mesh.cell_cell27.((27 * c) + s) in
      if nb <> c then Hashtbl.replace seen nb ()
    done;
    Hashtbl.fold (fun c' () acc -> c' :: acc) seen [] |> List.sort compare
  in
  let app = { phases; poison; canary; driver = []; reshaped = ignore } in
  Dist_handle.create ?workers ?device ~checked ?locality ~profile ~prm ~nranks
    ~part:(build_part prm mesh ~cell_rank ~nranks)
    ~app
    (fun ~runner ~sched ~halo ->
      {
        World.state;
        layout;
        exchanges = (fun p -> [ (World.Cells, p.p_exch) ]);
        cell_rank = (fun p -> p.p_cell_rank);
        build = build_part prm mesh;
        mk_sim =
          (fun part r ->
            Cabana.Cabana_sim.create ~prm ~runner ~profile ?locality:sched
              ~topology:part.p_tops.(r) ());
        centroid;
        neighbours;
        ncells = mesh.Opp_mesh.Hex_mesh.ncells;
        nnodes = 0;
        halo;
      })

let energies (t : t) =
  Array.fold_left
    (fun (acc : Cabana.Cabana_sim.energies) sim ->
      let e = Cabana.Cabana_sim.energies sim in
      {
        Cabana.Cabana_sim.e_field = acc.Cabana.Cabana_sim.e_field +. e.Cabana.Cabana_sim.e_field;
        b_field = acc.Cabana.Cabana_sim.b_field +. e.Cabana.Cabana_sim.b_field;
        kinetic = acc.Cabana.Cabana_sim.kinetic +. e.Cabana.Cabana_sim.kinetic;
      })
    { Cabana.Cabana_sim.e_field = 0.0; b_field = 0.0; kinetic = 0.0 }
    t.sims
