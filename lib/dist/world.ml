(** Declared distributed state (see world.mli): everything here is
    derived generically from an app's per-rank declaration, as OpenFPM
    derives [map()]/[ghost_get] from a property list. *)

open Opp_core
open Opp_core.Types
module Ckpt = Opp_resil.Ckpt

type mesh_set = Cells | Nodes

type extra =
  | Float_extra of { name : string; keys : int array; data : float array }
  | I64_extra of {
      name : string;
      keys : int array;
      get : int -> int64;
      set : int -> int64 -> unit;
    }

type state = {
  parts : set;
  p2c : map;
  particle : (string * dat) array;
  pdats : dat array;  (** [particle]'s dats, in payload order *)
  width : int;
  mesh : (string * mesh_set * dat) array;
  scratch : (string * dat) array;
  extras : extra array;
  meta : (string * int) array;
}

let declare ~parts ~p2c ~particle ~mesh ?(scratch = []) ?(extras = []) ?(meta = []) () =
  let particle = Array.of_list particle in
  let pdats = Array.map snd particle in
  {
    parts;
    p2c;
    particle;
    pdats;
    width = Array.fold_left (fun acc d -> acc + d.d_dim) 0 pdats;
    mesh = Array.of_list mesh;
    scratch = Array.of_list scratch;
    extras = Array.of_list extras;
    meta = Array.of_list meta;
  }

let width st = st.width
let parts st = st.parts
let mesh_dats st = Array.to_list (Array.map (fun (_, _, d) -> d) st.mesh)
let nparts st = st.parts.s_size

type layout = {
  cell_g : int array;
  cell_owned : int;
  node_g : int array;
  node_owned : int;
  cell_g2l : (int, int) Hashtbl.t;
}

type halo = {
  traffic : Traffic.t;
  mutable ranks : state array;  (** the bound world's declared state, per rank *)
  mutable links : (mesh_set * Exch.t) list;
  mutable reduce : int list;  (** mesh dats (by index) to reduce at the phase end *)
}

type ('sim, 'part) shape = {
  state : 'sim -> state;
  layout : 'part -> int -> layout;
  exchanges : 'part -> (mesh_set * Exch.t) list;
  cell_rank : 'part -> int array;
  build : cell_rank:int array -> nranks:int -> 'part;
  mk_sim : 'part -> int -> 'sim;
  centroid : int -> float array;
  neighbours : int -> int list;
  ncells : int;
  nnodes : int;
  halo : halo;
}

let states sh sims = Array.map sh.state sims
let layouts sh part n = Array.init n (sh.layout part)

(* --- checkpoint sections and their validated restore --- *)

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Ckpt.Corrupt msg)) fmt
let whole (d : dat) = Array.sub d.d_data 0 (d.d_set.s_size * d.d_dim)
let extra_keys = function Float_extra x -> x.keys | I64_extra x -> x.keys

let extra_section = function
  | Float_extra x -> Ckpt.Floats (x.name, Array.copy x.data)
  | I64_extra x -> Ckpt.I64s (x.name, Array.init (Array.length x.keys) x.get)

(* mesh dats, then scratch dats: the persisted fields *)
let fields st = Array.append (Array.map (fun (_, _, d) -> d) st.mesh) (Array.map snd st.scratch)

let field_names st =
  Array.append (Array.map (fun (name, _, _) -> name) st.mesh) (Array.map fst st.scratch)

let sections st =
  let n = nparts st in
  List.concat
    [
      [ Ckpt.Ints ("meta", Array.of_list (n :: Array.to_list (Array.map snd st.meta))) ];
      Array.to_list
        (Array.map (fun (name, d) -> Ckpt.Floats (name, Array.sub d.d_data 0 (n * d.d_dim))) st.particle);
      [ Ckpt.Ints ("p2c", Array.sub st.p2c.m_data 0 n) ];
      Array.to_list (Array.map2 (fun name d -> Ckpt.Floats (name, whole d)) (field_names st) (fields st));
      Array.to_list (Array.map extra_section st.extras);
    ]

let sized name len a =
  if Array.length a <> len then
    corrupt "section '%s': %d values, expected %d" name (Array.length a) len;
  a

let set_extra x i (v : Ckpt.section) k =
  match (x, v) with
  | Float_extra x, Ckpt.Floats (_, a) -> x.data.(i) <- a.(k)
  | I64_extra x, Ckpt.I64s (_, a) -> x.set i a.(k)
  | _ -> assert false (* kinds are checked on every path in *)

let restore st secs =
  (* validate everything against the live shapes before writing *)
  let meta = sized "meta" (Array.length st.meta + 1) (Ckpt.ints secs "meta") in
  Array.iteri
    (fun i (name, v) ->
      if meta.(i + 1) <> v then corrupt "meta '%s' mismatch: snapshot %d, sim %d" name meta.(i + 1) v)
    st.meta;
  let n = meta.(0) in
  if n < 0 then corrupt "negative particle count %d" n;
  let floats name len = sized name len (Ckpt.floats secs name) in
  let particle = Array.map (fun (name, d) -> floats name (n * d.d_dim)) st.particle in
  let cells = sized "p2c" n (Ckpt.ints secs "p2c") in
  let ncells = st.p2c.m_to.s_size in
  Array.iter (fun c -> if c < 0 || c >= ncells then corrupt "p2c entry %d outside [0, %d)" c ncells) cells;
  let fields_in =
    Array.map2 (fun name d -> floats name (d.d_set.s_size * d.d_dim)) (field_names st) (fields st)
  in
  let extras_in =
    Array.map
      (function
        | Float_extra { name; keys; _ } -> Ckpt.Floats (name, floats name (Array.length keys))
        | I64_extra { name; keys; _ } ->
            Ckpt.I64s (name, sized name (Array.length keys) (Ckpt.i64s secs name)))
      st.extras
  in
  Particle.resize st.parts n;
  Array.iteri (fun k d -> Array.blit particle.(k) 0 d.d_data 0 (n * d.d_dim)) st.pdats;
  Array.blit cells 0 st.p2c.m_data 0 n;
  Array.iteri
    (fun k d ->
      Array.blit fields_in.(k) 0 d.d_data 0 (Array.length fields_in.(k));
      (* a snapshot is taken at a step boundary, where a halo may be
         stale (an owned write after the step's last exchange): the
         next halo read re-exchanges it *)
      Freshness.mark_dirty d)
    (fields st);
  Array.iteri (fun k x -> Array.iteri (fun i _ -> set_extra x i extras_in.(k) i) (extra_keys x)) st.extras

let save ?keep ~dir ~step ~driver states =
  Ckpt.save ?keep ~dir ~step
    (Array.mapi
       (fun r st ->
         if r > 0 then sections st
         else
           sections st
           @ List.map (fun (name, a) -> Ckpt.Floats (name, Array.copy a)) driver
           @ [ Ckpt.Ints ("driver", [| step |]) ])
       states)

let load ~dir ~driver states =
  match Ckpt.load ~dir with
  | None -> None
  | Some (step, shards) ->
      if Array.length shards <> Array.length states then
        corrupt "checkpoint has %d shards, world has %d ranks" (Array.length shards)
          (Array.length states);
      let count = (sized "driver" 1 (Ckpt.ints shards.(0) "driver")).(0) in
      let driver_in =
        List.map (fun (name, a) -> (a, sized name (Array.length a) (Ckpt.floats shards.(0) name))) driver
      in
      Array.iteri (fun r st -> restore st shards.(r)) states;
      List.iter (fun (a, v) -> Array.blit v 0 a 0 (Array.length a)) driver_in;
      Some (step, count)

(* --- derived halo collectives ---

   [derive] wraps every launch of the world's runner (its [r_around]):
   before the launch, a halo read of a dirty declared dat exchanges
   that dat on every rank; after it, each written dat's bit follows
   from its access descriptor and iteration range. Ranks step in
   serial lockstep, so a collective triggered by one rank's launch runs
   for all ranks at once, and the reduce an INC through a mesh map
   needs waits for the end of the phase ({!sync}). *)

let halo ~traffic = { traffic; ranks = [||]; links = []; reduce = [] }

let bind sh ~part ~sims =
  sh.halo.ranks <- states sh sims;
  sh.halo.links <- sh.exchanges part

(* [d]'s index among the declared mesh dats, if some rank declares it *)
let declared h d =
  let found = ref None in
  Array.iter (fun st -> Array.iteri (fun k (_, _, d') -> if d' == d then found := Some k) st.mesh) h.ranks;
  !found

(* declared mesh dat [k] on every rank, and the exchange of its set *)
let copies h k =
  let _, on, _ = h.ranks.(0).mesh.(k) in
  (Array.map (fun st -> let _, _, d = st.mesh.(k) in d) h.ranks, List.assoc on h.links)

let sync sh =
  let h = sh.halo in
  let pending = List.rev h.reduce in
  h.reduce <- [];
  List.iter
    (fun k ->
      let ds, e = copies h k in
      Exch.reduce ~traffic:h.traffic e ~dim:ds.(0).d_dim ~data:(fun r -> ds.(r).d_data);
      Array.iter Freshness.mark_dirty ds)
    pending

let refuse fmt = Printf.ksprintf invalid_arg ("World: loop %s " ^^ fmt)

(* Does this argument read halo copies? A mesh map can reach any
   local element; a direct read under [Iterate_all] covers the halo
   too. Through [p2c] alone a particle reads its own cell, which
   migration keeps owned. *)
let reads_halo iterate = function
  | Arg.Arg_dat { dat; map; p2c; acc = Read | Rw; _ } ->
      map <> None || (p2c = None && iterate = Seq.Iterate_all && Freshness.has_halo dat)
  | _ -> false

let before h ~loop iterate a =
  match a with
  | Arg.Arg_dat { dat; _ } when reads_halo iterate a -> (
      match declared h dat with
      | Some k ->
          let ds, e = copies h k in
          if Array.exists Freshness.is_dirty ds then
            Exch.exchange ~traffic:h.traffic ~dats:ds e ~dim:ds.(0).d_dim ~data:(fun r ->
                ds.(r).d_data)
      | None ->
          if Freshness.is_dirty dat then
            refuse "reads the dirty halo of dat %s, which the world does not declare" loop
              dat.d_name)
  | _ -> ()

let after h ~loop iterate = function
  | Arg.Arg_dat { dat; map = Some _; acc = Inc; _ } -> (
      match declared h dat with
      | Some k -> if not (List.mem k h.reduce) then h.reduce <- k :: h.reduce
      | None ->
          refuse "increments dat %s through a mesh map, but the world does not declare it" loop
            dat.d_name)
  | Arg.Arg_dat { dat; map = None; p2c = None; acc = Write | Rw | Inc; _ } ->
      (* a write over every copy recomputes the halo from inputs that
         were just made fresh *)
      if iterate = Seq.Iterate_all then Freshness.mark_fresh dat else Freshness.mark_dirty dat
  | Arg.Arg_dat { dat; acc = Write | Rw | Inc; _ } -> Freshness.mark_dirty dat
  | _ -> ()

let derive h (r : Runner.t) =
  {
    r with
    Runner.r_around =
      (fun loop iterate args launch ->
        List.iter (before h ~loop iterate) args;
        let v = r.Runner.r_around loop iterate args launch in
        List.iter (after h ~loop iterate) args;
        v);
  }

(* --- migration --- *)

let payload st p =
  let row = Array.make st.width 0.0 in
  let off = ref 0 in
  for k = 0 to Array.length st.pdats - 1 do
    let d = st.pdats.(k) in
    Array.blit d.d_data (d.d_dim * p) row !off d.d_dim;
    off := !off + d.d_dim
  done;
  row

(* Append a delivered batch of (global cell, payload) migrants. *)
let unpack st lay batch =
  let start = Particle.inject st.parts (List.length batch) in
  List.iteri
    (fun i (g, row) ->
      let off = ref 0 in
      for k = 0 to Array.length st.pdats - 1 do
        let d = st.pdats.(k) in
        Array.blit row !off d.d_data (d.d_dim * (start + i)) d.d_dim;
        off := !off + d.d_dim
      done;
      st.p2c.m_data.(start + i) <- Hashtbl.find lay.cell_g2l g)
    batch

let migrate ?prepass sh ~traffic ~part ~sims ~move =
  let nranks = Array.length sims in
  let sts = states sh sims and lays = layouts sh part nranks in
  let cell_rank = sh.cell_rank part in
  let mail = Mailbox.create ~nranks ~payload_dim:sts.(0).width in
  let reset () = Array.iter (fun st -> Particle.reset_injected st.parts) sts in
  let move_rank r iterate =
    let st = sts.(r) and lay = lays.(r) in
    move r iterate
      ~should_stop:(fun c -> c >= lay.cell_owned)
      ~on_pending:(fun ~p ~cell ->
        let g = lay.cell_g.(cell) in
        Mailbox.post mail ~src:r ~dest:cell_rank.(g) ~cell:g ~payload:(payload st p))
  in
  let migrated = ref 0 in
  Option.iter
    (fun f ->
      f mail;
      migrated := Mailbox.deliver ~traffic mail (fun r batch -> unpack sts.(r) lays.(r) batch);
      reset ())
    prepass;
  for r = 0 to nranks - 1 do
    move_rank r Seq.Iterate_all
  done;
  let rounds = ref 0 in
  while Mailbox.total mail > 0 do
    incr rounds;
    if !rounds > 1000 then failwith "World.migrate: migration did not settle";
    reset ();
    let received = Array.make nranks false in
    migrated :=
      !migrated
      + Mailbox.deliver ~traffic mail (fun r batch ->
            received.(r) <- true;
            unpack sts.(r) lays.(r) batch);
    for r = 0 to nranks - 1 do
      if received.(r) then move_rank r Seq.Iterate_injected
    done
  done;
  reset ();
  sync sh;
  !migrated

(* --- whole-world observation --- *)

let owned lay = function Cells -> (lay.cell_g, lay.cell_owned) | Nodes -> (lay.node_g, lay.node_owned)

(* Every mesh dat as one global array, gathered from each rank's owned
   elements by global id. *)
let global_fields sh sts lays =
  Array.mapi
    (fun k (_, on, d) ->
      let dim = d.d_dim in
      let dst = Array.make ((match on with Cells -> sh.ncells | Nodes -> sh.nnodes) * dim) 0.0 in
      Array.iteri
        (fun r st ->
          let _, _, d = st.mesh.(k) in
          let ids, n = owned lays.(r) on in
          for l = 0 to n - 1 do
            Array.blit d.d_data (dim * l) dst (dim * ids.(l)) dim
          done)
        sts;
      dst)
    sts.(0).mesh

let state_hash sh ~part ~sims =
  let module Codec = Opp_resil.Codec in
  let sts = states sh sims in
  let lays = layouts sh part (Array.length sims) in
  let rows = ref [] in
  Array.iteri
    (fun r st ->
      for p = 0 to nparts st - 1 do
        rows := (lays.(r).cell_g.(st.p2c.m_data.(p)), payload st p) :: !rows
      done)
    sts;
  let bits a = Array.map Int64.bits_of_float a in
  let rows =
    List.sort
      (fun (ga, ra) (gb, rb) ->
        let c = compare ga gb in
        if c <> 0 then c else compare (bits ra) (bits rb))
      !rows
  in
  let sums =
    Array.to_list (Array.map Codec.checksum_floats (global_fields sh sts lays))
    @ [
        Codec.checksum_ints (Array.of_list (List.map fst rows));
        Codec.checksum_i64s (Array.concat (List.map (fun (_, row) -> bits row) rows));
      ]
  in
  Codec.checksum_i64s (Array.of_list sums)

let cell_particle_weights sh ~part ~sims =
  let w = Array.make sh.ncells 0.0 in
  Array.iteri
    (fun r sim ->
      let st = sh.state sim and lay = sh.layout part r in
      for p = 0 to nparts st - 1 do
        let g = lay.cell_g.(st.p2c.m_data.(p)) in
        w.(g) <- w.(g) +. 1.0
      done)
    sims;
  w

let total_particles sh sims = Array.fold_left (fun acc sim -> acc + nparts (sh.state sim)) 0 sims

let particle_imbalance sh sims =
  let counts = Array.map (fun sim -> float_of_int (nparts (sh.state sim))) sims in
  let mx = Array.fold_left Float.max 0.0 counts in
  let mean = Array.fold_left ( +. ) 0.0 counts /. float_of_int (Array.length sims) in
  if mean > 0.0 then (mx /. mean) -. 1.0 else 0.0

(* --- epochs --- *)

let respawn sh ~part ~sims ~rank secs =
  if rank < 0 || rank >= Array.length sims then invalid_arg "World.respawn: bad rank";
  let sim = sh.mk_sim part rank in
  restore (sh.state sim) secs;
  let old = sims.(rank) in
  sims.(rank) <- sim;
  List.iter (fun (_, e) -> Exch.fence e) (sh.exchanges part);
  bind sh ~part ~sims;
  old

(* The reshape epoch. [cell_rank] is the new ownership in the new rank
   numbering; with [dead], that rank is gone and survivors are
   compacted in ascending order. The dead rank's reconstructed sections
   are restored into its stale sim first, so it takes part like any old
   rank — except that its particles are addressed to it, so they reach
   their new owners through the mailbox's dead-destination reroute. *)
let reshape sh ~traffic ~part ~sims ~cell_rank ?dead () =
  let old_n = Array.length sims in
  let dead_rank = match dead with Some (r, _) -> r | None -> -1 in
  let nranks = if dead = None then old_n else old_n - 1 in
  let to_new r = if dead_rank >= 0 && r > dead_rank then r - 1 else r in
  let to_old rn = if dead_rank >= 0 && rn >= dead_rank then rn + 1 else rn in
  let old_sts = states sh sims and old_lays = layouts sh part old_n in
  Option.iter (fun (r, secs) -> restore old_sts.(r) secs) dead;
  (* fence the old epoch: in-flight traffic stamped with it is stale *)
  List.iter (fun (_, e) -> Exch.fence e) (sh.exchanges part);
  let npart = sh.build ~cell_rank ~nranks in
  List.iter2
    (fun (_, from) (_, e) -> Exch.adopt_wire_state ~from e)
    (sh.exchanges part) (sh.exchanges npart);
  let nsims = Array.init nranks (sh.mk_sim npart) in
  let sts = states sh nsims and lays = layouts sh npart nranks in
  (* mesh dats: scatter the regathered global arrays to every new owned
     and halo slot, then re-derive freshness *)
  Array.iteri
    (fun k g ->
      Array.iteri
        (fun rn st ->
          let _, on, d = st.mesh.(k) in
          let ids, _ = owned lays.(rn) on in
          Array.iteri (fun l gid -> Array.blit g (d.d_dim * gid) d.d_data (d.d_dim * l) d.d_dim) ids)
        sts)
    (global_fields sh old_sts old_lays);
  Array.iter (fun st -> Array.iter Freshness.mark_fresh (fields st)) sts;
  (* extras follow their global key, whoever owns the entity now *)
  Array.iteri
    (fun k _ ->
      let tbl = Hashtbl.create 64 in
      Array.iter
        (fun st ->
          let v = extra_section st.extras.(k) in
          Array.iteri (fun i key -> Hashtbl.replace tbl key (v, i)) (extra_keys st.extras.(k)))
        old_sts;
      Array.iter
        (fun st ->
          let x = st.extras.(k) in
          Array.iteri
            (fun i key ->
              match Hashtbl.find_opt tbl key with Some (v, j) -> set_extra x i v j | None -> ())
            (extra_keys x))
        sts)
    old_sts.(0).extras;
  (* particles: kept ones re-localise in place, the rest reroute *)
  let owner_old = Array.map to_old cell_rank in
  let mail = Mailbox.create ~nranks:old_n ~payload_dim:old_sts.(0).width in
  if dead_rank >= 0 then Mailbox.mark_dead mail dead_rank;
  Array.iteri
    (fun r st ->
      let lay = old_lays.(r) in
      let cell p = lay.cell_g.(st.p2c.m_data.(p)) in
      if r = dead_rank then
        for p = 0 to nparts st - 1 do
          Mailbox.post mail ~src:r ~dest:r ~cell:(cell p) ~payload:(payload st p)
        done
      else begin
        let nst = sts.(to_new r) and nlay = lays.(to_new r) in
        let keep = ref 0 in
        for p = 0 to nparts st - 1 do
          if owner_old.(cell p) = r then incr keep
        done;
        Particle.resize nst.parts 0;
        Particle.resize nst.parts !keep;
        let idx = ref 0 in
        for p = 0 to nparts st - 1 do
          let g = cell p in
          if owner_old.(g) = r then begin
            for k = 0 to Array.length st.pdats - 1 do
              let d = st.pdats.(k) in
              Array.blit d.d_data (d.d_dim * p) nst.pdats.(k).d_data (d.d_dim * !idx) d.d_dim
            done;
            nst.p2c.m_data.(!idx) <- Hashtbl.find nlay.cell_g2l g;
            incr idx
          end
          else Mailbox.post mail ~src:r ~dest:owner_old.(g) ~cell:g ~payload:(payload st p)
        done
      end)
    old_sts;
  ignore
    (Mailbox.deliver ~traffic
       ~reroute:(fun ~cell -> owner_old.(cell))
       mail
       (fun r batch -> unpack sts.(to_new r) lays.(to_new r) batch));
  Array.iter (fun st -> Particle.reset_injected st.parts) sts;
  bind sh ~part:npart ~sims:nsims;
  (npart, nsims)

let shrink sh ~traffic ~part ~sims ~dead secs =
  let nranks = Array.length sims in
  if nranks < 2 then invalid_arg "World.shrink: nothing to shrink onto";
  if dead < 0 || dead >= nranks then invalid_arg "World.shrink: bad rank";
  let reassigned =
    Partition.heal_reassign ~nranks ~dead ~cell_rank:(sh.cell_rank part) ~centroid:sh.centroid
      ~neighbours:sh.neighbours
  in
  let cell_rank = Array.map (fun r -> if r > dead then r - 1 else r) reassigned in
  reshape sh ~traffic ~part ~sims ~cell_rank ~dead:(dead, secs) ()

let rebalance ?max_move_frac sh ~traffic ~part ~sims ~weight =
  let nranks = Array.length sims in
  if nranks < 2 then None
  else
    let old = sh.cell_rank part in
    let cell_rank =
      Partition.rebalance ~nranks ~cell_rank:old ~weight ~centroid:sh.centroid
        ~neighbours:sh.neighbours ?max_move_frac ()
    in
    let moved = ref 0 in
    Array.iteri (fun c r -> if cell_rank.(c) <> r then incr moved) old;
    if !moved = 0 then None
    else
      let npart, nsims = reshape sh ~traffic ~part ~sims ~cell_rank () in
      Some (!moved, npart, nsims)
