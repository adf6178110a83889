(** Core data model of the OP-PIC DSL: sets, maps and dats.

    A [set] is a class of mesh elements (cells, nodes, faces, ...) or a
    particle population attached to a mesh set. A [map] is explicit
    connectivity between two sets (e.g. cells-to-nodes), or the dynamic
    particle-to-cell map. A [dat] holds per-element data (doubles) on a
    set. This mirrors the C++ API of the paper
    ([opp_decl_set] / [opp_decl_map] / [opp_decl_dat]). *)

type set = {
  s_id : int;
  s_name : string;
  mutable s_size : int;  (** live element count (owned + halo copies) *)
  mutable s_exec_size : int;
      (** elements [0, exec_size) are owned by this rank; loops over
          [Iterate_core] stop here. Equal to [s_size] except on the
          rank-local sets of the distributed backend. *)
  mutable s_capacity : int;  (** allocated element count (>= size) *)
  s_cells : set option;  (** [Some c] iff this is a particle set over [c] *)
  mutable s_dats : dat list;  (** dats declared on this set *)
  mutable s_maps_from : map list;  (** maps whose source is this set *)
  mutable s_injected : int;  (** particles appended since last reset *)
  s_ctx : ctx;
}

and map = {
  m_id : int;
  m_name : string;
  m_from : set;
  m_to : set;
  m_arity : int;
  mutable m_data : int array;  (** [from.capacity * arity] target indices *)
}

and dat = {
  d_id : int;
  d_name : string;
  d_set : set;
  d_dim : int;
  mutable d_data : float array;  (** [set.capacity * dim] values *)
  mutable d_halo_dirty : bool;
      (** owned elements have been written since the halo copies were
          last refreshed; maintained by the distributed backend's
          freshness tracking ([Opp_dist.Freshness]) and checked by the
          sanitizer runner ([Opp_check]) *)
}

and ctx = {
  mutable c_sets : set list;
  mutable c_maps : map list;
  mutable c_dats : dat list;
  mutable c_next_id : int;
}

type access = Read | Write | Inc | Rw

let access_to_string = function
  | Read -> "OPP_READ"
  | Write -> "OPP_WRITE"
  | Inc -> "OPP_INC"
  | Rw -> "OPP_RW"

let make_ctx () = { c_sets = []; c_maps = []; c_dats = []; c_next_id = 0 }

let fresh_id ctx =
  let id = ctx.c_next_id in
  ctx.c_next_id <- id + 1;
  id

let is_particle_set s = s.s_cells <> None

(** Declare a mesh set of [size] elements. *)
let decl_set ctx ~name size =
  if size < 0 then invalid_arg "decl_set: negative size";
  let s =
    {
      s_id = fresh_id ctx;
      s_name = name;
      s_size = size;
      s_exec_size = size;
      s_capacity = size;
      s_cells = None;
      s_dats = [];
      s_maps_from = [];
      s_injected = 0;
      s_ctx = ctx;
    }
  in
  ctx.c_sets <- s :: ctx.c_sets;
  s

(** Declare a particle set over mesh set [cells], initially holding
    [count] particles (default 0; storage grows on injection). *)
let decl_particle_set ctx ~name ?(count = 0) cells =
  if count < 0 then invalid_arg "decl_particle_set: negative count";
  if is_particle_set cells then
    invalid_arg "decl_particle_set: cells must be a mesh set";
  let s =
    {
      s_id = fresh_id ctx;
      s_name = name;
      s_size = count;
      s_exec_size = count;
      s_capacity = max count 16;
      s_cells = Some cells;
      s_dats = [];
      s_maps_from = [];
      s_injected = 0;
      s_ctx = ctx;
    }
  in
  ctx.c_sets <- s :: ctx.c_sets;
  s

(** Declare connectivity of arity [arity] from [from] to [to_].
    [data] lists, for each source element, its [arity] target indices
    (each in [[-1, to_.s_size)]; -1 marks an unset / boundary entry).
    Pass [None] for a particle-to-cell map with no initial particles. *)
let decl_map ctx ~name ~from ~to_ ~arity data =
  if arity <= 0 then invalid_arg "decl_map: arity must be positive";
  (* Validate target indices up front: a bad entry would otherwise
     surface as an off-by-miles array access in the middle of a loop. *)
  (match data with
  | None -> ()
  | Some d ->
      let limit = min (Array.length d) (from.s_size * arity) in
      for i = 0 to limit - 1 do
        if d.(i) < -1 || d.(i) >= to_.s_size then
          invalid_arg
            (Printf.sprintf
               "decl_map %s: entry for element %d slot %d is %d, outside [-1, %d) of target \
                set %s"
               name (i / arity) (i mod arity) d.(i) to_.s_size to_.s_name)
      done);
  let data =
    match data with
    | Some d ->
        if Array.length d < from.s_size * arity then
          invalid_arg
            (Printf.sprintf "decl_map %s: data too short (%d < %d)" name
               (Array.length d) (from.s_size * arity));
        if Array.length d < from.s_capacity * arity then (
          let d' = Array.make (from.s_capacity * arity) (-1) in
          Array.blit d 0 d' 0 (Array.length d);
          d')
        else d
    | None -> Array.make (from.s_capacity * arity) (-1)
  in
  let m =
    { m_id = fresh_id ctx; m_name = name; m_from = from; m_to = to_; m_arity = arity; m_data = data }
  in
  ctx.c_maps <- m :: ctx.c_maps;
  from.s_maps_from <- m :: from.s_maps_from;
  m

(** Declare data of dimension [dim] doubles per element of [set].
    [data] provides initial values for the first [size] elements
    (zeroes otherwise). *)
let decl_dat ctx ~name ~set ~dim data =
  if dim <= 0 then invalid_arg "decl_dat: dim must be positive";
  let store = Array.make (set.s_capacity * dim) 0.0 in
  (match data with
  | Some d ->
      if Array.length d < set.s_size * dim then
        invalid_arg
          (Printf.sprintf "decl_dat %s: data too short (%d < %d)" name
             (Array.length d) (set.s_size * dim));
      Array.blit d 0 store 0 (set.s_size * dim)
  | None -> ());
  let dat =
    {
      d_id = fresh_id ctx;
      d_name = name;
      d_set = set;
      d_dim = dim;
      d_data = store;
      d_halo_dirty = false;
    }
  in
  ctx.c_dats <- dat :: ctx.c_dats;
  set.s_dats <- dat :: set.s_dats;
  dat

(** Grow the backing storage of a particle set (and all its dats and
    outgoing maps) to hold at least [needed] elements. *)
let ensure_capacity set needed =
  if needed > set.s_capacity then begin
    let cap = ref (max set.s_capacity 16) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let cap = !cap in
    List.iter
      (fun d ->
        let nd = Array.make (cap * d.d_dim) 0.0 in
        Array.blit d.d_data 0 nd 0 (set.s_size * d.d_dim);
        d.d_data <- nd)
      set.s_dats;
    List.iter
      (fun m ->
        let nm = Array.make (cap * m.m_arity) (-1) in
        Array.blit m.m_data 0 nm 0 (set.s_size * m.m_arity);
        m.m_data <- nm)
      set.s_maps_from;
    set.s_capacity <- cap
  end

let pp_set fmt s =
  Format.fprintf fmt "set(%s, size=%d%s)" s.s_name s.s_size
    (if is_particle_set s then ", particle" else "")

let pp_dat fmt d = Format.fprintf fmt "dat(%s on %s, dim=%d)" d.d_name d.d_set.s_name d.d_dim
let pp_map fmt m = Format.fprintf fmt "map(%s: %s->%s, arity=%d)" m.m_name m.m_from.s_name m.m_to.s_name m.m_arity
