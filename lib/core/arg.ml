(** Argument descriptors for [par_loop] / [particle_move], mirroring
    [opp_arg_dat] / [opp_arg_gbl] of the paper's API.

    An argument is a dat plus how it is reached from the iteration set:
    - directly ([map = None], [p2c = None]);
    - through one mesh map ([map = Some m]), selecting slot [idx];
    - for particle loops, through the particle-to-cell map
      ([p2c = Some p2c]), optionally composed with a mesh map for the
      double indirection of particle-to-node scatters. *)

open Types

type t =
  | Arg_dat of {
      dat : dat;
      idx : int;  (** slot within the map's arity; ignored if [map=None] *)
      map : map option;
      p2c : map option;
      acc : access;
    }
  | Arg_gbl of { buf : float array; acc : access }

(** Directly accessed dat (iteration set = dat's set, or reached via p2c
    for a particle loop when the dat lives on cells). *)
let dat d acc = Arg_dat { dat = d; idx = 0; map = None; p2c = None; acc }

(** Dat accessed through mesh map [m], slot [idx]. *)
let dat_i d ~idx ~map acc = Arg_dat { dat = d; idx; map = Some map; p2c = None; acc }

(** Cell dat accessed from a particle through [p2c]. *)
let dat_p2c d ~p2c acc = Arg_dat { dat = d; idx = 0; map = None; p2c = Some p2c; acc }

(** Double indirection: particle -> cell ([p2c]) -> mesh element
    ([map], slot [idx]); e.g. charge deposit from particles to nodes. *)
let dat_p2c_i d ~idx ~map ~p2c acc =
  Arg_dat { dat = d; idx; map = Some map; p2c = Some p2c; acc }

(** Global argument (reduction buffer or read-only constants). *)
let gbl buf acc = Arg_gbl { buf; acc }

let access = function Arg_dat a -> a.acc | Arg_gbl g -> g.acc
let view_dim = function Arg_dat a -> a.dat.d_dim | Arg_gbl g -> Array.length g.buf

(** Validate an argument against the loop's iteration set; raises
    [Invalid_argument] describing the first inconsistency. *)
let validate ~iter_set arg =
  match arg with
  | Arg_gbl _ -> ()
  | Arg_dat a -> (
      let fail msg = invalid_arg (Printf.sprintf "arg %s: %s" a.dat.d_name msg) in
      (match a.map with
      | Some m ->
          if a.idx < 0 || a.idx >= m.m_arity then
            fail (Printf.sprintf "map index %d out of arity %d" a.idx m.m_arity);
          if m.m_to != a.dat.d_set then fail "map target set differs from dat's set"
      | None -> ());
      match (a.p2c, a.map) with
      | Some p2c, _ ->
          if p2c.m_from != iter_set then fail "p2c map source is not the iteration set";
          if not (is_particle_set iter_set) then fail "p2c access from a mesh loop";
          (match a.map with
          | Some m ->
              if m.m_from != p2c.m_to then fail "mesh map source differs from p2c target"
          | None ->
              if a.dat.d_set != p2c.m_to then fail "dat not on the p2c target set")
      | None, Some m ->
          if m.m_from != iter_set then fail "map source is not the iteration set"
      | None, None ->
          if a.dat.d_set != iter_set then
            fail
              (Printf.sprintf "direct access but dat lives on %s, loop over %s"
                 a.dat.d_set.s_name iter_set.s_name))

(** How a resolved argument reaches its dat from an iteration element:
    not at all (a global), directly, through the particle-to-cell map,
    through one mesh map, or through p2c and then a mesh map. *)
type kind = Global | Direct | P2c | Map | P2c_map

(** An argument resolved once per launch: the descriptor's options
    become a [kind] and the storage it indexes, so an engine computes
    an element's view base with one match and plain arithmetic
    ([Seq.base]). *)
type resolved = {
  kind : kind;
  dim : int;
  p2c : int array;  (** the p2c map's storage ([[||]] unless [P2c]/[P2c_map]) *)
  map : int array;  (** the mesh map's storage ([[||]] unless [Map]/[P2c_map]) *)
  arity : int;  (** the mesh map's arity (0 without one) *)
  slot : int;  (** slot within the mesh map's arity *)
  store : float array;  (** the dat's storage (a global's buffer) at resolution *)
  arg : t;
}

let resolve arg =
  match arg with
  | Arg_gbl g ->
      let dim = Array.length g.buf in
      { kind = Global; dim; p2c = [||]; map = [||]; arity = 0; slot = 0; store = g.buf; arg }
  | Arg_dat a ->
      let kind, p2c, map, arity =
        match (a.p2c, a.map) with
        | None, None -> (Direct, [||], [||], 0)
        | Some p, None -> (P2c, p.m_data, [||], 0)
        | None, Some m -> (Map, [||], m.m_data, m.m_arity)
        | Some p, Some m -> (P2c_map, p.m_data, m.m_data, m.m_arity)
      in
      { kind; dim = a.dat.d_dim; p2c; map; arity; slot = a.idx; store = a.dat.d_data; arg }

(** Estimated bytes touched per iteration element, for the performance
    ledger: dat values as 8-byte doubles, map entries as 4-byte ints
    (matching the C implementation the model mimics). *)
let bytes_per_elem arg =
  match arg with
  | Arg_gbl _ -> 0
  | Arg_dat a ->
      let data_bytes = 8 * a.dat.d_dim in
      let data_bytes = if a.acc = Rw || a.acc = Inc then 2 * data_bytes else data_bytes in
      let map_bytes = (match a.map with None -> 0 | Some _ -> 4) in
      let p2c_bytes = (match a.p2c with None -> 0 | Some _ -> 4) in
      data_bytes + map_bytes + p2c_bytes
