(** Argument descriptors for [par_loop] / [particle_move], mirroring
    [opp_arg_dat] / [opp_arg_gbl] of the paper's API.

    An argument is a dat plus how it is reached from the iteration
    set: directly, through one mesh map (slot [idx]), or — for
    particle loops — through the particle-to-cell map, optionally
    composed with a mesh map (the double indirection of
    particle-to-node scatters). *)

open Types

type t =
  | Arg_dat of {
      dat : dat;
      idx : int;  (** slot within the map's arity; ignored if [map = None] *)
      map : map option;
      p2c : map option;
      acc : access;
    }
  | Arg_gbl of { buf : float array; acc : access }

val dat : dat -> access -> t
(** Directly accessed dat. *)

val dat_i : dat -> idx:int -> map:map -> access -> t
(** Dat accessed through mesh map [map], slot [idx]. *)

val dat_p2c : dat -> p2c:map -> access -> t
(** Cell dat accessed from a particle through [p2c]. *)

val dat_p2c_i : dat -> idx:int -> map:map -> p2c:map -> access -> t
(** Double indirection: particle -> cell -> mesh element. *)

val gbl : float array -> access -> t
(** Global argument (reduction buffer or read-only constants). *)

val access : t -> access
val view_dim : t -> int

val validate : iter_set:set -> t -> unit
(** Raises [Invalid_argument] describing the first inconsistency
    between the argument and the loop's iteration set. *)

type kind = Global | Direct | P2c | Map | P2c_map
(** How a resolved argument reaches its dat from an iteration element:
    not at all (a global), directly, through the particle-to-cell map,
    through one mesh map, or through p2c and then a mesh map. *)

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
(** An argument resolved once per launch: engines compute an element's
    view base from it with one match and plain arithmetic
    ([Seq.base]), instead of re-matching the descriptor for every
    element. *)

val resolve : t -> resolved
(** Resolve an argument for one launch. The map and dat storage is
    captured as it is now: resolve again after the set reallocates. *)

val bytes_per_elem : t -> int
(** Estimated bytes touched per iteration element, for the ledger. *)
