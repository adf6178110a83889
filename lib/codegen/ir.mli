(** Intermediate representation of an OP-PIC application: what the
    paper's translator collects from the clang AST of the API calls,
    and what the backend templates are instantiated from. *)

type access = Opp_core.Types.access = Read | Write | Inc | Rw
(** Alias of the runtime's access-mode enum — one definition shared by
    the translator IR, the live argument descriptors and the static
    analyzer ({!Opp_check}). *)

val access_of_string : string -> access option
val access_to_string : access -> string

type set_decl = { set_name : string; set_cells : string option }
type map_decl = { map_name : string; map_from : string; map_to : string; map_arity : int }
type dat_decl = { dat_name : string; dat_set : string; dat_dim : int }

type arg = {
  a_dat : string;
  a_idx : int;
  a_map : string option;
  a_p2c : string option;
  a_acc : access;
}

type loop_kind =
  | Par_loop of { iterate : [ `All | `Core | `Injected ] }
  | Particle_move of { c2c : string; p2c : string }

type loop = {
  l_kernel : string;
  l_name : string;
  l_set : string;
  l_kind : loop_kind;
  l_args : arg list;
}

type program = {
  p_name : string;
  p_sets : set_decl list;
  p_maps : map_decl list;
  p_dats : dat_decl list;
  p_loops : loop list;
}

exception Invalid of string

val find_set : program -> string -> set_decl option
val find_map : program -> string -> map_decl option
val find_dat : program -> string -> dat_decl option

val validate : program -> program
(** Structural validation mirroring the runtime's argument checks;
    raises {!Invalid} on the first inconsistency. *)

