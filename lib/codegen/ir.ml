(** Intermediate representation of an OP-PIC application.

    The paper's translator walks the clang AST of the C++ source and
    collects exactly this information from the API calls; the emitters
    then instantiate backend templates from it. *)

(* One access-mode enum for the whole system: the translator IR aliases
   the runtime's [Types.access] (with re-exported constructors), so the
   static analyzer, the runtime argument descriptors and the generated
   code all agree on a single definition. *)
type access = Opp_core.Types.access = Read | Write | Inc | Rw

let access_of_string = function
  | "read" -> Some Read
  | "write" -> Some Write
  | "inc" -> Some Inc
  | "rw" -> Some Rw
  | _ -> None

let access_to_string = Opp_core.Types.access_to_string

type set_decl = { set_name : string; set_cells : string option  (** particle sets name their cell set *) }

type map_decl = { map_name : string; map_from : string; map_to : string; map_arity : int }

type dat_decl = { dat_name : string; dat_set : string; dat_dim : int }

type arg = {
  a_dat : string;
  a_idx : int;  (** slot in [a_map]'s arity; 0 when direct *)
  a_map : string option;
  a_p2c : string option;
  a_acc : access;
}

type loop_kind =
  | Par_loop of { iterate : [ `All | `Core | `Injected ] }
  | Particle_move of { c2c : string; p2c : string }

type loop = {
  l_kernel : string;  (** elemental kernel function name *)
  l_name : string;  (** human-readable loop label *)
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

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let find_set p name = List.find_opt (fun s -> s.set_name = name) p.p_sets
let find_map p name = List.find_opt (fun m -> m.map_name = name) p.p_maps
let find_dat p name = List.find_opt (fun d -> d.dat_name = name) p.p_dats

(** Structural validation mirroring the runtime's argument checks. *)
let validate p =
  let require_set name where =
    match find_set p name with Some s -> s | None -> invalid "%s: unknown set '%s'" where name
  in
  List.iter
    (fun (m : map_decl) ->
      ignore (require_set m.map_from ("map " ^ m.map_name));
      ignore (require_set m.map_to ("map " ^ m.map_name));
      if m.map_arity <= 0 then invalid "map %s: arity must be positive" m.map_name)
    p.p_maps;
  List.iter
    (fun (d : dat_decl) ->
      ignore (require_set d.dat_set ("dat " ^ d.dat_name));
      if d.dat_dim <= 0 then invalid "dat %s: dim must be positive" d.dat_name)
    p.p_dats;
  List.iter
    (fun (s : set_decl) ->
      match s.set_cells with
      | None -> ()
      | Some c -> ignore (require_set c ("particle set " ^ s.set_name)))
    p.p_sets;
  List.iter
    (fun (l : loop) ->
      let where = "loop " ^ l.l_name in
      let iter_set = require_set l.l_set where in
      (match l.l_kind with
      | Particle_move { c2c; p2c } ->
          if iter_set.set_cells = None then
            invalid "%s: particle_move over a mesh set" where;
          (match find_map p c2c with
          | None -> invalid "%s: unknown c2c map '%s'" where c2c
          | Some m ->
              if m.map_from <> m.map_to then invalid "%s: c2c map must be cell-to-cell" where);
          if find_map p p2c = None then invalid "%s: unknown p2c map '%s'" where p2c
      | Par_loop _ -> ());
      List.iter
        (fun a ->
          let dat =
            match find_dat p a.a_dat with
            | Some d -> d
            | None -> invalid "%s: unknown dat '%s'" where a.a_dat
          in
          (match a.a_map with
          | None ->
              if a.a_p2c = None && dat.dat_set <> l.l_set then
                invalid "%s: direct arg %s lives on %s" where a.a_dat dat.dat_set
          | Some mname -> (
              match find_map p mname with
              | None -> invalid "%s: unknown map '%s'" where mname
              | Some m ->
                  if a.a_idx < 0 || a.a_idx >= m.map_arity then
                    invalid "%s: index %d out of arity %d of map %s" where a.a_idx m.map_arity
                      mname;
                  if m.map_to <> dat.dat_set then
                    invalid "%s: map %s targets %s but dat %s lives on %s" where mname m.map_to
                      a.a_dat dat.dat_set));
          match a.a_p2c with
          | None -> ()
          | Some pname -> (
              match find_map p pname with
              | None -> invalid "%s: unknown p2c map '%s'" where pname
              | Some m ->
                  if m.map_from <> l.l_set then
                    invalid "%s: p2c map %s is not over the iteration set" where pname))
        l.l_args)
    p.p_loops;
  p
