(** Frontend of the translator.

    The paper parses the C++ application with clang/LibTooling and
    extracts the API calls from the AST; here the same information
    arrives as a declarative manifest (one declaration per line), a
    substitution documented in DESIGN.md. Grammar:

    {v
    program <name>
    set <name>
    particle_set <name> <cells-set>
    map <name> <from-set> <to-set> <arity>
    dat <name> <set> <dim>
    loop <label> kernel <fn> over <set> iterate all|core|injected
      arg <dat> [idx <i> map <m>] [p2c <m>] read|write|inc|rw
      ...
    end
    move <label> kernel <fn> over <set> c2c <map> p2c <map>
      arg ...
    end
    # comments and blank lines are ignored
    v}

    Loops are listed in the order one step launches them. There are no
    halo statements: the distributed backend derives every exchange and
    reduce from the loops' arguments at run time. *)

exception Parse_error of string

let fail line_no fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line_no s))) fmt

let words line =
  String.split_on_char ' ' line |> List.filter (fun w -> w <> "") |> List.map String.trim

let parse_int line_no what s =
  match int_of_string_opt s with Some v -> v | None -> fail line_no "bad %s '%s'" what s

(* arg <dat> [idx <i> map <m>] [p2c <m>] <acc> *)
let parse_arg line_no rest =
  match rest with
  | dat :: tail ->
      let rec consume idx map p2c = function
        | [ acc ] -> (
            match Ir.access_of_string acc with
            | Some a -> { Ir.a_dat = dat; a_idx = idx; a_map = map; a_p2c = p2c; a_acc = a }
            | None -> fail line_no "bad access mode '%s'" acc)
        | "idx" :: i :: tail -> consume (parse_int line_no "index" i) map p2c tail
        | "map" :: m :: tail -> consume idx (Some m) p2c tail
        | "p2c" :: m :: tail -> consume idx map (Some m) tail
        | w :: _ -> fail line_no "unexpected token '%s' in arg" w
        | [] -> fail line_no "arg missing access mode"
      in
      consume 0 None None tail
  | [] -> fail line_no "empty arg"

(* Parse without structural validation: the linter wants the raw
   program so it can report every inconsistency as a diagnostic
   instead of stopping at the first [Ir.Invalid]. *)
let parse_lax source =
  let lines = String.split_on_char '\n' source in
  let name = ref "unnamed" in
  let sets = ref [] and maps = ref [] and dats = ref [] and loops = ref [] in
  (* current loop being collected, if any *)
  let pending : (Ir.loop * Ir.arg list ref) option ref = ref None in
  let close_pending line_no =
    match !pending with
    | None -> ()
    | Some (l, args) ->
        if !args = [] then fail line_no "loop %s has no arguments" l.Ir.l_name;
        loops := { l with Ir.l_args = List.rev !args } :: !loops;
        pending := None
  in
  List.iteri
    (fun i line ->
      let line_no = i + 1 in
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else
        match (words line, !pending) with
        | "arg" :: rest, Some (_, args) -> args := parse_arg line_no rest :: !args
        | "arg" :: _, None -> fail line_no "arg outside a loop"
        | [ "end" ], Some _ -> close_pending line_no
        | [ "end" ], None -> fail line_no "end without a loop"
        | [ "program"; n ], None -> name := n
        | [ "set"; n ], None -> sets := { Ir.set_name = n; set_cells = None } :: !sets
        | [ "particle_set"; n; cells ], None ->
            sets := { Ir.set_name = n; set_cells = Some cells } :: !sets
        | [ "map"; n; from; to_; arity ], None ->
            maps :=
              {
                Ir.map_name = n;
                map_from = from;
                map_to = to_;
                map_arity = parse_int line_no "arity" arity;
              }
              :: !maps
        | [ "dat"; n; set; dim ], None ->
            dats := { Ir.dat_name = n; dat_set = set; dat_dim = parse_int line_no "dim" dim } :: !dats
        | [ "loop"; label; "kernel"; fn; "over"; set; "iterate"; it ], None ->
            let iterate =
              match it with
              | "all" -> `All
              | "core" -> `Core
              | "injected" -> `Injected
              | _ -> fail line_no "bad iterate '%s'" it
            in
            pending :=
              Some
                ( {
                    Ir.l_kernel = fn;
                    l_name = label;
                    l_set = set;
                    l_kind = Ir.Par_loop { iterate };
                    l_args = [];
                  },
                  ref [] )
        | [ "move"; label; "kernel"; fn; "over"; set; "c2c"; c2c; "p2c"; p2c ], None ->
            pending :=
              Some
                ( {
                    Ir.l_kernel = fn;
                    l_name = label;
                    l_set = set;
                    l_kind = Ir.Particle_move { c2c; p2c };
                    l_args = [];
                  },
                  ref [] )
        | _, Some _ -> fail line_no "expected 'arg' or 'end' inside a loop"
        | _, None -> fail line_no "cannot parse '%s'" line)
    lines;
  (match !pending with
  | Some (l, _) -> raise (Parse_error (Printf.sprintf "loop %s not closed with 'end'" l.Ir.l_name))
  | None -> ());
  {
    Ir.p_name = !name;
    p_sets = List.rev !sets;
    p_maps = List.rev !maps;
    p_dats = List.rev !dats;
    p_loops = List.rev !loops;
  }

let parse source = Ir.validate (parse_lax source)
