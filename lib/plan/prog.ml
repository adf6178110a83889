(** The step program: the ordered sequence of loop launches, halo
    collectives and host-side phases that makes up ONE simulation step.

    This is the unit the whole-step analyzer ({!Flow}) reasons about.
    Per-loop analysis ({!Opp_check.Static}) sees each launch in
    isolation; the step program restores the schedule around the
    launches — which exchange precedes which indirect read, which
    write is overwritten before anyone looks — so cross-loop facts
    (redundant exchanges, dead writes, fusable neighbours) become
    decidable. {!of_ir} builds it from a manifest whose
    [exchange]/[reduce]/[fresh] statements interleave with its loops. *)

module D = Opp_check.Descriptor

type iterate = [ `All | `Core | `Injected ]

type collective = {
  c_site : string;  (** stable site name, e.g. "node_charge.exchange" *)
  c_dats : string list;
}

(** A host-side phase the loop IR cannot see (a global field solve,
    file I/O): its dat footprint is declared, not inferred. [o_reads]
    are owned-only reads, [o_hreads] reads that touch halo copies,
    [o_writes] plain writes, [o_fresh] writes that leave every copy
    (owned and halo) consistent. *)
type opaque = {
  o_name : string;
  o_reads : string list;
  o_hreads : string list;
  o_writes : string list;
  o_fresh : string list;
}

type event =
  | Loop of { e_loop : D.loop_d; e_iterate : iterate }
  | Exchange of collective  (** owners -> halo copies *)
  | Reduce of collective  (** halo contributions -> owners; halos zeroed *)
  | Fresh of string list  (** halo copies recomputed locally; now consistent *)
  | Opaque of opaque
  | Probe of collective
      (** placeholder for an elided exchange: {!Flow} records the
          freshness/liveness state here so {!Plan.verify} can re-prove
          the elision on the optimized program *)

type t = { pg_name : string; pg_desc : D.t; pg_events : event list }

let event_name = function
  | Loop { e_loop; _ } -> e_loop.D.ld_name
  | Exchange c | Reduce c | Probe c -> c.c_site
  | Fresh ds -> "fresh:" ^ String.concat "," ds
  | Opaque o -> o.o_name

(* ------------------------------------------------------------------ *)
(* Lowering from the translator IR.                                    *)

let iterate_of_ir : [ `All | `Core | `Injected ] -> iterate = Fun.id

(** Lower a manifest to a step program: the ordered [p_steps] become
    events, loops by label. Collective sites are named
    ["<first-dat>.exchange"] / ["<first-dat>.reduce"] with a
    positional suffix on repeats, matching the runtime convention so
    baselines and plans line up across the static and recorded
    views. *)
let of_ir (p : Opp_codegen.Ir.program) : t =
  let desc = D.of_ir p in
  let seen = Hashtbl.create 8 in
  let site kind dats =
    let base =
      Printf.sprintf "%s.%s" (match dats with d :: _ -> d | [] -> "none") kind
    in
    let n = try Hashtbl.find seen base with Not_found -> 0 in
    Hashtbl.replace seen base (n + 1);
    if n = 0 then base else Printf.sprintf "%s#%d" base n
  in
  let events =
    List.filter_map
      (fun (s : Opp_codegen.Ir.step_stmt) ->
        match s with
        | Opp_codegen.Ir.Step_loop name -> (
            match
              List.find_opt
                (fun (l : Opp_codegen.Ir.loop) -> l.Opp_codegen.Ir.l_name = name)
                p.Opp_codegen.Ir.p_loops
            with
            | None -> None
            | Some l ->
                let e_iterate =
                  match l.Opp_codegen.Ir.l_kind with
                  | Opp_codegen.Ir.Par_loop { iterate } -> iterate_of_ir iterate
                  | Opp_codegen.Ir.Particle_move _ -> `All
                in
                let e_loop =
                  List.find
                    (fun (d : D.loop_d) -> d.D.ld_name = name)
                    desc.D.pr_loops
                in
                Some (Loop { e_loop; e_iterate }))
        | Opp_codegen.Ir.Step_exchange ds ->
            Some (Exchange { c_site = site "exchange" ds; c_dats = ds })
        | Opp_codegen.Ir.Step_reduce ds ->
            Some (Reduce { c_site = site "reduce" ds; c_dats = ds })
        | Opp_codegen.Ir.Step_fresh ds -> Some (Fresh ds))
      p.Opp_codegen.Ir.p_steps
  in
  { pg_name = p.Opp_codegen.Ir.p_name; pg_desc = desc; pg_events = events }

(** True when the program carries step structure beyond bare loops
    (any collective / fresh / opaque event) — the soundness gate for
    the freshness and dead-write analyses. *)
let has_step_structure t =
  List.exists
    (function Loop _ -> false | Exchange _ | Reduce _ | Fresh _ | Opaque _ | Probe _ -> true)
    t.pg_events

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let iterate_to_string = function `All -> "all" | `Core -> "core" | `Injected -> "injected"

let event_to_string = function
  | Loop { e_loop; e_iterate } ->
      Printf.sprintf "loop %s over %s iterate %s" e_loop.D.ld_name e_loop.D.ld_set
        (iterate_to_string e_iterate)
  | Exchange c -> Printf.sprintf "exchange %s [%s]" c.c_site (String.concat "," c.c_dats)
  | Reduce c -> Printf.sprintf "reduce %s [%s]" c.c_site (String.concat "," c.c_dats)
  | Fresh ds -> Printf.sprintf "fresh [%s]" (String.concat "," ds)
  | Opaque o -> Printf.sprintf "opaque %s" o.o_name
  | Probe c -> Printf.sprintf "probe %s (elided)" c.c_site

let to_string t =
  String.concat "\n" (List.map event_to_string t.pg_events)

(** DOT of the step program: events in schedule order (solid edges)
    with cross-loop dat dependences as labelled dashed edges. *)
let to_dot t =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph step_%s {\n  rankdir=TB;\n  node [fontname=\"monospace\"];\n" t.pg_name;
  let nodes = List.mapi (fun i e -> (i, e)) t.pg_events in
  List.iter
    (fun (i, e) ->
      let shape, label =
        match e with
        | Loop { e_loop; _ } -> ("box", e_loop.D.ld_name)
        | Exchange c -> ("ellipse", "exchange\\n" ^ c.c_site)
        | Reduce c -> ("ellipse", "reduce\\n" ^ c.c_site)
        | Fresh ds -> ("diamond", "fresh " ^ String.concat "," ds)
        | Opaque o -> ("octagon", o.o_name)
        | Probe c -> ("ellipse", "elided\\n" ^ c.c_site)
      in
      pr "  n%d [shape=%s, label=\"%s\"];\n" i shape label)
    nodes;
  List.iter (fun (i, _) -> if i > 0 then pr "  n%d -> n%d;\n" (i - 1) i) nodes;
  (* cross-loop dat dependences between loop events *)
  let loops =
    List.filter_map (function i, Loop { e_loop; _ } -> Some (i, e_loop) | _ -> None) nodes
  in
  let edges = Hashtbl.create 32 in
  List.iter
    (fun (i, (li : D.loop_d)) ->
      List.iter
        (fun (j, (lj : D.loop_d)) ->
          if i < j then
            List.iter
              (fun (d, acc_i, _) ->
                List.iter
                  (fun (d', acc_j, _) ->
                    if d = d' then
                      let hz =
                        if Opp_check.Static.writes_acc acc_i && Opp_check.Static.reads_acc acc_j
                        then Some "RAW"
                        else if
                          Opp_check.Static.reads_acc acc_i && Opp_check.Static.writes_acc acc_j
                        then Some "WAR"
                        else if
                          Opp_check.Static.writes_acc acc_i && Opp_check.Static.writes_acc acc_j
                        then Some "WAW"
                        else None
                      in
                      match hz with
                      | Some h -> Hashtbl.replace edges (i, j, h, d) ()
                      | None -> ())
                  (Opp_check.Static.footprint lj))
              (Opp_check.Static.footprint li))
        loops)
    loops;
  Hashtbl.fold (fun k () acc -> k :: acc) edges []
  |> List.sort compare
  |> List.iter (fun (i, j, h, d) ->
         pr "  n%d -> n%d [style=dashed, color=gray40, label=\"%s %s\"];\n" i j h d);
  pr "}\n";
  Buffer.contents buf
