(** Static per-loop cost model.

    Lowers a loop's {!Opp_check.Descriptor} into flop and byte counts
    per iteration element (per particle/cell for par_loops, per hop
    for movers), with no hand-supplied numbers:
    - **bytes** come from the argument list — the same accounting as
      [Opp_core.Arg.bytes_per_elem] (8-byte doubles per dat slot,
      doubled for read-modify-write [Rw]/[Inc] access, 4-byte map and
      p2c indices), but computed from the name-based descriptor so it
      works on translator IR with nothing live;
    - **flops** come from the kernel-body registry ({!Kernels}): a
      live launch is looked up by its loop name, a manifest loop by
      its kernel body, so two loops that run one kernel cost the same.

    Because [Descriptor.of_ir] and [Descriptor.of_live] lower to the
    same descriptor, the static table produced from a [.oppic]
    manifest and the live costs recorded by the runtime agree
    exactly — that agreement is test-enforced. *)

module D = Opp_check.Descriptor

type t = {
  c_loop : string;
  c_kind : D.loop_kind_d;
  c_flops : float;  (** per element (par_loop) or per hop (mover) *)
  c_bytes : float;  (** per element / per hop, dat + map traffic *)
  c_known : bool;  (** the kernel body is in the registry *)
}

let arg_bytes (p : D.t) (a : D.arg_d) =
  match a.D.ad_dat with
  | None -> 0.0 (* globals: reduction buffers, no per-element traffic *)
  | Some dname ->
      let dim = match D.find_dat p dname with Some d -> d.D.dd_dim | None -> 1 in
      let data = 8 * dim in
      let data = if a.D.ad_acc = D.Rw || a.D.ad_acc = D.Inc then 2 * data else data in
      let map = match a.D.ad_map with None -> 0 | Some _ -> 4 in
      let p2c = match a.D.ad_p2c with None -> 0 | Some _ -> 4 in
      float_of_int (data + map + p2c)

let bytes_per_elem (p : D.t) (l : D.loop_d) =
  List.fold_left (fun acc a -> acc +. arg_bytes p a) 0.0 l.D.ld_args

(* [body] is the registry name of the loop's kernel body. *)
let of_loop ?body (p : D.t) (l : D.loop_d) =
  let body = Option.value body ~default:l.D.ld_name in
  {
    c_loop = l.D.ld_name;
    c_kind = l.D.ld_kind;
    c_flops = Kernels.flops_per_elem body;
    c_bytes = bytes_per_elem p l;
    c_known = Kernels.find body <> None;
  }

(** Cost every loop of a descriptor (one row per [pr_loops] entry). *)
let of_descriptor (p : D.t) = List.map (of_loop p) p.D.pr_loops

(** Cost every loop of a translator manifest by its kernel body: the
    registry entry of a loop running the same kernel function
    (CabanaPIC's [AdvanceB2] runs [advance_b_kernel], registered as
    [AdvanceB]). *)
let of_program (prog : Opp_codegen.Ir.program) =
  let open Opp_codegen.Ir in
  let body (l : loop) =
    List.find_opt (fun m -> m.l_kernel = l.l_kernel && Kernels.find m.l_name <> None) prog.p_loops
    |> Option.map (fun m -> m.l_name)
  in
  let p = D.of_ir prog in
  List.map2 (fun l ld -> of_loop ?body:(body l) p ld) prog.p_loops p.D.pr_loops

let intensity c = if c.c_bytes > 0.0 then c.c_flops /. c.c_bytes else 0.0

let pp fmt costs =
  Format.fprintf fmt "%-28s %-14s %10s %10s %8s@." "loop" "kind" "flop/elem" "byte/elem"
    "flop/B";
  List.iter
    (fun c ->
      let kind =
        match c.c_kind with D.Par_loop_d -> "par_loop" | D.Particle_move_d -> "move/hop"
      in
      Format.fprintf fmt "%-28s %-14s %10.1f %10.1f %8.3f%s@." c.c_loop kind c.c_flops
        c.c_bytes (intensity c)
        (if c.c_known then "" else "   (kernel body not in registry)"))
    costs
