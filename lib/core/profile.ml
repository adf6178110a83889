(** Per-kernel instrumentation ledger.

    Every loop launch records wall time, iteration count, and the
    estimated double-precision flops and bytes it moved. The roofline
    and runtime-breakdown reports in [opp_perf] are generated from
    these records, mirroring the paper's code instrumentation. Time is
    taken in one place per region ({!measure}); the loop engines
    themselves never read the clock. *)

type entry = {
  mutable calls : int;
  mutable elems : int;
  mutable seconds : float;
  mutable flops : float;
  mutable bytes : float;
}

type t = { table : (string, entry) Hashtbl.t; mutable order : string list }

let create () = { table = Hashtbl.create 32; order = [] }

(* The default ledger; backends record here unless given another. *)
let global = create ()

let find t name =
  match Hashtbl.find_opt t.table name with
  | Some e -> e
  | None ->
      let e = { calls = 0; elems = 0; seconds = 0.0; flops = 0.0; bytes = 0.0 } in
      Hashtbl.add t.table name e;
      t.order <- name :: t.order;
      e

let record ?(t = global) ~name ~elems ~seconds ~flops ~bytes () =
  let e = find t name in
  e.calls <- e.calls + 1;
  e.elems <- e.elems + elems;
  e.seconds <- e.seconds +. seconds;
  e.flops <- e.flops +. flops;
  e.bytes <- e.bytes +. bytes

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

(* One pair of clock reads around [f]: the same pair is the ledger's
   seconds (via [k]) and, when tracing, the span (see profile.mli). *)
let measure ~cat ~name ?(on_exn = ignore) f k =
  let traced = !Opp_obs.Trace.enabled in
  let d0 = Opp_obs.Trace.depth () in
  let t0 = Opp_obs.Clock.now_ns () in
  if traced then Opp_obs.Trace.begin_span ~cat ~at:t0 name;
  match f () with
  | result ->
      let t1 = Opp_obs.Clock.now_ns () in
      let args = k result (seconds_between t0 t1) in
      if traced then begin
        Opp_obs.Trace.unwind ~at:t1 (d0 + 1);
        Opp_obs.Trace.end_span ~args ~at:t1 ()
      end;
      result
  | exception e ->
      let t1 = Opp_obs.Clock.now_ns () in
      on_exn (seconds_between t0 t1);
      if traced then Opp_obs.Trace.unwind ~at:t1 d0;
      raise e

let timed ?(t = global) ~name ?(elems = 0) ?(flops = 0.0) ?(bytes = 0.0) f =
  let note seconds = record ~t ~name ~elems ~seconds ~flops ~bytes () in
  measure ~cat:"host" ~name ~on_exn:note f (fun _ seconds ->
      note seconds;
      [])

let reset ?(t = global) () =
  Hashtbl.reset t.table;
  t.order <- []

let entries ?(t = global) () =
  List.rev_map (fun name -> (name, Hashtbl.find t.table name)) t.order

(** Fold [src] into [into]: entries with the same kernel name have
    their fields summed; new names append in [src]'s first-recorded
    order. Used to combine per-rank ledgers into one report. *)
let merge ~into src =
  List.iter
    (fun (name, (e : entry)) ->
      let dst = find into name in
      dst.calls <- dst.calls + e.calls;
      dst.elems <- dst.elems + e.elems;
      dst.seconds <- dst.seconds +. e.seconds;
      dst.flops <- dst.flops +. e.flops;
      dst.bytes <- dst.bytes +. e.bytes)
    (entries ~t:src ())

let total_seconds ?(t = global) () =
  Hashtbl.fold (fun _ e acc -> acc +. e.seconds) t.table 0.0

(** Arithmetic intensity (flop/byte) of a kernel, if it recorded any
    traffic. *)
let intensity e = if e.bytes > 0.0 then Some (e.flops /. e.bytes) else None

let pp fmt ?(t = global) () =
  Format.fprintf fmt "%-28s %10s %12s %10s %10s %10s %8s@." "kernel" "calls" "elems" "time(s)"
    "GF/s" "GB/s" "flop/B";
  List.iter
    (fun (name, e) ->
      let gflops = if e.seconds > 0.0 then e.flops /. e.seconds /. 1e9 else 0.0 in
      let gbytes = if e.seconds > 0.0 then e.bytes /. e.seconds /. 1e9 else 0.0 in
      let ai = match intensity e with Some i -> Printf.sprintf "%8.3f" i | None -> "       -" in
      Format.fprintf fmt "%-28s %10d %12d %10.4f %10.3f %10.3f %s@." name e.calls e.elems
        e.seconds gflops gbytes ai)
    (entries ~t ())
