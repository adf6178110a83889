(** Particle migration buffers: the pack/send/unpack path of the
    paper's distributed particle move (section 3.2.2), one flat buffer
    of rows per (src, dst) rank pair (see mailbox.mli).

    {b Delivery deadline} (opp_heal): a batch addressed to a rank
    marked dead cannot wait for an ack that will never come — the
    delivery round {e is} the deadline. Its migrants are forwarded to
    their recovery owner ([reroute]) or dead-lettered, so no migrant
    silently vanishes under a crash fault. *)

open Opp_core.Types
module Fault = Opp_resil.Fault

type t = {
  nranks : int;
  width : int;  (** doubles of particle data per migrant *)
  bufs : float array array;
      (** rows per box: box [src * nranks + dst] holds what [src] posted
          to [dst], box [nranks * nranks] past it what the deadline pass
          rerouted from [src] to [dst] *)
  rows : int array;  (** rows in use per box *)
  dead : bool array;
  mutable wire_seq : int;  (** sequence number of the next guarded message *)
}

let create ?(wire_seq = 0) ~nranks ~width () =
  let boxes = 2 * nranks * nranks in
  {
    nranks;
    width;
    bufs = Array.make boxes [||];
    rows = Array.make boxes 0;
    dead = Array.make nranks false;
    wire_seq;
  }

let wire_seq t = t.wire_seq
let total t = Array.fold_left ( + ) 0 t.rows

(* The offset of a new row at the end of box [b]. *)
let reserve t b =
  let stride = t.width + 1 in
  let off = t.rows.(b) * stride and buf = t.bufs.(b) in
  if off + stride > Array.length buf then begin
    t.bufs.(b) <- Array.make (max (2 * Array.length buf) (16 * stride)) 0.0;
    Array.blit buf 0 t.bufs.(b) 0 off
  end;
  t.rows.(b) <- t.rows.(b) + 1;
  off

let post t ~src ~dest ~cell dats p =
  if Array.fold_left (fun acc d -> acc + d.d_dim) 0 dats <> t.width then
    invalid_arg "Mailbox.post: payload size";
  if dest < 0 || dest >= t.nranks || src < 0 || src >= t.nranks then
    invalid_arg "Mailbox.post: bad rank";
  let b = (src * t.nranks) + dest in
  let off = reserve t b in
  let buf = t.bufs.(b) in
  buf.(off) <- float_of_int cell;
  let o = ref (off + 1) in
  for k = 0 to Array.length dats - 1 do
    let d = dats.(k) in
    Array.blit d.d_data (d.d_dim * p) buf !o d.d_dim;
    o := !o + d.d_dim
  done

let mark_dead t rank =
  if rank < 0 || rank >= t.nranks then invalid_arg "Mailbox.mark_dead: bad rank";
  t.dead.(rank) <- true

let is_dead t rank = t.dead.(rank)

type batch = { stride : int; msgs : (float array * int) list  (** (rows, row count) *) }

let length b = List.fold_left (fun acc (_, n) -> acc + n) 0 b.msgs

let iter b f =
  List.iter
    (fun (buf, n) ->
      for i = 0 to n - 1 do
        f buf (i * b.stride)
      done)
    b.msgs

(* Empty every box addressed to a dead rank: each row moves to the
   rerouted box of its (src, recovery owner) pair, or is dead-lettered. *)
let deadline ?reroute t =
  let n = t.nranks and stride = t.width + 1 in
  let rerouted = ref 0 and dead_letter = ref 0 in
  for b = 0 to (n * n) - 1 do
    if t.dead.(b mod n) then begin
      for i = 0 to t.rows.(b) - 1 do
        let cell = int_of_float t.bufs.(b).(i * stride) in
        let dest = match reroute with Some owner_of -> owner_of ~cell | None -> -1 in
        if dest < 0 || dest >= n || t.dead.(dest) then incr dead_letter
        else begin
          let rb = (n * n) + (b - (b mod n)) + dest in
          let off = reserve t rb in
          Array.blit t.bufs.(b) (i * stride) t.bufs.(rb) off stride;
          incr rerouted
        end
      done;
      t.rows.(b) <- 0
    end
  done;
  if !Opp_obs.Metrics.enabled then begin
    if !rerouted > 0 then Opp_obs.Metrics.add "migrate.rerouted" (float_of_int !rerouted);
    if !dead_letter > 0 then
      Opp_obs.Metrics.add "migrate.dead_letter" (float_of_int !dead_letter)
  end

let finite buf off len =
  let ok = ref true in
  for j = off to off + len - 1 do
    if not (Float.is_finite buf.(j)) then ok := false
  done;
  !ok

(* One destination's boxes as one guarded round. A box's message is a
   copy of its rows less those carrying a non-finite value, which are
   quarantined before sending; every row of a message whose retries run
   out is quarantined too. *)
let guarded inj t ~dest boxes =
  let stride = t.width + 1 in
  let msgs =
    List.filter_map
      (fun (src, b) ->
        let buf = t.bufs.(b) in
        let msg = Array.make (t.rows.(b) * stride) 0.0 and kept = ref 0 in
        for i = 0 to t.rows.(b) - 1 do
          if finite buf (i * stride) stride then begin
            Array.blit buf (i * stride) msg (!kept * stride) stride;
            incr kept
          end
          else Fault.count inj "quarantined"
        done;
        if !kept = 0 then None
        else if !kept = t.rows.(b) then Some ((src, dest), msg)
        else Some ((src, dest), Array.sub msg 0 (!kept * stride)))
      boxes
  in
  let got =
    Envelope.round inj ~chan:Fault.Migrate ~what:"particle migration" ~seq:t.wire_seq msgs
  in
  t.wire_seq <- t.wire_seq + List.length msgs;
  List.concat_map
    (fun ((_, msg), got) ->
      match got with
      | Ok wire -> [ (wire, Array.length wire / stride) ]
      | Error _ ->
          Fault.count ~n:(Array.length msg / stride) inj "quarantined";
          [])
    (List.combine msgs got)

let deliver ?traffic ?reroute t handler =
  deadline ?reroute t;
  let n = t.nranks in
  let posted = total t and pairs = ref 0 in
  for b = 0 to (n * n) - 1 do
    if t.rows.(b) > 0 || t.rows.((n * n) + b) > 0 then incr pairs
  done;
  let bytes = float_of_int (posted * ((t.width * 8) + 4)) in
  (match traffic with
  | Some (tr : Traffic.t) ->
      tr.Traffic.migrated_particles <- tr.Traffic.migrated_particles + posted;
      tr.Traffic.migrate_bytes <- tr.Traffic.migrate_bytes +. bytes;
      tr.Traffic.migrate_messages <- tr.Traffic.migrate_messages + !pairs
  | None -> ());
  if !Opp_obs.Metrics.enabled then begin
    Opp_obs.Metrics.add "migrate.particles" (float_of_int posted);
    Opp_obs.Metrics.add "migrate.bytes" bytes;
    Opp_obs.Metrics.add "migrate.msgs" (float_of_int !pairs)
  end;
  let delivered = ref 0 in
  for r = 0 to n - 1 do
    (* own messages by source ascending, then the rerouted ones *)
    let boxes =
      List.filter
        (fun (_, b) -> t.rows.(b) > 0)
        (List.init (2 * n) (fun i -> (i mod n, ((i / n) * n * n) + ((i mod n) * n) + r)))
    in
    let msgs =
      match Fault.active () with
      | None -> List.map (fun (_, b) -> (t.bufs.(b), t.rows.(b))) boxes
      | Some inj -> guarded inj t ~dest:r boxes
    in
    let batch = { stride = t.width + 1; msgs } in
    delivered := !delivered + length batch;
    if msgs <> [] then handler r batch;
    List.iter (fun (_, b) -> t.rows.(b) <- 0) boxes
  done;
  !delivered
