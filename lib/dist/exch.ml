(** Halo exchange links: the simulated counterpart of OP2/OP-PIC's MPI
    halo lists.

    A link ties a halo copy on one rank to its owning element on
    another. [exchange] refreshes halo copies from owners (the forward
    import of read halos); [reduce] pushes halo contributions back
    into owners and zeroes the copies (the reverse export after an
    INC loop). Both count the bytes and neighbour messages a real MPI
    run would issue.

    Each halo-holding rank receives one message per owner rank it
    holds copies of, packed, delivered and applied in canonical order;
    the messages are fixed when the links are, so {!create} groups
    them once. When a fault schedule is installed
    ([Opp_resil.Fault.install]) a rank's messages are one guarded
    {!Envelope.round}, the round particle migration uses (see
    docs/RESILIENCE.md): drops, corruption, duplicates, reorders and
    stale replays are detected and healed by bounded retransmission,
    and the payloads are still applied in canonical order, so a
    recovered exchange is bit-for-bit the fault-free one. *)

type link = {
  l_local : int;  (** halo element's local index on the halo-holding rank *)
  l_owner_rank : int;
  l_owner_index : int;  (** element's local index on the owner *)
}

type t = {
  nranks : int;
  messages : (int * link array) array array;
      (** per halo-holding rank, its neighbour messages in canonical
          order: links grouped by owner rank, owners ascending, links in
          link-array order *)
  nmessages : int;  (** one per (halo-holder, owner) pair *)
  nelems : int;  (** halo elements over all ranks *)
  mutable seq : int;  (** wire sequence number of the next message *)
  mutable epoch : int;  (** bumped once per collective; tags envelopes *)
}

exception Invalid_links of string

let () =
  Printexc.register_printer (function
    | Invalid_links msg -> Some (Printf.sprintf "Opp_dist.Exch.Invalid_links(%s)" msg)
    | _ -> None)

(* Construction-time structural validation (diagnostic codes E070-E072,
   see docs/ANALYSIS.md): a bad link would otherwise surface as a
   misdirected blit deep inside [exchange]. [sizes], when given, is the
   per-rank element count of the exchanged set and bounds both link
   endpoints. *)
let validate ?sizes ~nranks links =
  (match sizes with
  | Some s when Array.length s <> nranks -> invalid_arg "Exch.create: sizes size mismatch"
  | _ -> ());
  Array.iteri
    (fun r ls ->
      Array.iteri
        (fun i l ->
          let fail code msg =
            raise
              (Invalid_links (Printf.sprintf "%s: rank %d link %d: %s" code r i msg))
          in
          if l.l_owner_rank < 0 || l.l_owner_rank >= nranks then
            fail "E070"
              (Printf.sprintf "owner rank %d outside [0, %d)" l.l_owner_rank nranks);
          if l.l_owner_rank = r then
            fail "E071"
              (Printf.sprintf "halo element %d claims its own rank as owner" l.l_local);
          if l.l_local < 0 then
            fail "E072" (Printf.sprintf "negative local index %d" l.l_local);
          if l.l_owner_index < 0 then
            fail "E072" (Printf.sprintf "negative owner index %d" l.l_owner_index);
          match sizes with
          | Some s ->
              if l.l_local >= s.(r) then
                fail "E072"
                  (Printf.sprintf "local index %d outside set of size %d" l.l_local s.(r));
              if l.l_owner_index >= s.(l.l_owner_rank) then
                fail "E072"
                  (Printf.sprintf "owner index %d outside owner set of size %d"
                     l.l_owner_index
                     s.(l.l_owner_rank))
          | None -> ())
        ls)
    links

let group ls =
  let owners = List.sort_uniq compare (Array.to_list (Array.map (fun l -> l.l_owner_rank) ls)) in
  Array.of_list
    (List.map
       (fun o -> (o, Array.of_list (List.filter (fun l -> l.l_owner_rank = o) (Array.to_list ls))))
       owners)

(* Links never change after construction, so neither do the messages
   and their counts. *)
let create ?sizes ~nranks links =
  if Array.length links <> nranks then invalid_arg "Exch.create: links size mismatch";
  validate ?sizes ~nranks links;
  let messages = Array.map group links in
  {
    nranks;
    messages;
    nmessages = Array.fold_left (fun acc m -> acc + Array.length m) 0 messages;
    nelems = Array.fold_left (fun acc l -> acc + Array.length l) 0 links;
    seq = 0;
    epoch = 0;
  }

(* --- epoch fencing & wire-state adoption (opp_heal) --- *)

(** Epoch-fence the exchange after a rank failure: bump the epoch by a
    stride much larger than one collective's increment, so any
    in-flight straggler stamped with the dead epoch (or any epoch the
    dead rank could still produce) is rejected by the stale-tag check
    rather than applied to recovered state. Counts [heal.fences]. *)
let fence ?(stride = 1024) t =
  t.epoch <- t.epoch + stride;
  if !Opp_obs.Metrics.enabled then Opp_obs.Metrics.add "heal.fences" 1.0

(** Carry the wire state (seq counter, epoch tag) of a pre-recovery
    exchange into its rebuilt replacement, so the fault schedule —
    a pure function of message coordinates — keeps advancing instead
    of replaying the run's first decisions against recovered state. *)
let adopt_wire_state ~from t =
  t.seq <- from.seq;
  t.epoch <- from.epoch

let count_messages t = t.nmessages

let account traffic t ~dim =
  let bytes = float_of_int (t.nelems * dim * 8) in
  (match traffic with
  | None -> ()
  | Some (tr : Traffic.t) ->
      tr.Traffic.halo_bytes <- tr.Traffic.halo_bytes +. bytes;
      tr.Traffic.halo_messages <- tr.Traffic.halo_messages + t.nmessages);
  if !Opp_obs.Metrics.enabled then begin
    Opp_obs.Metrics.add "halo.bytes" bytes;
    Opp_obs.Metrics.add "halo.msgs" (float_of_int t.nmessages)
  end

module Fault = Opp_resil.Fault

(* One collective: each halo-holding rank receives its neighbour
   messages in canonical order. [gather r owner ls payload] fills a
   sender's payload (owner-side for exchange, holder-side for reduce);
   [apply r owner ls wire] applies it. Under an installed fault
   schedule a rank's messages are one guarded {!Envelope.round}, and a
   message whose retries run out is fatal. *)
let collective t ~dim ~what ~gather ~apply =
  let inj = Fault.active () in
  t.epoch <- t.epoch + 1;
  for r = 0 to t.nranks - 1 do
    let msgs = t.messages.(r) in
    let sent =
      Array.to_list
        (Array.map
           (fun (owner, ls) ->
             let payload = Array.make (Array.length ls * dim) 0.0 in
             gather r owner ls payload;
             ((owner, r), payload))
           msgs)
    in
    let wires =
      match inj with
      | None -> List.map snd sent
      | Some inj ->
          let got = Envelope.round inj ~chan:Fault.Halo ~what ~seq:t.seq ~epoch:t.epoch sent in
          t.seq <- t.seq + Array.length msgs;
          List.map (function Ok wire -> wire | Error why -> raise (Opp_resil.Retry.Exhausted why)) got
    in
    List.iteri
      (fun i wire ->
        let owner, ls = msgs.(i) in
        apply r owner ls wire)
      wires
  done

(** Refresh halo copies from their owners. [data rank] is that rank's
    local storage of the exchanged dat ([dim] doubles per element).
    [dats] names the per-rank dat records being exchanged so their
    halo-freshness bit can be cleared (see {!Freshness}). *)
let exchange ?traffic ?(dats = [||]) t ~dim ~data =
  Opp_obs.Trace.with_span ~cat:"halo" "HaloExchange" (fun () ->
      collective t ~dim ~what:"halo exchange"
        ~gather:(fun _r owner ls payload ->
          let src = data owner in
          Array.iteri (fun i l -> Array.blit src (l.l_owner_index * dim) payload (i * dim) dim) ls)
        ~apply:(fun r _owner ls wire ->
          let dst = data r in
          Array.iteri (fun i l -> Array.blit wire (i * dim) dst (l.l_local * dim) dim) ls);
      Array.iter Freshness.mark_fresh dats;
      account traffic t ~dim)

(** Add halo contributions into the owners and clear the halo copies
    (after indirect-INC loops: the paper's node-halo update for charge
    deposits at MPI boundaries). Contributions flow halo-holder ->
    owner: each is added into the owner and its halo copy zeroed
    exactly once, on delivery. *)
let reduce ?traffic t ~dim ~data =
  Opp_obs.Trace.with_span ~cat:"halo" "HaloReduce" (fun () ->
      collective t ~dim ~what:"halo reduce"
        ~gather:(fun r _owner ls payload ->
          let src = data r in
          Array.iteri (fun i l -> Array.blit src (l.l_local * dim) payload (i * dim) dim) ls)
        ~apply:(fun r owner ls wire ->
          let src = data r and dst = data owner in
          Array.iteri
            (fun i l ->
              for d = 0 to dim - 1 do
                dst.((l.l_owner_index * dim) + d) <-
                  dst.((l.l_owner_index * dim) + d) +. wire.((i * dim) + d);
                src.((l.l_local * dim) + d) <- 0.0
              done)
            ls);
      account traffic t ~dim)
