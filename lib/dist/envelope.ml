(** The shared detection/recovery envelope (see envelope.mli): every
    message carries a wire sequence number, an optional epoch tag, and
    an FNV-64 checksum of its whole payload. *)

module Fault = Opp_resil.Fault
module Retry = Opp_resil.Retry
module Codec = Opp_resil.Codec

let flip_bit payload bit =
  let idx = bit / 64 and b = bit mod 64 in
  payload.(idx) <-
    Int64.float_of_bits
      (Int64.logxor (Int64.bits_of_float payload.(idx)) (Int64.shift_left 1L b))

(* Transmit one message until the receiver validates it: the sender
   stamps the envelope (seq, epoch, checksum); each attempt rolls the
   schedule at (seq, attempt). Faults are prioritized drop > stale >
   corrupt so every injected fault is observed by exactly one detector
   (the detection-completeness property the tests assert). [epoch],
   when given, enables stale-replay injection (the replayed copy
   carries the previous epoch and is rejected by the tag check); [link]
   charges retransmissions against that (src, dst) pair's per-step
   retry budget. A clean attempt delivers the payload itself; only a
   corrupted one is a copy. Raises [Retry.Exhausted] past the
   schedule's attempt budget or the link budget. *)
let transmit inj ~chan ~what ~seq ?epoch ~link payload =
  let sum = Codec.checksum_floats payload in
  Retry.with_retry inj ~what ~chan ~seq ~link (fun attempt ->
      if Fault.fires inj Fault.Drop chan ~seq ~attempt then begin
        Fault.count inj "drop.injected";
        (* the receiver knows the round's message set and sees the gap;
           the retry is its resend request *)
        Fault.count inj "drop.detected";
        None
      end
      else begin
        let stale =
          match epoch with
          | None -> false
          | Some _ -> Fault.fires inj Fault.Stale chan ~seq ~attempt
        in
        if stale then Fault.count inj "stale.injected";
        let wire =
          if (not stale) && Fault.fires inj Fault.Corrupt chan ~seq ~attempt then begin
            Fault.count inj "corrupt.injected";
            let wire = Array.copy payload in
            flip_bit wire
              (Fault.corrupt_bit inj chan ~seq ~attempt ~nbits:(Array.length wire * 64));
            wire
          end
          else payload
        in
        (* receiver-side validation: epoch tag first, then checksum *)
        if stale then begin
          Fault.count inj "stale.rejected";
          None
        end
        else if Codec.checksum_floats wire <> sum then begin
          Fault.count inj "corrupt.detected";
          None
        end
        else Some wire
      end)

(* The payloads come back in canonical (sequence) order whatever the
   simulated arrival order — the reassembly that keeps a recovered
   round bit-for-bit identical to a fault-free one. The arrival order:
   messages whose Reorder/Delay fault fires are deferred to the end of
   the round, and duplicated ones arrive twice; the receiver sees
   sequence regressions (reorder detection) and already-seen sequence
   numbers (duplicate suppression). *)
let round inj ~chan ~what ~seq ?epoch msgs =
  let sent =
    List.mapi
      (fun i (link, payload) ->
        let seq = seq + i in
        match transmit inj ~chan ~what ~seq ?epoch ~link payload with
        | wire ->
            let dup = Fault.fires inj Fault.Dup chan ~seq ~attempt:0 in
            if dup then Fault.count inj "dup.injected";
            (Some (seq, dup), Ok wire)
        | exception Retry.Exhausted why -> (None, Error why))
      msgs
  in
  let deferred, prompt =
    List.partition
      (fun (seq, _) ->
        let reorder = Fault.fires inj Fault.Reorder chan ~seq ~attempt:0 in
        let delay = Fault.fires inj Fault.Delay chan ~seq ~attempt:0 in
        if reorder then Fault.count inj "reorder.injected";
        if delay then begin
          Fault.count inj "delay.injected";
          if !Opp_obs.Metrics.enabled then Opp_obs.Metrics.add "resil.delay_ns" 2000.0
        end;
        reorder || delay)
      (List.filter_map fst sent)
  in
  let seen = Hashtbl.create 16 and max_seq = ref (-1) in
  List.iter
    (fun (seq, dup) ->
      if seq < !max_seq then Fault.count inj "reorder.detected";
      max_seq := max !max_seq seq;
      for _ = 1 to if dup then 2 else 1 do
        if Hashtbl.mem seen seq then Fault.count inj "dup.detected"
        else Hashtbl.replace seen seq ()
      done)
    (prompt @ deferred);
  List.map snd sent
