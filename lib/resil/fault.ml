(** Deterministic fault injector for the simulated-MPI substrate.

    A schedule is parsed from a compact spec string (see
    docs/RESILIENCE.md) and produces, for every (kind, channel,
    message sequence number, delivery attempt) tuple, a reproducible
    verdict: the decision is a pure hash of those coordinates and the
    schedule seed, so two runs with the same spec inject byte-identical
    fault sequences — the property the chaos tests and the
    crash-restart equivalence checks rely on.

    Fault kinds on message channels (probability per message):
    - [Drop]: the message is lost; the receiver detects the gap and
      requests a resend.
    - [Corrupt]: one bit of the payload is flipped in flight; the
      payload checksum catches it.
    - [Dup]: the message arrives twice; the sequence number dedupes it.
    - [Reorder] / [Delay]: delivery is deferred within the round; the
      receiver reassembles by sequence number (delay also accrues
      simulated latency).
    - [Stale]: a replay from the previous exchange epoch; the epoch tag
      rejects it.

    Rank-level faults, armed for one (rank, step) each:
    - [crash]: raises {!Rank_crash} at the start of that step — the
      driver recovers by rebuilding the world from the last checkpoint.
    - [stall]: recorded as a detected straggler (metrics only).

    The injector is installed process-wide ({!install}), mirroring the
    [Opp_obs] singletons: when none is installed the communication
    modules take their plain fast path and pay a single [None] check. *)

open Opp_core

type chan = Halo | Migrate
type kind = Drop | Corrupt | Dup | Reorder | Delay | Stale

type t = {
  seed : int;
  rates : (kind * chan option * float) list;  (** [None] chan = any *)
  max_attempts : int;
  link_budget : int;  (** max retransmissions per (chan, link) per step *)
  mutable crash : (int * int) option;  (** (rank, step), one-shot *)
  mutable stall : (int * int) option;
  mutable step : int;
  stats : (string, int) Hashtbl.t;
  budgets : (int * int * int, int) Hashtbl.t;  (** (chan, src, dst) -> retries used *)
}

exception Rank_crash of { rank : int; step : int }

let () =
  Printexc.register_printer (function
    | Rank_crash { rank; step } ->
        Some (Printf.sprintf "Opp_resil.Fault.Rank_crash(rank %d, step %d)" rank step)
    | _ -> None)

let kind_to_string = function
  | Drop -> "drop"
  | Corrupt -> "corrupt"
  | Dup -> "dup"
  | Reorder -> "reorder"
  | Delay -> "delay"
  | Stale -> "stale"

let chan_to_string = function Halo -> "halo" | Migrate -> "migrate"

let kind_id = function
  | Drop -> 1
  | Corrupt -> 2
  | Dup -> 3
  | Reorder -> 4
  | Delay -> 5
  | Stale -> 6

let chan_id = function Halo -> 1 | Migrate -> 2

(* --- construction --- *)

let create ?(seed = 1) ?(max_attempts = 10) ?(link_budget = max_int) ?crash ?stall rates =
  {
    seed;
    rates;
    max_attempts;
    link_budget;
    crash;
    stall;
    step = 0;
    stats = Hashtbl.create 16;
    budgets = Hashtbl.create 64;
  }

let kind_of_string = function
  | "drop" -> Some Drop
  | "corrupt" -> Some Corrupt
  | "dup" -> Some Dup
  | "reorder" -> Some Reorder
  | "delay" -> Some Delay
  | "stale" -> Some Stale
  | _ -> None

let chan_of_string = function
  | "halo" -> Ok (Some Halo)
  | "migrate" -> Ok (Some Migrate)
  | "any" -> Ok None
  | s -> Error (Printf.sprintf "unknown channel '%s' (halo|migrate|any)" s)

(* rank@step, e.g. "1@7" *)
let parse_rank_step what v =
  match String.index_opt v '@' with
  | Some i -> (
      let r = String.sub v 0 i and s = String.sub v (i + 1) (String.length v - i - 1) in
      match (int_of_string_opt r, int_of_string_opt s) with
      | Some r, Some s when r >= 0 && s >= 1 -> Ok (r, s)
      | _ -> Error (Printf.sprintf "%s: expected RANK@STEP, got '%s'" what v))
  | None -> Error (Printf.sprintf "%s: expected RANK@STEP, got '%s'" what v)

(** Parse a fault spec, e.g.
    ["seed=42,drop=halo:0.05,corrupt=migrate:0.02,dup=0.01,crash=1@7"].
    Entries are separated by [,] or [;]; see docs/RESILIENCE.md for
    the full grammar. *)
let parse spec =
  let entries =
    String.split_on_char ';' spec
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let seed = ref 1 and max_attempts = ref 10 and link_budget = ref max_int in
  let crash = ref None and stall = ref None in
  let rates = ref [] in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  List.iter
    (fun entry ->
      match String.index_opt entry '=' with
      | None -> fail (Printf.sprintf "expected KEY=VALUE, got '%s'" entry)
      | Some i -> (
          let key = String.sub entry 0 i in
          let v = String.sub entry (i + 1) (String.length entry - i - 1) in
          match key with
          | "seed" -> (
              match int_of_string_opt v with
              | Some s -> seed := s
              | None -> fail (Printf.sprintf "seed: expected an integer, got '%s'" v))
          | "retries" -> (
              match int_of_string_opt v with
              | Some n when n >= 1 -> max_attempts := n
              | _ -> fail (Printf.sprintf "retries: expected a positive integer, got '%s'" v))
          | "link_budget" -> (
              match int_of_string_opt v with
              | Some n when n >= 1 -> link_budget := n
              | _ -> fail (Printf.sprintf "link_budget: expected a positive integer, got '%s'" v))
          | "crash" -> (
              match parse_rank_step "crash" v with
              | Ok rs -> crash := Some rs
              | Error e -> fail e)
          | "stall" -> (
              match parse_rank_step "stall" v with
              | Ok rs -> stall := Some rs
              | Error e -> fail e)
          | _ -> (
              match kind_of_string key with
              | None -> fail (Printf.sprintf "unknown fault kind '%s'" key)
              | Some kind -> (
                  let chan_str, prob_str =
                    match String.index_opt v ':' with
                    | Some j ->
                        (String.sub v 0 j, String.sub v (j + 1) (String.length v - j - 1))
                    | None -> ("any", v)
                  in
                  match (chan_of_string chan_str, float_of_string_opt prob_str) with
                  | Ok chan, Some p when p >= 0.0 && p <= 1.0 ->
                      rates := (kind, chan, p) :: !rates
                  | Ok _, _ ->
                      fail
                        (Printf.sprintf "%s: expected a probability in [0,1], got '%s'" key
                           prob_str)
                  | Error e, _ -> fail e))))
    entries;
  match !err with
  | Some msg -> Error msg
  | None ->
      Ok
        (create ~seed:!seed ~max_attempts:!max_attempts ~link_budget:!link_budget ?crash:!crash
           ?stall:!stall (List.rev !rates))

(* --- deterministic decisions --- *)

let rate t kind chan =
  List.fold_left
    (fun acc (k, c, p) ->
      if k = kind && (c = None || c = Some chan) then Float.max acc p else acc)
    0.0 t.rates

(* A decision is splitmix64 output seeded by a hash of the decision
   coordinates: pure, collision-resistant enough, and independent of
   every other decision. *)
let decision_float t ~salt ~(chan : chan) ~seq ~attempt =
  let open Int64 in
  let state =
    logxor
      (mul (of_int t.seed) 0x9E3779B97F4A7C15L)
      (add
         (mul (of_int ((chan_id chan * 131) + salt)) 0xBF58476D1CE4E5B9L)
         (add (mul (of_int seq) 0x94D049BB133111EBL) (mul (of_int (attempt + 1)) 0x2545F4914F6CDD1DL)))
  in
  let r = Rng.create 0 in
  Rng.set_state r state;
  Rng.float r

(** Does fault [kind] fire for message [seq] on [chan], delivery
    [attempt]? Pure function of the schedule and its coordinates. *)
let fires t kind chan ~seq ~attempt =
  let p = rate t kind chan in
  p > 0.0 && decision_float t ~salt:(kind_id kind) ~chan ~seq ~attempt < p

(** Which bit of an [nbits]-bit payload a [Corrupt] fault flips. *)
let corrupt_bit t chan ~seq ~attempt ~nbits =
  if nbits <= 0 then 0
  else
    int_of_float (decision_float t ~salt:97 ~chan ~seq ~attempt *. float_of_int nbits)
    |> min (nbits - 1)

let max_attempts t = t.max_attempts

(** Seeded jitter in [0,1) for backoff randomization: a decision like
    any other, so two runs with the same schedule back off by the same
    (simulated) amounts. [key] identifies the message (its seq). *)
let jitter t ~chan ~key ~attempt = decision_float t ~salt:211 ~chan ~seq:key ~attempt

(* --- per-link retry budgets --- *)

(** Charge one retransmission on [link] (a (src, dst) rank pair) for
    this step. Returns [false] when the link's budget (the
    [link_budget=N] spec key; unbounded by default) is exhausted —
    the retry loop then gives up early instead of hammering a link
    that keeps faulting. Budgets reset at every {!begin_step}. *)
let take_retry_token t ~chan ~link =
  match link with
  | None -> true
  | Some (src, dst) ->
      let key = (chan_id chan, src, dst) in
      let used = try Hashtbl.find t.budgets key with Not_found -> 0 in
      if used >= t.link_budget then false
      else begin
        Hashtbl.replace t.budgets key (used + 1);
        true
      end

let link_budget t = t.link_budget

let link_budget_used t ~chan ~link =
  let src, dst = link in
  try Hashtbl.find t.budgets (chan_id chan, src, dst) with Not_found -> 0

(* --- stats (mirrored into opp_obs metrics as resil.<name>) --- *)

let count ?(n = 1) t name =
  Hashtbl.replace t.stats name ((try Hashtbl.find t.stats name with Not_found -> 0) + n);
  if !Opp_obs.Metrics.enabled then Opp_obs.Metrics.add ("resil." ^ name) (float_of_int n)

let stat t name = try Hashtbl.find t.stats name with Not_found -> 0

let stats t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.stats []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- rank-level faults --- *)


(** Called by the distributed drivers at the start of step [step].
    Fires the armed stall (recorded) and crash (raised) schedules;
    both are one-shot, so a recovered run does not re-crash. *)
let begin_step t ~step =
  t.step <- step;
  Hashtbl.reset t.budgets;
  (match t.stall with
  | Some (_rank, s) when s = step ->
      t.stall <- None;
      count t "stalls"
  | _ -> ());
  match t.crash with
  | Some (rank, s) when s = step ->
      t.crash <- None;
      count t "crashes";
      raise (Rank_crash { rank; step })
  | _ -> ()

(* --- process-wide installation --- *)

let current : t option ref = ref None
let install t = current := Some t
let uninstall () = current := None
let active () = !current

let pp fmt t =
  Format.fprintf fmt "fault schedule (seed %d, retries %d):" t.seed t.max_attempts;
  List.iter
    (fun (k, c, p) ->
      Format.fprintf fmt " %s=%s:%g" (kind_to_string k)
        (match c with Some c -> chan_to_string c | None -> "any")
        p)
    t.rates;
  (match t.crash with
  | Some (r, s) -> Format.fprintf fmt " crash=%d@%d" r s
  | None -> ());
  match t.stall with
  | Some (r, s) -> Format.fprintf fmt " stall=%d@%d" r s
  | None -> ()
