(** Trace-span recorder.

    Records nested begin/end spans against a monotonic clock, one
    track per (simulated) MPI rank, and exports Chrome trace-event
    JSON (loadable in [chrome://tracing] or {{:https://ui.perfetto.dev}
    Perfetto}) plus a flamegraph-style text summary.

    Disabled by default: every record operation first checks
    {!enabled}, so an instrumented hot path pays a single branch when
    tracing is off. The recorder is a process-wide singleton (like
    [Opp_core.Profile.global]); the simulated-MPI backends multiplex
    rank tracks onto it with {!set_track} / {!with_track} because
    ranks execute serially in one process. It is not safe to record
    spans concurrently from several domains — backends emit spans from
    the orchestrating thread only. *)

val enabled : bool ref
(** The hot-path gate. Flip with {!enable} / {!disable}. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded spans and re-zero the trace epoch. *)

(** {2 Tracks} *)

val set_track : int -> unit
(** Route subsequent spans to track (tid) [r]. *)

val current_track : unit -> int

val with_track : int -> (unit -> 'a) -> 'a
(** Run a thunk with the track switched, restoring it afterwards. *)

val name_track : int -> string -> unit
(** Label a track in the exported trace (defaults to ["rank <r>"]). *)

(** {2 Spans} *)

val begin_span : ?cat:string -> ?args:(string * float) list -> ?at:int64 -> string -> unit
(** Open a span on the current track. No-op when disabled. [cat] is
    the Chrome trace category (e.g. ["par_loop"], ["halo"]); [args]
    are numeric key/values exported as the Chrome event's [args]
    object (e.g. elems/flops/bytes attached by [Runner]). [at] is the
    start as a {!Clock.now_ns} reading already taken by the caller
    (default: read the clock now), so a span and a ledger entry can
    share one measurement. *)

val end_span : ?args:(string * float) list -> ?at:int64 -> unit -> unit
(** Close the innermost open span on the current track, appending
    [args] to whatever was supplied at open; [at] is the end reading,
    as for {!begin_span}. No-op when disabled or when no span is
    open. *)

val depth : unit -> int
(** Number of open spans on the current track (0 when disabled). *)

val unwind : ?at:int64 -> int -> unit
(** [unwind d] closes every open span on the current track until at
    most [d] remain, stamping each with an ["unwound"] arg and its
    duration so far. This is the exception-recovery primitive: capture
    [depth ()] before a region that uses the imperative
    {!begin_span}/{!end_span} pair, and [unwind] to it on raise so a
    leaked open span cannot corrupt nesting for the rest of the run.
    [at] stamps the closes with a reading the caller already took. *)

val with_span : ?cat:string -> ?args:(string * float) list -> string -> (unit -> 'a) -> 'a
(** [begin_span]/[end_span] around a thunk. Exception-safe even when
    the thunk itself leaks unbalanced [begin_span]s: the close is a
    depth-based {!unwind}, not a blind pop. *)

(** {2 Introspection (tests, summaries)} *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_track : int;
  sp_depth : int;  (** nesting depth at open, 0 = top level *)
  sp_path : string;  (** [;]-joined ancestor names, ending in [sp_name] *)
  sp_ts_ns : int64;  (** start, relative to the trace epoch *)
  mutable sp_dur_ns : int64;
  mutable sp_args : (string * float) list;
      (** numeric payload; exported as the Chrome [args] object *)
}

val spans : unit -> span list
(** Completed spans in completion order. *)

val span_count : unit -> int

(** {2 Export} *)

val to_chrome_json : unit -> Json.t
(** Chrome trace-event format: an object with a [traceEvents] array of
    complete ([ph = "X"]) events plus per-track [thread_name] metadata. *)

val write_chrome : string -> unit
(** Write {!to_chrome_json} to a file. *)

val summary : Format.formatter -> unit -> unit
(** Flamegraph-style text table: spans aggregated by call path with
    call counts, total and self time. *)
