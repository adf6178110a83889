(* oppic_bench: the repository benchmark.

   Four PIC workloads, one per process, single-threaded:

     fempic_seq         Mini-FEM-PIC on a 2x2x8-hex duct (192 tets),
                        1e5 target particles, sequential runner
     fempic_mpi4        the same problem on 4 simulated ranks, z slabs
     fempic_mpi4_resil  fempic_mpi4 with faults, checkpoints, the heal
                        journal, one crash + respawn, and the monitor
     cabana_mpi4        CabanaPIC two-stream, 768 cells, 96 ppc, 4 ranks

   Usage:

     dune exec bench/suite/oppic_bench.exe -- --workload W [--seed N]
         [--seconds S] [--trace 0|1] [--json FILE] [--out DIR]
     dune exec bench/suite/oppic_bench.exe -- --calibrate
     dune exec bench/suite/oppic_bench.exe -- --smoke [--manifest FILE]

   A run prints every metric it measured with its unit; its last line
   on standard output is one JSON object {correct, attempted, failed,
   metrics}, whose metrics are the end-to-end ones with [--trace 0] and
   the per-layer ones with [--trace 1] (which also runs a traced pass
   and writes a Chrome trace plus a layer table under [--out]). Metric
   definitions and the reasoning behind each workload are in
   bench/suite/README.md. *)

module Types = Opp_core.Types
module Profile = Opp_core.Profile
module Trace = Opp_obs.Trace
module Clock = Opp_obs.Clock
module Json = Opp_obs.Json
module Traffic = Opp_dist.Traffic
module Fault = Opp_resil.Fault
module Ckpt = Opp_resil.Ckpt
module Monitor = Opp_watch.Monitor
module Sim = Fempic.Fempic_sim
module Fdist = Apps_dist.Fempic_dist
module Cdist = Apps_dist.Cabana_dist
module Heal = Apps_dist.Dist_heal

(* --- the host ruler ---

   A shared cloud host changes speed between runs by up to a quarter
   while CPU time tracks wall time: the host slows down, the process
   is not preempted. The ruler is a fixed, allocation-free loop of two
   interleaved floating-point recurrences over an 8 MB array, run after
   every timed sample and outside its timing. A sample converts to
   reference-host milliseconds as [sample * r0_ms / ruler], where
   [r0_ms] is the ruler's median on the reference host (pinned with
   --calibrate). Of the rulers tried (this one, a 64 MB streaming sum,
   a 32 MB pointer chase) it gave the steadiest step medians. Raw
   values are reported under [host.*]. *)

let r0_ms = 2.6
let ruler_buf = Array.init (1 lsl 20) (fun i -> float_of_int (i land 1023))
let ruler_sink = [| 0.0 |]
let ruler_passes = 2

let ruler () =
  let b = ruler_buf in
  let a0 = ref 0.0 and a1 = ref 0.0 in
  for _ = 1 to ruler_passes do
    let i = ref 0 in
    while !i < Array.length b do
      a0 := (!a0 *. 0.5) +. Array.unsafe_get b !i;
      a1 := (!a1 *. 0.5) +. Array.unsafe_get b (!i + 1);
      i := !i + 2
    done
  done;
  ruler_sink.(0) <- !a0 +. !a1

let now_ms () = Clock.now_s () *. 1000.0

let time_ms f =
  let t0 = now_ms () in
  f ();
  now_ms () -. t0

(* Linear-interpolated quantile of a non-empty sample. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.0

(* --- workloads --- *)

type workload = Fempic_seq | Fempic_mpi4 | Fempic_mpi4_resil | Cabana_mpi4

let workloads =
  [
    ("fempic_seq", Fempic_seq);
    ("fempic_mpi4", Fempic_mpi4);
    ("fempic_mpi4_resil", Fempic_mpi4_resil);
    ("cabana_mpi4", Cabana_mpi4);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* Reference-host milliseconds per timed sample, ruler included: the
   timed step count is --seconds divided by this, so a run does the
   same work, and hits the same checkpoint and crash steps, on any
   host. *)
let ref_sample_ms = function
  | Fempic_seq -> 28.0
  | Fempic_mpi4 -> 30.0
  | Fempic_mpi4_resil -> 67.0
  | Cabana_mpi4 -> 21.0

let target_particles = 1e5

let fempic_mesh () = Opp_mesh.Tet_mesh.build ~nx:2 ~ny:2 ~nz:8 ~lx:2e-5 ~ly:2e-5 ~lz:8e-5

let fempic_prm seed = { Fempic.Params.default with Fempic.Params.target_particles; seed }

let cabana_prm seed =
  let d = Cabana.Cabana_params.default in
  {
    d with
    Cabana.Cabana_params.nx = 4;
    ny = 4;
    nz = 48;
    lz = d.Cabana.Cabana_params.lz *. 4.0;
    ppc = 96;
    seed;
  }

let nranks = 4

type app = Seq of Sim.t | Fd of Fdist.t | Cd of Cdist.t

let build w ~seed ~profile =
  match w with
  | Fempic_seq ->
      Seq
        (Sim.create ~prm:(fempic_prm seed) ~runner:(Opp_core.Runner.seq ~profile ()) ~profile
           (fempic_mesh ()))
  | Fempic_mpi4 | Fempic_mpi4_resil ->
      Fd (Fdist.create ~prm:(fempic_prm seed) ~nranks ~partitioner:`Slab ~profile (fempic_mesh ()))
  | Cabana_mpi4 -> Cd (Cdist.create ~prm:(cabana_prm seed) ~nranks ~profile ())

let plain_step = function
  | Seq s -> ignore (Sim.step s)
  | Fd d -> ignore (Fdist.step d)
  | Cd d -> Cdist.step d

let step_count = function
  | Seq s -> s.Sim.step_count
  | Fd d -> d.Fdist.step_count
  | Cd d -> d.Cdist.step_count

let live = function
  | Seq s -> s.Sim.parts.Types.s_size
  | Fd d -> Fdist.total_particles d
  | Cd d -> Cdist.total_particles d

let field_dats = function
  | Seq s -> [ s.Sim.node_phi; s.Sim.node_charge_den; s.Sim.cell_ef ]
  | Fd d ->
      Array.to_list d.Fdist.sims
      |> List.concat_map (fun s -> [ s.Sim.node_phi; s.Sim.node_charge_den; s.Sim.cell_ef ])
  | Cd d ->
      Array.to_list d.Cdist.sims
      |> List.concat_map (fun s ->
             Cabana.Cabana_sim.[ s.cell_e; s.cell_b; s.cell_j ])

let fields_finite app = Opp_watch.Canary.nonfinite_dats (field_dats app) = 0

let traffic = function Seq _ -> None | Fd d -> Some d.Fdist.traffic | Cd d -> Some d.Cdist.traffic

let imbalance = function
  | Seq _ -> 0.0
  | Fd d -> Fdist.particle_imbalance d
  | Cd d -> Cdist.particle_imbalance d

(* --- the resilience stack of fempic_mpi4_resil ---

   Armed for the last checkpoint interval of the fill, as `fempic_run
   --backend mpi --faults SPEC --heal=respawn --ckpt-every=25 --watch`
   arms it. Each timed sample is one Fempic_dist.step plus the drive
   loop's bookkeeping for that step (bin/resil_cli.ml is not a
   library, so the loop is restated here over the same public calls). *)

type resil = {
  inj : Fault.t;
  healer : Fdist.t Heal.t;
  mon : Monitor.t;
  ckpt_dir : string;
  ckpt_every : int;
  mutable ckpt_ms : float list;
  mutable rebase_ms : float list;
  mutable journal_ms : float;
  mutable respawn_ms : float list;
  mutable last_ckpt : int;
  mutable hash_kept : bool;  (** state_hash unchanged across every respawn *)
}

let fault_spec ~seed ~crash_step =
  Printf.sprintf "seed=%d,retries=20,drop=0.02,corrupt=0.01,dup=0.01,crash=1@%d" seed crash_step

let arm d ~seed ~crash_step ~ckpt_every ~dir =
  let inj =
    match Fault.parse (fault_spec ~seed ~crash_step) with
    | Ok inj -> inj
    | Error msg -> failwith ("fault spec: " ^ msg)
  in
  Fault.install inj;
  (* --watch implies metrics collection in the apps *)
  Opp_obs.Metrics.enable ();
  let mon =
    Monitor.create
      ~config:{ Monitor.default_config with Monitor.dir = Filename.concat dir "watch" }
      ~meta:[ ("app", "fempic"); ("backend", "mpi"); ("ranks", string_of_int nranks) ]
      ~nranks ()
  in
  Fdist.set_watch d mon;
  let healer = Heal.fempic ~mode:Opp_heal.Heal.Respawn () in
  Heal.record healer d ~step:d.Fdist.step_count;
  {
    inj;
    healer;
    mon;
    ckpt_dir = Filename.concat dir "ckpt";
    ckpt_every;
    ckpt_ms = [];
    rebase_ms = [];
    journal_ms = 0.0;
    respawn_ms = [];
    last_ckpt = 0;
    hash_kept = true;
  }

let disarm r =
  Monitor.close r.mon;
  Fault.uninstall ();
  Opp_obs.Metrics.disable ();
  Opp_obs.Metrics.reset ()

let bench_span name f = Trace.with_span ~cat:"bench" name f

(* One timed sample of fempic_mpi4_resil: the step, then a checkpoint
   plus journal rebase on every [ckpt_every]-th step, else a journal
   record; a crashed step is healed in place and replayed by the next
   sample. Returns the sample's milliseconds; the state hashes taken
   around a respawn are excluded. *)
let resil_sample r d =
  let s = d.Fdist.step_count + 1 in
  let t0 = now_ms () in
  match Fdist.step d with
  | _ ->
      if s mod r.ckpt_every = 0 then begin
        r.ckpt_ms <-
          time_ms (fun () ->
              bench_span "bench.ckpt" (fun () -> Fdist.save_checkpoint d ~dir:r.ckpt_dir))
          :: r.ckpt_ms;
        r.last_ckpt <- s;
        r.rebase_ms <-
          time_ms (fun () -> bench_span "bench.journal" (fun () -> Heal.rebase r.healer d ~step:s))
          :: r.rebase_ms
      end
      else
        r.journal_ms <-
          r.journal_ms
          +. time_ms (fun () ->
                 bench_span "bench.journal" (fun () -> Heal.record r.healer d ~step:s));
      now_ms () -. t0
  | exception Fault.Rank_crash { rank; step } ->
      let aborted = now_ms () -. t0 in
      Monitor.raise_alert r.mon (Opp_watch.Alert.crash ~rank ~step);
      let before = Fdist.state_hash d in
      let detail = ref "" in
      let ms =
        time_ms (fun () ->
            bench_span "bench.respawn" (fun () -> detail := Heal.recover r.healer d ~rank ~step))
      in
      r.respawn_ms <- ms :: r.respawn_ms;
      Opp_heal.Heal.record_recovery ~mode:Opp_heal.Heal.Respawn ~ms;
      Monitor.raise_alert r.mon
        (Opp_watch.Alert.recovered ~mode:"respawn" ~rank ~step ~ms !detail);
      if Fdist.state_hash d <> before then r.hash_kept <- false;
      aborted +. ms

let fault_stat r k = Fault.stat r.inj k

(* Every fault kind with a detector: (injected, detected) stat names. *)
let detectors =
  [
    ("drop.injected", "drop.detected");
    ("corrupt.injected", "corrupt.detected");
    ("dup.injected", "dup.detected");
    ("stale.injected", "stale.rejected");
    ("reorder.injected", "reorder.detected");
  ]

let failed_messages r =
  fault_stat r "quarantined" + fault_stat r "retry.budget_exhausted"
  + int_of_float (Option.value ~default:0.0 (Opp_obs.Metrics.value "migrate.dead_letter"))

let rec bytes_under path =
  if Sys.is_directory path then
    Array.fold_left (fun acc f -> acc + bytes_under (Filename.concat path f)) 0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

(* Bytes on disk of the newest checkpoint under [dir] (checkpoint
   directories carry a zero-padded step; temp directories start with
   a dot). *)
let newest_ckpt_bytes dir =
  match
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> f.[0] <> '.')
    |> List.sort (fun a b -> compare b a)
  with
  | newest :: _ -> bytes_under (Filename.concat dir newest)
  | [] -> 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* --- one measured pass --- *)

type sample = {
  step : int;  (** the step the sample ran (a crash sample: the step it attempted) *)
  ms : float;  (** raw wall time *)
  ruler : float;  (** the ruler right after it *)
  live0 : float;  (** live particles at its start *)
}

type pass = { samples : sample list; p_attempted : int; p_failed : int }

let norm x = x.ms *. r0_ms /. x.ruler

(* Spans of the bench itself land on their own track, one past the
   ranks, so per-rank timelines stay rank-only. *)
let bench_track = nranks

(* Run timed samples until the world has advanced [n] steps (a crash
   sample replays its step, so it adds one sample). A sample fails if
   it raises or leaves a non-finite field dat; a raise ends the pass. *)
let timed_pass app resil ~n ~on_sample =
  let target = step_count app + n in
  let samples = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let broken = ref false in
  while (not !broken) && step_count app < target do
    let step = step_count app + 1 in
    let live0 = float_of_int (live app) in
    incr attempted;
    match
      Trace.with_track bench_track (fun () ->
          bench_span "bench.step" (fun () ->
              match (app, resil) with
              | Fd d, Some r -> resil_sample r d
              | _ -> time_ms (fun () -> plain_step app)))
    with
    | ms ->
        let ruler =
          Trace.with_track bench_track (fun () ->
              bench_span "bench.ruler" (fun () -> time_ms ruler))
        in
        samples := { step; ms; ruler; live0 } :: !samples;
        if not (fields_finite app) then incr failed;
        on_sample ()
    | exception e ->
        Printf.eprintf "sample at step %d raised %s\n%!" step (Printexc.to_string e);
        incr failed;
        broken := true
  done;
  { samples = List.rev !samples; p_attempted = !attempted; p_failed = !failed }

(* [stat] of each block of [block] consecutive steps, at quantile [q]
   over the blocks. Host interference only ever slows steps, and comes
   in bursts that slow a few hundred ms to a few seconds of a run far
   more than the ruler that follows; taking the block at the quiet
   quartile (q = 0.25 for a time, 0.75 for a throughput) reports the
   undisturbed figure unless most of the run was disturbed. On
   fempic_mpi4_resil a block is one checkpoint interval. *)
let over_blocks samples ~block stat q =
  match samples with
  | [] -> Float.nan
  | first :: _ ->
      let nb = 1 + ((List.nth samples (List.length samples - 1)).step - first.step) / block in
      let blocks =
        List.init nb (fun k -> List.filter (fun x -> (x.step - first.step) / block = k) samples)
      in
      quantile (List.map stat blocks) q

let step_p50 samples ~block = over_blocks samples ~block (fun b -> median (List.map norm b)) 0.25
let step_p90 samples ~block =
  over_blocks samples ~block (fun b -> quantile (List.map norm b) 0.9) 0.25

(* Million particle pushes per second: live particles at each sample
   start over the summed sample time, checkpoint and crash samples
   included. *)
let mpush samples ~block =
  over_blocks samples ~block
    (fun b -> sum (List.map (fun x -> x.live0) b) /. sum (List.map norm b) /. 1e3)
    0.75

(* --- trace attribution ---

   Execution is serial, so the spans of every track nest in time: sort
   by start (longest first on ties) and rebuild one tree. A span's self
   time is its duration minus its children's. Each self time goes to
   the layer that emitted the span; inside bench.step, time no program
   span covers is the distributed app's own on those workloads
   (deliver/unpack, gather/scatter, bookkeeping: apps_dist) and
   unattributed on fempic_seq, as is a rank phase's time outside its
   kernels. *)

let layers =
  [ "opp_core"; "opp_dist"; "fempic"; "apps_dist"; "opp_resil"; "opp_heal"; "unattributed" ]

let layer_of ~dist (sp : Trace.span) =
  match (sp.Trace.sp_cat, sp.Trace.sp_name) with
  | "bench", "bench.step" -> if dist then "apps_dist" else "unattributed"
  | "bench", "bench.ckpt" -> "opp_resil"
  | "bench", ("bench.journal" | "bench.respawn") -> "opp_heal"
  | ("par_loop" | "particle_move"), _ -> "opp_core"
  | "halo", _ -> "opp_dist"
  | "host", _ -> "fempic"
  | _ -> "unattributed"

type attribution = {
  self_ms : (string * float) list;  (** per layer, summed over all bench.step trees *)
  step_total_ms : float;
  spans_in_steps : int;
}

let attribute ~dist (spans : Trace.span list) =
  let spans =
    List.map
      (fun (sp : Trace.span) ->
        let t0 = Int64.to_float sp.Trace.sp_ts_ns /. 1e6 in
        (sp, t0, t0 +. (Int64.to_float sp.Trace.sp_dur_ns /. 1e6)))
      spans
    |> List.sort (fun (_, a0, a1) (_, b0, b1) -> compare (a0, -.a1) (b0, -.b1))
  in
  let self = Hashtbl.create 8 in
  let self_of layer = Option.value ~default:0.0 (Hashtbl.find_opt self layer) in
  let add layer ms = Hashtbl.replace self layer (ms +. self_of layer) in
  let step_total = ref 0.0 and count = ref 0 in
  (* stack of open (span, end, children ms, inside a bench.step) *)
  let stack = ref [] in
  let close (sp, t0, t1, kids, in_step) =
    if in_step then add (layer_of ~dist sp) (t1 -. t0 -. !kids)
  in
  let rec pop_until t =
    match !stack with
    | ((_, _, t1, _, _) as top) :: rest when t1 <= t ->
        close top;
        stack := rest;
        pop_until t
    | _ -> ()
  in
  List.iter
    (fun (sp, t0, t1) ->
      pop_until t0;
      let in_step =
        match !stack with
        | (_, _, _, kids, parent_in_step) :: _ ->
            kids := !kids +. (t1 -. t0);
            parent_in_step
        | [] -> sp.Trace.sp_name = "bench.step"
      in
      if in_step then incr count;
      if sp.Trace.sp_name = "bench.step" && !stack = [] then
        step_total := !step_total +. (t1 -. t0);
      stack := (sp, t0, t1, ref 0.0, in_step) :: !stack)
    spans;
  List.iter close !stack;
  {
    self_ms = List.map (fun l -> (l, self_of l)) layers;
    step_total_ms = !step_total;
    spans_in_steps = !count;
  }

(* --- metrics --- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* Kernels of the two apps' per-step ledgers, in step order. *)
let fempic_kernels =
  [
    "Inject";
    "CalcPosVel";
    "Move";
    "ResetCharge";
    "DepositCharge";
    "ComputeNodeChargeDensity";
    "ComputeElectricField";
  ]

let cabana_kernels =
  [ "Interpolate"; "ResetAccumulator"; "Move_Deposit"; "AccumulateCurrent"; "AdvanceB"; "AdvanceE" ]

type outcome = {
  end_to_end : metric list;
  per_layer : metric list;
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  samples : int;
  final_live : int;
  final_step : int;
  final_hash : int64 option;  (** fempic dist workloads, smoke runs only *)
}

type cfg = {
  w : workload;
  seed : int;
  fill : int;  (** untimed steps after construction *)
  timed : int;  (** steps of the measured pass *)
  traced : int;  (** steps of the traced pass; 0 skips it *)
  setups : int;  (** set-ups timed for setup_s *)
  ckpt_every : int;
      (** checkpoint interval on fempic_mpi4_resil, and the block length
          of every timing statistic *)
  out : string;  (** working files and trace artifacts *)
  smoke : bool;
}

(* One set-up: construction, the fill, and (fempic_mpi4_resil) arming
   the resilience stack. Returns the app, its resil state, raw ms and
   reference-host ms (normalised by the median of five rulers taken
   right after). *)
let setup cfg ~profile ~workdir =
  let t0 = now_ms () in
  let app = build cfg.w ~seed:cfg.seed ~profile in
  (* fempic_mpi4_resil arms one checkpoint interval before the fill
     ends: the journal and the heap it grows reach steady state, and
     timing starts right after a checkpoint *)
  let armed_fill = if cfg.w = Fempic_mpi4_resil then cfg.ckpt_every else 0 in
  for _ = 1 to cfg.fill - armed_fill do
    plain_step app
  done;
  let resil =
    match app with
    | Fd d when cfg.w = Fempic_mpi4_resil ->
        let crash_step = cfg.fill + (cfg.timed / 2) in
        let r = arm d ~seed:cfg.seed ~crash_step ~ckpt_every:cfg.ckpt_every ~dir:workdir in
        while d.Fdist.step_count < cfg.fill do
          ignore (resil_sample r d)
        done;
        r.ckpt_ms <- [];
        r.rebase_ms <- [];
        r.journal_ms <- 0.0;
        Some r
    | _ -> None
  in
  let raw = now_ms () -. t0 in
  let r = median (List.init 5 (fun _ -> time_ms ruler)) in
  (app, resil, raw, raw *. r0_ms /. r)

(* The traced pass: [cfg.traced] more samples with Opp_obs.Trace on.
   Writes the Chrome trace and the layer table (not in smoke runs) and
   returns the span-derived metrics plus whether the layer self times
   sum to bench.step. *)
let traced_pass cfg app resil ~untraced_p50 =
  Trace.reset ();
  Trace.enable ();
  Trace.name_track bench_track "bench";
  let tp = timed_pass app resil ~n:cfg.traced ~on_sample:ignore in
  Trace.disable ();
  let a = attribute ~dist:(cfg.w <> Fempic_seq) (Trace.spans ()) in
  let tn = float_of_int (max 1 (List.length tp.samples)) in
  let tscale = r0_ms /. median (List.map (fun x -> x.ruler) tp.samples) in
  let per_step ms = ms *. tscale /. tn in
  if not cfg.smoke then begin
    mkdir_p cfg.out;
    let base = Filename.concat cfg.out (workload_name cfg.w) in
    Trace.write_chrome (base ^ ".trace.json");
    let oc = open_out (base ^ ".layers.json") in
    output_string oc
      (Json.to_string
         (Json.Obj
            [
              ("schema", Json.Num 1.0);
              ("kind", Json.Str "measured");
              ("workload", Json.Str (workload_name cfg.w));
              ("seed", Json.Num (float_of_int cfg.seed));
              ("samples", Json.Num tn);
              ("unit", Json.Str "reference-host ms per step");
              ("step_ms", Json.Num (per_step a.step_total_ms));
              ( "self_ms",
                Json.Obj (List.map (fun (l, ms) -> (l, Json.Num (per_step ms))) a.self_ms) );
            ]));
    output_char oc '\n';
    close_out oc
  end;
  Trace.reset ();
  let self layer = per_step (List.assoc layer a.self_ms) in
  let sums_ok =
    Float.abs (sum (List.map snd a.self_ms) -. a.step_total_ms) <= 0.01 *. a.step_total_ms
  in
  ( [
      m "halo.ms_per_step" "ms" (self "opp_dist");
      m "apps_dist.self_ms_per_step" "ms" (self "apps_dist");
      m "obs.trace_overhead" "ratio"
        ((step_p50 tp.samples ~block:cfg.ckpt_every /. untraced_p50) -. 1.0);
      m "obs.spans_per_step" "count" (float_of_int a.spans_in_steps /. tn);
      m "obs.unattributed_ms_per_step" "ms" (self "unattributed");
    ],
    sums_ok )

let correctness cfg app resil =
  let final_live = live app in
  (("fields finite", fields_finite app)
   ::
   (match app with
   | Cd d ->
       let prm = d.Cdist.prm in
       let e = Cdist.energies d in
       [
         ( "live count = ppc x cells",
           final_live = prm.Cabana.Cabana_params.ppc * Cabana.Cabana_params.ncells prm );
         ( "energies finite",
           List.for_all Float.is_finite Cabana.Cabana_sim.[ e.e_field; e.b_field; e.kinetic ] );
       ]
   | _ when cfg.smoke -> [] (* a smoke run stops long before the duct fills *)
   | _ ->
       [
         ( "live count within 10% of target",
           Float.abs ((float_of_int final_live /. target_particles) -. 1.0) <= 0.10 );
       ]))
  @
  match resil with
  | None -> []
  | Some r ->
      [
        ( "detected = injected per fault kind",
          List.for_all (fun (i, d) -> fault_stat r i = fault_stat r d) detectors );
        ("nothing quarantined", fault_stat r "quarantined" = 0);
        ("crash fired and healed", r.respawn_ms <> []);
        ("state_hash kept across respawn", r.hash_kept);
        ( "last checkpoint loads",
          match Ckpt.load ~dir:r.ckpt_dir with
          | Some (s, shards) -> s = r.last_ckpt && Array.length shards = nranks
          | None -> false );
      ]

let run cfg =
  let profile = Profile.create () in
  let workdir = Filename.concat cfg.out ("workdir-" ^ workload_name cfg.w) in
  rm_rf workdir;
  mkdir_p workdir;
  let app, resil, setup_raw, setup_norm = setup cfg ~profile ~workdir in
  (* --- the measured pass; every counter is read right after it --- *)
  Profile.reset ~t:profile ();
  (* Traffic.t is mutable: snapshot it *)
  let copy_traffic () =
    Option.map (fun t -> { t with Traffic.halo_bytes = t.Traffic.halo_bytes }) (traffic app)
  in
  let tr0 = copy_traffic () in
  let faults0 = Option.map (fun r -> (Fault.stats r.inj, failed_messages r)) resil in
  let cg = ref 0 and newton = ref 0 in
  let on_sample () =
    match app with
    | Seq { Sim.last_solver_stats = Some st; _ } ->
        cg := !cg + st.Fempic.Field_solver.cg_iterations;
        newton := !newton + st.Fempic.Field_solver.newton_iterations
    | _ -> ()
  in
  let gc0 = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  let p = timed_pass app resil ~n:cfg.timed ~on_sample in
  let minor1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  let ledger = Profile.entries ~t:profile () in
  let tr1 = copy_traffic () in
  let samples = p.samples in
  let n = List.length samples in
  let nf = float_of_int (max n 1) in
  let lives = List.map (fun x -> x.live0) samples in
  let ruler_p50 = median (List.map (fun x -> x.ruler) samples) in
  let scale = r0_ms /. ruler_p50 in
  let block = cfg.ckpt_every in
  let p50 = step_p50 samples ~block in
  let td f = match (tr0, tr1) with Some t0, Some t1 -> (f t1 -. f t0) /. nf | _ -> 0.0 in
  let fault_delta =
    match (resil, faults0) with
    | Some r, Some (f0, _) ->
        fun k -> fault_stat r k - Option.value ~default:0 (List.assoc_opt k f0)
    | _ -> fun _ -> 0
  in
  (* on fempic_mpi4_resil every halo message and every migrant is an
     operation: each crosses the fault injector in its own envelope *)
  let msgs, msg_failed =
    match (resil, faults0, tr0, tr1) with
    | Some r, Some (_, failed0), Some t0, Some t1 ->
        ( t1.Traffic.halo_messages - t0.Traffic.halo_messages
          + (t1.Traffic.migrated_particles - t0.Traffic.migrated_particles),
          failed_messages r - failed0 )
    | _ -> (0, 0)
  in
  let entry name = List.assoc_opt name ledger in
  let ms_per_step name =
    match entry name with Some e -> e.Profile.seconds *. 1000.0 *. scale /. nf | None -> 0.0
  in
  let move_entry = match cfg.w with Cabana_mpi4 -> entry "Move_Deposit" | _ -> entry "Move" in
  let launches =
    List.fold_left
      (fun acc (k, (e : Profile.entry)) ->
        if List.mem k (fempic_kernels @ cabana_kernels) then acc + e.Profile.calls else acc)
      0 ledger
  in
  let injected = List.fold_left (fun acc (i, _) -> acc + fault_delta i) 0 detectors in
  let detected = List.fold_left (fun acc (_, d) -> acc + fault_delta d) 0 detectors in
  let rs f = match resil with Some r -> f r | None -> 0.0 in
  let ckpt_mb = rs (fun r -> float_of_int (newest_ckpt_bytes r.ckpt_dir) /. 1e6) in
  let ckpt_ms = rs (fun r -> median r.ckpt_ms *. scale) in
  let counted =
    [
      m "host.ruler_ms_p50" "ms" ruler_p50;
      m "host.step_ms_raw_p50" "ms" (median (List.map (fun x -> x.ms) samples));
      m "host.setup_s_raw" "s" (setup_raw /. 1000.0);
      m "host.alloc_mb_per_step" "MB" ((minor1 -. minor0) *. 8.0 /. 1e6 /. nf);
      m "host.major_gcs_per_100_steps" "count"
        (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) *. 100.0 /. nf);
    ]
    @ List.map
        (fun k -> m (Printf.sprintf "kernel.%s.ms_per_step" k) "ms" (ms_per_step k))
        (fempic_kernels @ cabana_kernels)
    @ [
        m "kernel.launches_per_step" "count" (float_of_int launches /. nf);
        m "move.walks_per_particle" "ratio"
          (match move_entry with Some e -> float_of_int e.Profile.elems /. sum lives | None -> 0.0);
        m "move.gbs_computed" "GB/s"
          (match move_entry with
          | Some e -> e.Profile.bytes /. (e.Profile.seconds *. scale) /. 1e9
          | None -> 0.0);
        m "solve.ms_per_step" "ms" (ms_per_step "Solve");
        m "solve.cg_iters" "count" (float_of_int !cg /. nf);
        m "solve.newton_iters" "count" (float_of_int !newton /. nf);
        m "halo.msgs_per_step" "count" (td (fun t -> float_of_int t.Traffic.halo_messages));
        m "halo.kb_per_step" "kB" (td (fun t -> t.Traffic.halo_bytes) /. 1e3);
        m "migrate.particles_per_step" "count"
          (td (fun t -> float_of_int t.Traffic.migrated_particles));
        m "migrate.msgs_per_step" "count" (td (fun t -> float_of_int t.Traffic.migrate_messages));
        m "migrate.kb_per_step" "kB" (td (fun t -> t.Traffic.migrate_bytes) /. 1e3);
        m "solve.kb_per_step" "kB" (td (fun t -> t.Traffic.solve_bytes) /. 1e3);
        m "apps_dist.imbalance" "ratio" (imbalance app);
        m "ckpt.ms" "ms" ckpt_ms;
        m "ckpt.mb" "MB" ckpt_mb;
        m "ckpt.mb_per_s" "MB/s" (if ckpt_ms > 0.0 then ckpt_mb /. (ckpt_ms /. 1000.0) else 0.0);
        m "resil.faults_injected_per_step" "count" (float_of_int injected /. nf);
        m "resil.retries_per_step" "count" (float_of_int (fault_delta "retries") /. nf);
        m "resil.detected_frac" "ratio"
          (if injected > 0 then float_of_int detected /. float_of_int injected else 0.0);
        m "resil.quarantined" "count" (float_of_int (fault_delta "quarantined"));
        m "journal.ms_per_step" "ms" (rs (fun r -> r.journal_ms *. scale /. nf));
        m "rebase.ms" "ms" (rs (fun r -> median r.rebase_ms *. scale));
        m "respawn.ms" "ms" (rs (fun r -> median r.respawn_ms *. scale));
        m "watch.alerts" "count" (rs (fun r -> float_of_int (Monitor.alerts_total r.mon)));
      ]
  in
  let traced, sums_check =
    if cfg.traced = 0 then ([], [])
    else
      let metrics, ok = traced_pass cfg app resil ~untraced_p50:p50 in
      (metrics, [ ("layer self times sum to bench.step", ok) ])
  in
  let checks = correctness cfg app resil @ sums_check in
  let final_hash = match app with Fd d when cfg.smoke -> Some (Fdist.state_hash d) | _ -> None in
  let final_live = live app and final_step = step_count app in
  Option.iter disarm resil;
  rm_rf workdir;
  (* the other set-ups for the setup_s median, after the measured
     passes so that peak_heap_mb sees one world only *)
  let setups =
    setup_norm
    :: List.init (cfg.setups - 1) (fun _ ->
           let _, resil, _, ms = setup cfg ~profile:(Profile.create ()) ~workdir in
           Option.iter disarm resil;
           rm_rf workdir;
           ms)
  in
  {
    end_to_end =
      [
        m "step_ms_p50" "ms" p50;
        m "step_ms_p90" "ms" (step_p90 samples ~block);
        m "mpush_per_s" "Mpart/s" (mpush samples ~block);
        m "setup_s" "s" (median setups /. 1000.0);
        m "peak_heap_mb" "MB" (float_of_int gc1.Gc.top_heap_words *. 8.0 /. 1e6);
      ];
    per_layer = counted @ traced;
    attempted = p.p_attempted + msgs;
    failed = p.p_failed + msg_failed;
    checks;
    samples = n;
    final_live;
    final_step;
    final_hash;
  }

(* --- output --- *)

(* Prints the checks and every metric with its unit, appends the
   schema-1 row to [json] if given, and ends standard output with the
   result object. *)
let report cfg o ~trace ~json =
  let metrics = if trace then o.per_layer else o.end_to_end in
  Printf.printf "oppic_bench %s seed=%d samples=%d trace=%d\n" (workload_name cfg.w) cfg.seed
    o.samples (if trace then 1 else 0);
  List.iter
    (fun (c, ok) -> Printf.printf "  check %-40s %s\n" c (if ok then "ok" else "FAILED"))
    o.checks;
  Printf.printf "  operations: %d attempted, %d failed\n" o.attempted o.failed;
  (* the text lists every metric measured; the result object only the
     selected set *)
  List.iter
    (fun x -> Printf.printf "  %-44s %16.6f %s\n" x.name x.value x.unit_)
    (o.end_to_end @ o.per_layer);
  let result =
    [
      ("correct", Json.Bool (List.for_all snd o.checks));
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun x ->
               (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]))
             metrics) );
    ]
  in
  Option.iter
    (fun path ->
      let row =
        [
          ("schema", Json.Num 1.0);
          ("kind", Json.Str "measured");
          ("workload", Json.Str (workload_name cfg.w));
          ("seed", Json.Num (float_of_int cfg.seed));
          ("samples", Json.Num (float_of_int o.samples));
          ("trace", Json.Bool trace);
        ]
      in
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc (Json.to_string (Json.Obj (row @ result)));
      output_char oc '\n';
      close_out oc)
    json;
  print_endline (Json.to_string (Json.Obj result))

(* --- calibrate: the ruler's own spread and allocation --- *)

let calibrate () =
  for _ = 1 to 20 do
    ruler ()
  done;
  (* minor words of a timed call, less those of timing a no-op *)
  let measure f =
    let w0 = Gc.minor_words () in
    let ms = time_ms f in
    (ms, Gc.minor_words () -. w0)
  in
  let overhead = snd (measure ignore) in
  let calls = List.init 200 (fun _ -> measure ruler) in
  let times = List.map fst calls and words = List.map (fun (_, w) -> w -. overhead) calls in
  let p25 = quantile times 0.25 and p50 = median times and p75 = quantile times 0.75 in
  let constant = List.for_all (fun w -> w = List.hd words) words in
  Printf.printf "ruler: p50 %.4f ms, IQR %.4f ms (%.2f%% of p50), %g minor words per call (%s)\n"
    p50 (p75 -. p25)
    (100.0 *. (p75 -. p25) /. p50)
    (List.hd words)
    (if constant then "constant" else "NOT constant");
  Printf.printf "pinned r0_ms = %.4f\n" r0_ms;
  if not constant then exit 1

(* --- smoke: every manifest metric, and the cross-workload oracles --- *)

let manifest_metrics path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string text with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j ->
      List.concat_map
        (fun key ->
          Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list)
          |> List.filter_map (fun x ->
                 let field k = Option.bind (Json.member k x) Json.str in
                 match (field "name", field "unit") with
                 | Some n, Some u -> Some (n, u)
                 | _ -> None))
        [ "end_to_end"; "per_layer" ]

let smoke ~manifest ~out =
  let expected = manifest_metrics manifest in
  let ok = ref (expected <> []) in
  let fail fmt = Printf.ksprintf (fun s -> Printf.printf "SMOKE FAIL: %s\n%!" s; ok := false) fmt in
  let outcomes =
    List.map
      (fun (name, w) ->
        let cfg =
          {
            w;
            seed = 1234;
            fill = 6;
            timed = 4;
            traced = 4;
            setups = 1;
            ckpt_every = 2;
            out;
            smoke = true;
          }
        in
        let o = run cfg in
        List.iter (fun (c, good) -> if not good then fail "%s: check '%s'" name c) o.checks;
        if o.failed > 0 then fail "%s: %d failed operations" name o.failed;
        let printed = o.end_to_end @ o.per_layer in
        List.iter
          (fun (mname, unit_) ->
            match List.find_opt (fun x -> x.name = mname) printed with
            | None -> fail "%s: metric %s not printed" name mname
            | Some x ->
                if not (Float.is_finite x.value) then fail "%s: %s = %f" name mname x.value;
                if x.unit_ <> unit_ then
                  fail "%s: %s unit %s, manifest says %s" name mname x.unit_ unit_)
          expected;
        Printf.printf "smoke %s: %d samples, %d checks\n" name o.samples (List.length o.checks);
        (w, o))
      workloads
  in
  let o w = List.assoc w outcomes in
  if (o Fempic_seq).final_live <> (o Fempic_mpi4).final_live then
    fail "live counts differ: fempic_seq %d, fempic_mpi4 %d" (o Fempic_seq).final_live
      (o Fempic_mpi4).final_live;
  if (o Fempic_mpi4_resil).final_step <> (o Fempic_mpi4).final_step
     || (o Fempic_mpi4_resil).final_hash <> (o Fempic_mpi4).final_hash
  then fail "fempic_mpi4_resil does not end with fempic_mpi4's state hash";
  Printf.printf "smoke: %d manifest metrics x %d workloads, %s\n" (List.length expected)
    (List.length workloads)
    (if !ok then "ok" else "FAILED");
  if not !ok then exit 1

(* --- command line --- *)

let () =
  let workload = ref "" and seed = ref 1234 and seconds = ref 10.0 and trace = ref 0 in
  let json = ref None and out = ref ".oppic_bench" in
  let calibrate_flag = ref false and smoke_flag = ref false and manifest = ref "BENCHMARK.json" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  input seed (default 1234)");
      ("--seconds", Arg.Set_float seconds, "S  reference-host seconds of timed steps (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  report end-to-end (0) or per-layer (1) metrics");
      ("--json", Arg.String (fun f -> json := Some f), "FILE  append the result row to FILE");
      ("--out", Arg.Set_string out, "DIR  working files and trace artifacts (default .oppic_bench)");
      ("--calibrate", Arg.Set calibrate_flag, " time the host ruler");
      ("--smoke", Arg.Set smoke_flag, " short run of every workload with assertions");
      ("--manifest", Arg.Set_string manifest, "FILE  benchmark manifest for --smoke");
    ]
  in
  let usage = "oppic_bench --workload W [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !calibrate_flag then calibrate ()
  else if !smoke_flag then smoke ~manifest:!manifest ~out:!out
  else
    match List.assoc_opt !workload workloads with
    | None ->
        Printf.eprintf "unknown --workload '%s'\n%s\n" !workload (Arg.usage_string spec usage);
        exit 2
    | Some w ->
        if !trace <> 0 && !trace <> 1 then begin
          prerr_endline "--trace takes 0 or 1";
          exit 2
        end;
        let block = 25 in
        let blocks = Float.round (!seconds *. 1000.0 /. ref_sample_ms w /. float_of_int block) in
        let timed = block * max 4 (int_of_float blocks) in
        let cfg =
          {
            w;
            seed = !seed;
            fill = (match w with Cabana_mpi4 -> 10 | _ -> 100);
            timed;
            traced = (if !trace = 1 then min 100 timed else 0);
            (* more set-ups where one is short: a burst of host
               interference covers a larger share of a short one *)
            setups = (match w with Cabana_mpi4 -> 15 | Fempic_mpi4_resil -> 3 | _ -> 5);
            ckpt_every = block;
            out = !out;
            smoke = false;
          }
        in
        let o = run cfg in
        report cfg o ~trace:(!trace = 1) ~json:!json
