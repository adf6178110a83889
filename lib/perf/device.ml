(** Hardware descriptors for the performance model.

    The paper's systems (Table 2) plus the single-device GPUs of
    Figure 9, with public peak numbers: memory bandwidth, FP64 peak,
    power, and the atomic-operation characteristics that drive the
    AT / UA / SR comparison of section 3.3. The simulator executes
    kernels exactly; these numbers only shape the {e modelled} time. *)

type kind =
  | Cpu of { cores : int }
  | Gpu of { warp : int; fast_atomics : bool }
      (** [fast_atomics]: NVIDIA-style hardware FP64 atomics; AMD
          CDNA's compare-and-swap loops serialize badly under
          contention (the paper's 200x observation) *)

type t = {
  name : string;
  short : string;
  kind : kind;
  mem_bw : float;  (** bytes/s *)
  l3_bw : float;  (** bytes/s, cache roof used in the roofline plots *)
  peak_fp64 : float;  (** flop/s *)
  power : float;  (** watts drawn by this device (or its node share) *)
  launch_overhead : float;  (** seconds per kernel launch *)
  atomic_base : float;  (** seconds per uncontended atomic update *)
  at_conflict : float;  (** extra seconds per serialized standard atomic *)
  ua_conflict : float;  (** ... per unsafe (read-modify-write) atomic *)
  divergence_sensitivity : float;
      (** how much intra-warp branch divergence in the particle mover
          hurts: effective divergence = 1 + sens * (divergence - 1).
          1.0 for CPUs (no warps); >1 on GPUs where divergent walks
          also defeat coalescing and cause replays (the paper's
          Move_Deposit pathology on V100) *)
}

let warp_size d = match d.kind with Cpu _ -> 1 | Gpu g -> g.warp
let is_gpu d = match d.kind with Gpu _ -> true | Cpu _ -> false

(* 2x Intel Xeon Platinum 8268 (Avon node): 48 cores Cascade Lake *)
let xeon_8268_node =
  {
    name = "2x Intel Xeon 8268";
    short = "8268";
    kind = Cpu { cores = 48 };
    mem_bw = 282e9;
    l3_bw = 1.3e12;
    peak_fp64 = 2.2e12;
    power = 475.0;
    launch_overhead = 0.0;
    atomic_base = 8e-9;
    at_conflict = 25e-9;
    ua_conflict = 25e-9;
    divergence_sensitivity = 1.0;
  }

(* 2x AMD EPYC 7742 (ARCHER2 node): 128 cores Rome *)
let epyc_7742_node =
  {
    name = "2x AMD EPYC 7742";
    short = "7742";
    kind = Cpu { cores = 128 };
    mem_bw = 409.6e9;
    l3_bw = 3.0e12;
    peak_fp64 = 4.6e12;
    power = 660.0;
    launch_overhead = 0.0;
    atomic_base = 8e-9;
    at_conflict = 25e-9;
    ua_conflict = 25e-9;
    divergence_sensitivity = 1.0;
  }

(* NVIDIA V100-SXM2-32GB (Bede); power includes its share of the host *)
let v100 =
  {
    name = "NVIDIA V100";
    short = "V100";
    kind = Gpu { warp = 32; fast_atomics = true };
    mem_bw = 900e9;
    l3_bw = 2.2e12;
    peak_fp64 = 7.8e12;
    power = 375.0;
    launch_overhead = 6e-6;
    atomic_base = 1.2e-9;
    at_conflict = 6.0e-9;
    ua_conflict = 8.0e-9;
    divergence_sensitivity = 3.0;
  }

let h100 =
  {
    name = "NVIDIA H100";
    short = "H100";
    kind = Gpu { warp = 32; fast_atomics = true };
    mem_bw = 3.35e12;
    l3_bw = 8.0e12;
    peak_fp64 = 34e12;
    power = 700.0;
    launch_overhead = 5e-6;
    atomic_base = 0.6e-9;
    at_conflict = 1.2e-9;
    ua_conflict = 1.2e-9;
    divergence_sensitivity = 2.0;
  }

let mi210 =
  {
    name = "AMD MI210";
    short = "MI210";
    kind = Gpu { warp = 64; fast_atomics = false };
    mem_bw = 1.6e12;
    l3_bw = 4.0e12;
    peak_fp64 = 22.6e12;
    power = 300.0;
    launch_overhead = 8e-6;
    atomic_base = 2.0e-9;
    (* compare-and-swap retry loops serialize: the paper sees standard
       atomics over 200x slower than UA/SR on contended deposits *)
    at_conflict = 3.0e-6;
    ua_conflict = 8.0e-9;
    (* CDNA wavefronts tolerate the branchy mover better than the
       contended deposit *)
    divergence_sensitivity = 1.2;
  }

(* One Graphics Compute Die of an MI250X (LUMI-G exposes GCDs) *)
let mi250x_gcd =
  {
    name = "AMD MI250X (1 GCD)";
    short = "MI250X";
    kind = Gpu { warp = 64; fast_atomics = false };
    mem_bw = 1.6e12;
    l3_bw = 4.0e12;
    peak_fp64 = 23.9e12;
    power = 299.0;
    launch_overhead = 8e-6;
    atomic_base = 2.0e-9;
    at_conflict = 3.0e-6;
    ua_conflict = 8.0e-9;
    (* CDNA wavefronts tolerate the branchy mover better than the
       contended deposit *)
    divergence_sensitivity = 1.2;
  }

let all = [ xeon_8268_node; epyc_7742_node; v100; h100; mi210; mi250x_gcd ]

let of_name name =
  let alias = function "xeon" -> "8268" | "epyc" -> "7742" | s -> s in
  let name = alias (String.lowercase_ascii name) in
  List.find_opt (fun d -> String.lowercase_ascii d.short = name) all

(** Roofline-limited kernel time on [d] for a kernel moving [bytes]
    and executing [flops], before latency effects. *)
let kernel_time d ~bytes ~flops =
  Float.max (bytes /. d.mem_bw) (flops /. d.peak_fp64) +. d.launch_overhead

let pp fmt d =
  let kind =
    match d.kind with
    | Cpu c -> Printf.sprintf "CPU %d cores" c.cores
    | Gpu g -> Printf.sprintf "GPU warp=%d %s atomics" g.warp (if g.fast_atomics then "fast" else "slow")
  in
  Format.fprintf fmt "%-22s %-18s %7.0f GB/s %8.1f GF/s %6.0f W" d.name kind (d.mem_bw /. 1e9)
    (d.peak_fp64 /. 1e9) d.power
