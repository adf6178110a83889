(** Hardware descriptors for the performance model: the systems of the
    paper's Table 2 plus the single-device GPUs of Figure 9, with
    public peak numbers. The simulator executes kernels exactly; these
    numbers only shape the {e modelled} time. *)

type kind =
  | Cpu of { cores : int }
  | Gpu of { warp : int; fast_atomics : bool }

type t = {
  name : string;
  short : string;
  kind : kind;
  mem_bw : float;  (** bytes/s *)
  l3_bw : float;  (** bytes/s, cache roof for rooflines *)
  peak_fp64 : float;  (** flop/s *)
  power : float;  (** watts (device or node share) *)
  launch_overhead : float;  (** seconds per kernel launch *)
  atomic_base : float;  (** seconds per uncontended atomic *)
  at_conflict : float;  (** extra seconds per serialized standard atomic *)
  ua_conflict : float;  (** ... per unsafe atomic *)
  divergence_sensitivity : float;
      (** mover divergence amplification: effective = 1 + sens*(d-1) *)
}

val warp_size : t -> int
val is_gpu : t -> bool

val xeon_8268_node : t
val epyc_7742_node : t
val v100 : t
val h100 : t
val mi210 : t
val mi250x_gcd : t
val all : t list

val of_name : string -> t option
(** The device whose [short] name matches, case-insensitively; [xeon]
    and [epyc] name the two CPU nodes. *)

val kernel_time : t -> bytes:float -> flops:float -> float
(** Roofline-limited kernel time plus launch overhead. *)

val pp : Format.formatter -> t -> unit
