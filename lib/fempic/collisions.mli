(** Monte-Carlo collisions (MCC) with a uniform neutral background —
    the interleaved routine family the paper's section 2 describes
    (collisions, ionization). Charge-exchange, isotropic elastic
    scattering, and ionization via the null-collision method; random
    draws are staged into a per-particle dat before the loop so the
    kernel stays backend-portable, and ionization offspring are
    appended after the loop (flag-then-append, as on GPUs). *)

open Opp_core

type t = {
  neutral_density : float;
  neutral_temperature : float;
  sigma_cx : float;
  sigma_el : float;
  sigma_ion : float;
  dt : float;
  parts : Types.set;
  part_vel : Types.dat;
  part_pos : Types.dat option;
  p2c : Types.map option;
  part_rand : Types.dat;
  part_ionize : Types.dat;
  seed : int;  (** the stream's seed, which keys its checkpointed state *)
  rng : Rng.t;
  mutable cx_count : int;
  mutable elastic_count : int;
  mutable ionization_count : int;
}

val create :
  ?neutral_density:float ->
  ?neutral_temperature:float ->
  ?sigma_cx:float ->
  ?sigma_el:float ->
  ?sigma_ion:float ->
  ?part_pos:Types.dat ->
  ?p2c:Types.map ->
  dt:float ->
  parts:Types.set ->
  part_vel:Types.dat ->
  seed:int ->
  unit ->
  t
(** Ionization ([sigma_ion > 0]) additionally needs [part_pos] and
    [p2c] to place the offspring. *)

val apply : ?runner:Runner.t -> t -> int * int * int
(** One collision step over every particle; returns this step's
    (charge-exchange, elastic, ionization) counts. *)

val expected_probability : t -> v:float -> float
(** Expected collisions per particle per step at speed [v]. *)
