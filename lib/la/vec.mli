(** Dense vector kernels over [float array] for the field solver's CG
    iteration; length mismatches raise [Invalid_argument]. *)

val axpy : float -> float array -> float array -> unit
(** [axpy a x y] computes y := y + a x. *)

val aypx : float -> float array -> float array -> unit
(** [aypx a x y] computes y := x + a y (PETSc's AYPX). *)

val mul_pointwise : float array -> float array -> float array -> unit
(** [mul_pointwise x y z] computes z := x .* y (Jacobi application). *)
