(** Compressed-sparse-row matrix, assembled from coordinate triplets.

    FEM assembly accumulates (row, col, value) triplets per element;
    [of_triplets] sums duplicates and compresses. A fixed sparsity
    pattern can be reused across Newton iterations via [zero_values] +
    [add_at]. *)

type t

val nnz : t -> int

val of_triplets : int -> (int * int * float) list -> t
(** [of_triplets n triplets] builds an [n x n] matrix, summing
    duplicate coordinates; raises [Invalid_argument] on out-of-range
    entries. *)

val zero_values : t -> unit
(** Zero the stored values, keeping the sparsity pattern. *)

val add_at : t -> int -> int -> float -> unit
(** [add_at m r c v] adds [v] at (r, c); the position must exist in
    the pattern. *)

val get : t -> int -> int -> float
(** Entry at (r, c); 0 outside the pattern. *)

val spmv : t -> float array -> float array -> unit
(** [spmv m x y] computes y := A x. *)
