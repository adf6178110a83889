(** Backend code emitters: loop IR -> platform-specific C++-like
    source, one template per parallelization (paper section 3.4, plus
    the future-work SYCL target). Adding a parallelization is adding a
    template — the paper's extensibility claim. *)

type target = Seq | Omp | Cuda | Hip | Mpi | Sycl

val target_to_string : target -> string
val target_of_string : string -> target option
val all_targets : target list

val emit_loop : Ir.program -> target -> Ir.loop -> string
(** One generated function (par_loop wrapper or mover). *)

val emit_program : Ir.program -> target -> string
(** A full translation unit for one target. *)

val emit_all : Ir.program -> (string * string) list
(** [(relative filename, contents)] for every target, mirroring the
    seq/omp/mpi/cuda/hip/sycl output directories of the real
    translator. *)
