(** Dense vector kernels over [float array] for the field solver's CG
    iteration. *)

(** y := y + a*x *)
let axpy a x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Vec.axpy: length mismatch";
  for i = 0 to n - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

(** y := x + a*y (PETSc's AYPX) *)
let aypx a x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Vec.aypx: length mismatch";
  for i = 0 to n - 1 do
    y.(i) <- x.(i) +. (a *. y.(i))
  done

(** Pointwise z := x .* y (Jacobi preconditioner application). *)
let mul_pointwise x y z =
  let n = Array.length x in
  for i = 0 to n - 1 do
    z.(i) <- x.(i) *. y.(i)
  done
