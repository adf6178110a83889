(** Compressed-sparse-row matrix, assembled from coordinate triplets.

    FEM assembly (ComputeJMatrix in Mini-FEM-PIC) first accumulates
    (row, col, value) triplets per element, then [of_triplets] sums
    duplicates and compresses. A fixed sparsity pattern can be reused
    across Newton iterations via [zero_values] + [add_at]. *)

type t = {
  n : int;  (** square dimension *)
  row_ptr : int array;  (** length n+1 *)
  col_idx : int array;
  values : float array;
}

let nnz m = m.row_ptr.(m.n)

let of_triplets n triplets =
  if n < 0 then invalid_arg "Csr.of_triplets: negative dimension";
  List.iter
    (fun (r, c, _) ->
      if r < 0 || r >= n || c < 0 || c >= n then
        invalid_arg (Printf.sprintf "Csr.of_triplets: entry (%d,%d) out of %dx%d" r c n n))
    triplets;
  let sorted =
    List.sort (fun (r1, c1, _) (r2, c2, _) -> if r1 <> r2 then compare r1 r2 else compare c1 c2)
      triplets
  in
  (* merge duplicates *)
  let merged = ref [] in
  List.iter
    (fun (r, c, v) ->
      match !merged with
      | (r', c', v') :: rest when r = r' && c = c' -> merged := (r, c, v +. v') :: rest
      | _ -> merged := (r, c, v) :: !merged)
    sorted;
  let entries = Array.of_list (List.rev !merged) in
  let nnz = Array.length entries in
  let row_ptr = Array.make (n + 1) 0 in
  Array.iter (fun (r, _, _) -> row_ptr.(r + 1) <- row_ptr.(r + 1) + 1) entries;
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  let col_idx = Array.make nnz 0 and values = Array.make nnz 0.0 in
  Array.iteri
    (fun k (_, c, v) ->
      col_idx.(k) <- c;
      values.(k) <- v)
    entries;
  { n; row_ptr; col_idx; values }

(** Zero the stored values, keeping the sparsity pattern. *)
let zero_values m = Array.fill m.values 0 (Array.length m.values) 0.0

(** Add [v] at (r, c); the position must exist in the pattern. *)
let add_at m r c v =
  if r < 0 || r >= m.n then invalid_arg "Csr.add_at: row out of range";
  let rec find k =
    if k >= m.row_ptr.(r + 1) then
      invalid_arg (Printf.sprintf "Csr.add_at: (%d,%d) not in pattern" r c)
    else if m.col_idx.(k) = c then k
    else find (k + 1)
  in
  let k = find m.row_ptr.(r) in
  m.values.(k) <- m.values.(k) +. v

let get m r c =
  let rec find k =
    if k >= m.row_ptr.(r + 1) then 0.0
    else if m.col_idx.(k) = c then m.values.(k)
    else find (k + 1)
  in
  find m.row_ptr.(r)

(** y := A x *)
let spmv m x y =
  if Array.length x <> m.n || Array.length y <> m.n then invalid_arg "Csr.spmv: size mismatch";
  for r = 0 to m.n - 1 do
    let s = ref 0.0 in
    for k = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
      s := !s +. (m.values.(k) *. x.(m.col_idx.(k)))
    done;
    y.(r) <- !s
  done
