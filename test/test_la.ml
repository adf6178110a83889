(* Tests for the linear-algebra substrate: the CSR matrix and vector
   kernels under the field solver's CG, and the small dense kit. *)

open Opp_la

let check_float = Alcotest.(check (float 1e-12))

let test_vec_ops () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 4.0; -1.0; 0.5 |] in
  let y' = Array.copy y in
  Vec.axpy 2.0 x y';
  check_float "axpy" 6.0 y'.(0);
  check_float "axpy" 3.0 y'.(1);
  let y' = Array.copy y in
  Vec.aypx 2.0 x y';
  check_float "aypx" 9.0 y'.(0);
  check_float "aypx" 0.0 y'.(1);
  let z = Array.make 3 0.0 in
  Vec.mul_pointwise x y z;
  check_float "mul_pointwise" 4.0 z.(0)

let test_vec_mismatch () =
  Alcotest.check_raises "axpy mismatch" (Invalid_argument "Vec.axpy: length mismatch") (fun () ->
      Vec.axpy 1.0 [| 1.0 |] [| 1.0; 2.0 |])

let test_csr_assembly () =
  let m = Csr.of_triplets 3 [ (0, 0, 2.0); (0, 1, 1.0); (1, 1, 3.0); (2, 2, 4.0); (0, 0, 1.0) ] in
  check_float "duplicate summed" 3.0 (Csr.get m 0 0);
  check_float "off-diagonal" 1.0 (Csr.get m 0 1);
  check_float "missing entry is zero" 0.0 (Csr.get m 1 0);
  Alcotest.(check int) "nnz after merge" 4 (Csr.nnz m)

let test_csr_spmv () =
  (* [[2 1 0][1 3 0][0 0 4]] x [1 2 3] = [4 7 12] *)
  let m =
    Csr.of_triplets 3 [ (0, 0, 2.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 3.0); (2, 2, 4.0) ]
  in
  let y = Array.make 3 0.0 in
  Csr.spmv m [| 1.0; 2.0; 3.0 |] y;
  check_float "spmv row 0" 4.0 y.(0);
  check_float "spmv row 1" 7.0 y.(1);
  check_float "spmv row 2" 12.0 y.(2)

let test_csr_pattern_reuse () =
  let m = Csr.of_triplets 2 [ (0, 0, 1.0); (1, 1, 1.0); (0, 1, 0.0) ] in
  Csr.zero_values m;
  Csr.add_at m 0 1 5.0;
  check_float "add_at" 5.0 (Csr.get m 0 1);
  check_float "zeroed diag" 0.0 (Csr.get m 0 0);
  Alcotest.check_raises "add outside pattern"
    (Invalid_argument "Csr.add_at: (1,0) not in pattern") (fun () -> Csr.add_at m 1 0 1.0)

let test_dense_inv () =
  let a = [| [| 2.0; 1.0; 0.0 |]; [| 1.0; 3.0; 1.0 |]; [| 0.0; 1.0; 2.0 |] |] in
  let ai = Dense.inv a in
  (* A * A^-1 = I *)
  for i = 0 to 2 do
    for j = 0 to 2 do
      let s = ref 0.0 in
      for k = 0 to 2 do
        s := !s +. (a.(i).(k) *. ai.(k).(j))
      done;
      Alcotest.(check (float 1e-12)) "A*inv(A)=I" (if i = j then 1.0 else 0.0) !s
    done
  done

let test_dense_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "singular") (fun () -> ignore (Dense.inv a))

let test_solve3 () =
  let a = [| [| 1.0; 0.0; 0.0 |]; [| 0.0; 2.0; 0.0 |]; [| 1.0; 1.0; 1.0 |] |] in
  let x = Dense.solve3 a [| 3.0; 4.0; 10.0 |] in
  check_float "x" 3.0 x.(0);
  check_float "y" 2.0 x.(1);
  check_float "z" 5.0 x.(2)

let suite =
  [
    Alcotest.test_case "vec ops" `Quick test_vec_ops;
    Alcotest.test_case "vec mismatch raises" `Quick test_vec_mismatch;
    Alcotest.test_case "csr assembly merges duplicates" `Quick test_csr_assembly;
    Alcotest.test_case "csr spmv" `Quick test_csr_spmv;
    Alcotest.test_case "csr pattern reuse" `Quick test_csr_pattern_reuse;
    Alcotest.test_case "dense inverse" `Quick test_dense_inv;
    Alcotest.test_case "dense singular raises" `Quick test_dense_singular;
    Alcotest.test_case "cramer solve3" `Quick test_solve3;
  ]
