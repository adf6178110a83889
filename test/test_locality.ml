(* Tests for particle storage order and the buffers that keep loops
   over it cheap:
   - remove_flagged clamps the injected window to surviving injected
     particles, and fills holes without allocating;
   - sort_by_cell is a stable permutation and resets the injected
     window;
   - Seq raises Storage_reallocated (and the sanitizer raises E080)
     when a kernel injects into the set its loop iterates;
   - the scatter-buffer pool reuses zeroed buffers across launches;
   - the dynamic mover is bitwise the static one, and the AT-mode SIMT
     runner bitwise the sequential run. *)

open Opp_core
open Opp_core.Types

let check_float = Alcotest.(check (float 1e-12))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains msg sub =
  try
    ignore (Str.search_forward (Str.regexp_string sub) msg 0);
    true
  with Not_found -> false

(* A particle set over [ncells] cells with an arity-1 p2c map and a
   dim-1 payload dat recording each particle's birth identity; {!born}
   injects more particles and tags them the same way. *)
let fixture ?(ncells = 8) ?(count = 10) () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" ncells in
  let parts = Opp.decl_particle_set ctx ~name:"parts" ~count cells in
  let p2c = Opp.decl_map ctx ~name:"p2c" ~from:parts ~to_:cells ~arity:1 None in
  let tag = Opp.decl_dat ctx ~name:"tag" ~set:parts ~dim:1 None in
  for i = 0 to count - 1 do
    p2c.m_data.(i) <- i mod ncells;
    tag.d_data.(i) <- float_of_int i
  done;
  (ctx, cells, parts, p2c, tag)

let born parts tag n =
  let start = Opp.inject parts n in
  for i = start to start + n - 1 do
    tag.d_data.(i) <- float_of_int i
  done;
  start

let id tag slot = int_of_float tag.d_data.(slot)

(* --- the injected-window bugfixes ------------------------------------ *)

let test_remove_in_window_exact () =
  let _, _, parts, p2c, tag = fixture () in
  let start = born parts tag 4 in
  check_int "window start" 10 start;
  for i = 0 to 3 do
    p2c.m_data.(start + i) <- 0
  done;
  (* remove two of the four injected particles (slots 11 and 13) *)
  let dead = Array.make parts.s_size false in
  dead.(11) <- true;
  dead.(13) <- true;
  check_int "removed" 2 (Particle.remove_flagged parts dead);
  check_int "size" 12 parts.s_size;
  (* exact clamp: the window is precisely the two injected survivors *)
  check_int "injected window" 2 parts.s_injected;
  let lo, hi = Seq.iter_range parts Opp.injected in
  check_int "window lo" 10 lo;
  check_int "window hi" 12 hi;
  (* every slot in the window holds a particle of the injected batch
     (id >= 10), in this case exactly the survivors {10, 12} *)
  let ids = List.sort compare [ id tag 10; id tag 11 ] in
  Alcotest.(check (list int)) "surviving injected ids" [ 10; 12 ] ids

let test_remove_below_window_conservative () =
  let _, _, parts, p2c, tag = fixture () in
  let start = born parts tag 4 in
  for i = 0 to 3 do
    p2c.m_data.(start + i) <- 0
  done;
  (* remove one pre-existing particle: the hole fills from the tail
     with an injected particle, so the clamped window (3 slots) still
     covers only injected-batch particles *)
  let dead = Array.make parts.s_size false in
  dead.(2) <- true;
  check_int "removed" 1 (Particle.remove_flagged parts dead);
  check_int "size" 13 parts.s_size;
  check_int "injected window clamped" 3 parts.s_injected;
  for slot = parts.s_size - parts.s_injected to parts.s_size - 1 do
    check_bool "window slot holds injected particle" true (id tag slot >= 10)
  done

let test_remove_all_clears_window () =
  (* regression: the seed left s_injected at its old value, so after
     removing everything Iterate_injected described a negative range *)
  let _, _, parts, p2c, _ = fixture () in
  let start = Opp.inject parts 4 in
  for i = 0 to 3 do
    p2c.m_data.(start + i) <- 0
  done;
  let dead = Array.make parts.s_size true in
  check_int "removed" 14 (Particle.remove_flagged parts dead);
  check_int "size" 0 parts.s_size;
  check_int "window empty" 0 parts.s_injected;
  let lo, hi = Seq.iter_range parts Opp.injected in
  check_bool "range well-formed" true (lo = hi)

(* Hole filling copies one particle per hole across every dat and map;
   the copies must not allocate, so a compaction costs the same minor
   words (the call itself) whatever the number of holes. *)
let test_remove_allocation_free () =
  let minor_words_removing k =
    let ctx, _, parts, _, _ = fixture ~count:(4 * k) () in
    ignore (Opp.decl_dat ctx ~name:"vel" ~set:parts ~dim:3 None);
    (* every other slot of the lower half dies: k holes, each filled
       from the live upper half *)
    let dead = Array.make parts.s_size false in
    for i = 0 to k - 1 do
      dead.(2 * i) <- true
    done;
    let before = Gc.minor_words () in
    let removed = Particle.remove_flagged parts dead in
    let words = Gc.minor_words () -. before in
    check_int "removed" k removed;
    words
  in
  ignore (minor_words_removing 10);
  let few = minor_words_removing 100 and many = minor_words_removing 10_000 in
  Alcotest.(check (float 0.0)) "minor words independent of the hole count" few many

let test_sort_resets_window () =
  let _, _, parts, p2c, _ = fixture () in
  let start = Opp.inject parts 4 in
  for i = 0 to 3 do
    p2c.m_data.(start + i) <- 0
  done;
  check_int "window before sort" 4 parts.s_injected;
  Opp.sort_by_cell parts ~p2c;
  (* the sort scatters the batch through storage: a stale window would
     make Iterate_injected visit arbitrary survivors *)
  check_int "window reset by sort" 0 parts.s_injected

let prop_sort_stable_permutation =
  QCheck.Test.make ~name:"sort_by_cell is a stable permutation" ~count:100
    QCheck.(pair (int_range 1 300) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let ncells = 7 in
      let rng = Rng.create seed in
      let ctx = Opp.init () in
      let cells = Opp.decl_set ctx ~name:"cells" ncells in
      let parts = Opp.decl_particle_set ctx ~name:"parts" cells in
      let p2c = Opp.decl_map ctx ~name:"p2c" ~from:parts ~to_:cells ~arity:1 None in
      let tag = Opp.decl_dat ctx ~name:"tag" ~set:parts ~dim:1 None in
      ignore (Opp.inject parts n);
      for i = 0 to n - 1 do
        p2c.m_data.(i) <- Rng.int rng ncells;
        tag.d_data.(i) <- float_of_int i
      done;
      let before = Array.init n (fun i -> (p2c.m_data.(i), int_of_float tag.d_data.(i))) in
      Opp.sort_by_cell parts ~p2c;
      let after = Array.init n (fun i -> (p2c.m_data.(i), int_of_float tag.d_data.(i))) in
      (* permutation: same multiset of (cell, original index) *)
      let a = Array.copy before and b = Array.copy after in
      Array.sort compare a;
      Array.sort compare b;
      let permutation = a = b in
      (* sorted by cell; stable: original indices ascend within a cell *)
      let ordered = ref true in
      for i = 1 to n - 1 do
        if compare after.(i - 1) after.(i) > 0 then ordered := false
      done;
      (* idempotent: a second sort must not move anything *)
      Opp.sort_by_cell parts ~p2c;
      let again = Array.init n (fun i -> (p2c.m_data.(i), int_of_float tag.d_data.(i))) in
      permutation && !ordered && again = after)

(* --- mid-loop reallocation diagnostics ------------------------------- *)

let realloc_fixture () =
  (* capacity equals size, so the first in-kernel injection reallocates;
     the p2c INC into [q] is a racy argument, so the threaded engine
     takes its scatter path and a GPU runner in SR mode its own loop *)
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 4 in
  let parts = Opp.decl_particle_set ctx ~name:"parts" ~count:16 cells in
  let p2c = Opp.decl_map ctx ~name:"p2c" ~from:parts ~to_:cells ~arity:1 None in
  let pos = Opp.decl_dat ctx ~name:"pos" ~set:parts ~dim:1 None in
  let q = Opp.decl_dat ctx ~name:"q" ~set:cells ~dim:1 None in
  for i = 0 to 15 do
    p2c.m_data.(i) <- 0
  done;
  (parts, p2c, pos, q)

(* A loop whose kernel injects one particle into the set it iterates. *)
let inject_inside_loop (runner : Runner.t) =
  let parts, p2c, pos, q = realloc_fixture () in
  let injected = Atomic.make false in
  runner.Runner.r_par_loop "bad_inject" 0.0
    (fun v ->
      if Atomic.compare_and_set injected false true then ignore (Opp.inject parts 1);
      View.set v.(0) 0 1.0;
      View.inc v.(1) 0 1.0)
    parts Opp.all
    [ Opp.arg_dat pos Opp.rw; Opp.arg_dat_p2c q ~p2c Opp.inc ]

let check_raises_e080 runner =
  let raised = ref false in
  (try inject_inside_loop runner
   with Seq.Storage_reallocated msg ->
     raised := true;
     check_bool "message carries E080 tag" true (contains msg "E080"));
  check_bool "Storage_reallocated raised" true !raised

let test_inject_inside_kernel_raises () =
  check_raises_e080 (Runner.seq ~profile:(Profile.create ()) ())

let test_inject_inside_kernel_raises_omp () =
  let th = Opp_thread.Thread_runner.create ~profile:(Profile.create ()) ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Opp_thread.Thread_runner.shutdown th)
    (fun () -> check_raises_e080 (Opp_thread.Thread_runner.runner th))

let test_inject_inside_kernel_raises_gpu_sr () =
  check_raises_e080
    (Opp_gpu.Gpu_runner.runner
       (Opp_gpu.Gpu_runner.create ~profile:(Profile.create ()) ~mode:Opp_gpu.Gpu_runner.SR
          Opp_perf.Device.v100))

let test_checked_reports_e080 () =
  let runner = Opp_check.checked (Runner.seq ~profile:(Profile.create ()) ()) in
  let raised = ref false in
  (try inject_inside_loop runner
   with Opp_check.Violation v ->
     raised := true;
     Alcotest.(check string) "violation code" "E080" v.Opp_check.v_code);
  check_bool "sanitizer flagged the injection" true !raised

(* --- scatter-buffer pool --------------------------------------------- *)

let scatter_setup () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 100 in
  let nodes = Opp.decl_set ctx ~name:"nodes" 101 in
  let c2n_data = Array.init 200 (fun i -> (i / 2) + (i mod 2)) in
  let c2n = Opp.decl_map ctx ~name:"c2n" ~from:cells ~to_:nodes ~arity:2 (Some c2n_data) in
  let nd = Opp.decl_dat ctx ~name:"nd" ~set:nodes ~dim:1 None in
  (ctx, cells, c2n, nd)

let run_scatter th cells c2n nd =
  Opp_thread.Thread_runner.par_loop th ~name:"inc"
    (fun v ->
      View.inc v.(0) 0 1.0;
      View.inc v.(1) 0 1.0)
    cells Opp.all
    [ Opp.arg_dat_i nd ~idx:0 ~map:c2n Opp.inc; Opp.arg_dat_i nd ~idx:1 ~map:c2n Opp.inc ]

let test_scatter_pool_reuse () =
  let _, cells, c2n, nd = scatter_setup () in
  let th = Opp_thread.Thread_runner.create ~workers:3 () in
  Fun.protect
    ~finally:(fun () -> Opp_thread.Thread_runner.shutdown th)
    (fun () ->
      let pool = Opp_thread.Thread_runner.scatter_pool th in
      run_scatter th cells c2n nd;
      let misses_after_first = Opp_thread.Scatter_pool.misses pool in
      check_bool "first launch allocates" true (misses_after_first > 0);
      check_bool "buffers parked after reduce" true (Opp_thread.Scatter_pool.pooled pool > 0);
      run_scatter th cells c2n nd;
      check_int "second launch allocates nothing" misses_after_first
        (Opp_thread.Scatter_pool.misses pool);
      check_bool "second launch reuses" true (Opp_thread.Scatter_pool.hits pool > 0);
      (* results stay correct across the reuse *)
      check_float "end node" 2.0 nd.d_data.(0);
      for n = 1 to 99 do
        check_float "interior" 4.0 nd.d_data.(n)
      done;
      (* the pool's all-zero invariant held: a parked buffer is clean *)
      let buf = Opp_thread.Scatter_pool.acquire pool (101 * 1) in
      check_bool "pooled buffer is zeroed" true (Opp_thread.Scatter_pool.is_zero buf))

(* --- dynamic move scheduling ----------------------------------------- *)

let test_dynamic_move_matches_static () =
  let run move_sched =
    let prm = { Fempic.Params.default with Fempic.Params.target_particles = 3_000.0 } in
    let mesh = Opp_mesh.Tet_mesh.build ~nx:3 ~ny:3 ~nz:6 ~lx:4e-5 ~ly:4e-5 ~lz:8e-5 in
    let th = Opp_thread.Thread_runner.create ~profile:(Profile.create ()) ~move_sched ~workers:3 () in
    Fun.protect
      ~finally:(fun () -> Opp_thread.Thread_runner.shutdown th)
      (fun () ->
        let sim =
          Fempic.Fempic_sim.create ~prm ~profile:(Profile.create ())
            ~runner:(Opp_thread.Thread_runner.runner th) mesh
        in
        for _ = 1 to 8 do
          ignore (Fempic.Fempic_sim.step sim)
        done;
        ( sim.Fempic.Fempic_sim.parts.s_size,
          Array.copy sim.Fempic.Fempic_sim.part_pos.d_data,
          Array.copy sim.Fempic.Fempic_sim.node_phi.d_data ))
  in
  let n_d, pos_d, phi_d = run `Dynamic in
  let n_s, pos_s, phi_s = run `Static in
  check_int "same population" n_s n_d;
  check_bool "positions bit-identical" true (pos_d = pos_s);
  check_bool "phi bit-identical" true (phi_d = phi_s)

(* --- segmented reduction ---------------------------------------------- *)

let test_segmented_sorted_fast_path () =
  let sr = Opp_gpu.Segmented.create () in
  for k = 0 to 9 do
    Opp_gpu.Segmented.add sr ~key:k ~value:(float_of_int k);
    Opp_gpu.Segmented.add sr ~key:k ~value:1.0
  done;
  let target = Array.make 10 0.0 in
  check_int "distinct" 10 (Opp_gpu.Segmented.apply sr target);
  check_bool "ascending keys skip the sort" true (Opp_gpu.Segmented.last_sorted sr);
  for k = 0 to 9 do
    check_float "reduced" (float_of_int k +. 1.0) target.(k)
  done;
  Opp_gpu.Segmented.add sr ~key:5 ~value:1.0;
  Opp_gpu.Segmented.add sr ~key:2 ~value:1.0;
  ignore (Opp_gpu.Segmented.apply sr target);
  check_bool "descending keys take the sorting path" false (Opp_gpu.Segmented.last_sorted sr)

(* --- end-to-end equivalence: the SIMT runner -------------------------- *)

let fempic_prm = { Fempic.Params.default with Fempic.Params.target_particles = 3_000.0 }
let fempic_mesh () = Opp_mesh.Tet_mesh.build ~nx:3 ~ny:3 ~nz:6 ~lx:4e-5 ~ly:4e-5 ~lz:8e-5

let run_fempic ~runner steps =
  let sim =
    Fempic.Fempic_sim.create ~prm:fempic_prm ~profile:(Profile.create ()) ~runner (fempic_mesh ())
  in
  for _ = 1 to steps do
    ignore (Fempic.Fempic_sim.step sim)
  done;
  sim

let test_fempic_gpu_matches_seq () =
  (* AT-mode SIMT executes increments in launch order, which is the
     storage order: bitwise the sequential run *)
  let steps = 8 in
  let a = run_fempic ~runner:(Runner.seq ~profile:(Profile.create ()) ()) steps in
  let gpu = Opp_gpu.Gpu_runner.create ~profile:(Profile.create ()) Opp_perf.Device.v100 in
  let b = run_fempic ~runner:(Opp_gpu.Gpu_runner.runner gpu) steps in
  check_int "same population" a.Fempic.Fempic_sim.parts.s_size b.Fempic.Fempic_sim.parts.s_size;
  check_bool "phi bit-identical" true
    (a.Fempic.Fempic_sim.node_phi.d_data = b.Fempic.Fempic_sim.node_phi.d_data)

let suite =
  [
    Alcotest.test_case "window: in-window removal is exact" `Quick test_remove_in_window_exact;
    Alcotest.test_case "window: below-window removal clamps" `Quick
      test_remove_below_window_conservative;
    Alcotest.test_case "window: removing everything clears it" `Quick
      test_remove_all_clears_window;
    Alcotest.test_case "window: sort resets it" `Quick test_sort_resets_window;
    Alcotest.test_case "holes: filling allocates nothing per hole" `Quick
      test_remove_allocation_free;
    QCheck_alcotest.to_alcotest prop_sort_stable_permutation;
    Alcotest.test_case "realloc: Seq raises mid-loop" `Quick test_inject_inside_kernel_raises;
    Alcotest.test_case "realloc: sanitizer raises E080" `Quick test_checked_reports_e080;
    Alcotest.test_case "realloc: omp raises mid-loop" `Quick
      test_inject_inside_kernel_raises_omp;
    Alcotest.test_case "realloc: gpu SR raises mid-loop" `Quick
      test_inject_inside_kernel_raises_gpu_sr;
    Alcotest.test_case "pool: buffers reused across launches" `Quick test_scatter_pool_reuse;
    Alcotest.test_case "move: dynamic equals static bitwise" `Slow
      test_dynamic_move_matches_static;
    Alcotest.test_case "segmented: sorted-input fast path" `Quick
      test_segmented_sorted_fast_path;
    Alcotest.test_case "fempic: gpu (AT) matches seq bitwise" `Slow test_fempic_gpu_matches_seq;
  ]
