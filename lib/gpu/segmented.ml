(** Segmented reduction: the GPU data-race strategy of paper section
    3.3 (Figure 3), executed for real by the SIMT simulator.

    Increments are not applied directly; instead the three phases run
    explicitly: (1) [add] stores value/key pairs
    (store_values_and_keys), (2) [apply] sorts them by key
    (sort_by_key) and (3) reduces runs of equal keys before writing
    each target once (reduce_by_key). *)

type t = {
  mutable keys : int array;
  mutable values : float array;
  mutable len : int;
  mutable last_sorted : bool;
      (** the last [apply] found its keys already ascending and
          skipped the sort phase entirely — the case a population
          sorted by cell ([Opp_core.Particle.sort_by_cell]) produces,
          where the deposit stream arrives pre-sorted *)
}

let create ?(capacity = 1024) () =
  {
    keys = Array.make capacity 0;
    values = Array.make capacity 0.0;
    len = 0;
    last_sorted = false;
  }

let last_sorted t = t.last_sorted

let clear t = t.len <- 0
let length t = t.len

let ensure t n =
  if n > Array.length t.keys then begin
    let cap = ref (Array.length t.keys) in
    while !cap < n do
      cap := !cap * 2
    done;
    let nk = Array.make !cap 0 and nv = Array.make !cap 0.0 in
    Array.blit t.keys 0 nk 0 t.len;
    Array.blit t.values 0 nv 0 t.len;
    t.keys <- nk;
    t.values <- nv
  end

(** Phase 1: store a value and its target key. *)
let add t ~key ~value =
  ensure t (t.len + 1);
  t.keys.(t.len) <- key;
  t.values.(t.len) <- value;
  t.len <- t.len + 1

(** Phases 2+3: sort by key, reduce runs, and add each run's total
    into [target] at its key. Returns the number of distinct keys.
    The pair buffer is cleared. *)
let apply t (target : float array) =
  let n = t.len in
  if n = 0 then 0
  else begin
    (* O(n) pre-pass: a stream stored in ascending key order (what a
       population sorted by cell yields) needs no sort_by_key at all *)
    let sorted = ref true in
    (try
       for i = 1 to n - 1 do
         if t.keys.(i) < t.keys.(i - 1) then begin
           sorted := false;
           raise Exit
         end
       done
     with Exit -> ());
    t.last_sorted <- !sorted;
    let distinct = ref 0 in
    if !sorted then begin
      (* reduce_by_key straight off the store buffer *)
      let i = ref 0 in
      while !i < n do
        let key = t.keys.(!i) in
        let total = ref 0.0 in
        while !i < n && t.keys.(!i) = key do
          total := !total +. t.values.(!i);
          incr i
        done;
        target.(key) <- target.(key) +. !total;
        incr distinct
      done
    end
    else begin
      (* sort_by_key via an index permutation (stable not required:
         addition reordering is the accepted cost of this strategy) *)
      let order = Array.init n (fun i -> i) in
      Array.sort (fun a b -> compare t.keys.(a) t.keys.(b)) order;
      (* reduce_by_key *)
      let i = ref 0 in
      while !i < n do
        let key = t.keys.(order.(!i)) in
        let total = ref 0.0 in
        while !i < n && t.keys.(order.(!i)) = key do
          total := !total +. t.values.(order.(!i));
          incr i
        done;
        target.(key) <- target.(key) +. !total;
        incr distinct
      done
    end;
    clear t;
    !distinct
  end
