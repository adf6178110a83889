(** Particle lifecycle: injection, removal with hole filling, and
    sorting by cell.

    Removal uses the paper's hole-filling scheme (3.2.2): when particles
    leave the domain or are packed for communication, the holes they
    leave in the dats are filled by shifting live particles down from
    the end, keeping storage dense without a full sort. *)

open Types

(** Append [n] zero-initialised particles; returns the index of the
    first injected particle. Newly injected particles can be iterated
    with [Iterate_injected] until [reset_injected] is called. *)
let inject set n =
  if not (is_particle_set set) then invalid_arg "Particle.inject: not a particle set";
  if n < 0 then invalid_arg "Particle.inject: negative count";
  let start = set.s_size in
  ensure_capacity set (start + n);
  (* storage beyond s_size may hold stale values from removed particles *)
  List.iter
    (fun d -> Array.fill d.d_data (start * d.d_dim) (n * d.d_dim) 0.0)
    set.s_dats;
  List.iter
    (fun m -> Array.fill m.m_data (start * m.m_arity) (n * m.m_arity) (-1))
    set.s_maps_from;
  set.s_size <- start + n;
  set.s_exec_size <- set.s_size;
  set.s_injected <- set.s_injected + n;
  start

let reset_injected set = set.s_injected <- 0

(* Hole filling runs once per removed particle, so the copies walk the
   dat and map lists by direct recursion: a [List.iter] closure would
   allocate twice per filled hole. *)
let rec move_dats ~src ~dst = function
  | [] -> ()
  | d :: rest ->
      Array.blit d.d_data (src * d.d_dim) d.d_data (dst * d.d_dim) d.d_dim;
      move_dats ~src ~dst rest

let rec move_maps ~src ~dst = function
  | [] -> ()
  | m :: rest ->
      Array.blit m.m_data (src * m.m_arity) m.m_data (dst * m.m_arity) m.m_arity;
      move_maps ~src ~dst rest

(* Move particle [src] into slot [dst] across every dat and map. *)
let move_slot set ~src ~dst =
  if src <> dst then begin
    move_dats ~src ~dst set.s_dats;
    move_maps ~src ~dst set.s_maps_from
  end

(** Remove the particles whose index is flagged in [dead] (length >=
    current size) by filling holes from the tail. Returns the number
    removed. Slot order of survivors is not preserved.

    The injected window shrinks with the removals: hole filling only
    ever pulls particles downwards from the tail, so every slot at or
    above the old window start still holds a particle of the injected
    batch. [s_injected] is clamped to that suffix — exact when the
    removals are confined to the window (the migration pattern of the
    distributed drivers), conservative (an injected survivor pulled
    below the window leaves it) otherwise. *)
let remove_flagged set dead =
  if not (is_particle_set set) then invalid_arg "Particle.remove_flagged: not a particle set";
  let n = set.s_size in
  let window_start = n - set.s_injected in
  let last = ref (n - 1) in
  let removed = ref 0 in
  let i = ref 0 in
  while !i <= !last do
    if dead.(!i) then begin
      (* pull a live particle from the tail into this hole *)
      while !last > !i && dead.(!last) do
        decr last;
        incr removed
      done;
      if !last > !i then begin
        move_slot set ~src:!last ~dst:!i;
        decr last
      end;
      incr removed
    end;
    incr i
  done;
  set.s_size <- n - !removed;
  set.s_exec_size <- set.s_size;
  set.s_injected <- max 0 (set.s_size - window_start);
  !removed

(** Resize the particle population to exactly [n], preserving the slot
    order of survivors: grows by zero-injection, shrinks by removing
    the tail suffix (hole filling degenerates to a truncation, so no
    reordering happens). Clears the injected window. Used by the
    checkpoint restorers to shape a fresh population before blitting
    saved dats back in. *)
let resize set n =
  if n < 0 then invalid_arg "Particle.resize: negative count";
  let have = set.s_size in
  if n > have then ignore (inject set (n - have))
  else if n < have then begin
    let dead = Array.make have false in
    for p = n to have - 1 do
      dead.(p) <- true
    done;
    ignore (remove_flagged set dead)
  end;
  reset_injected set

(** Permute all particle storage so particles are ordered by ascending
    cell index in [p2c] (auxiliary sort API of the paper, used for the
    locality / coloring ablation). The sort is stable — ties are broken
    by the original slot index — so intra-cell particle order, and
    therefore non-associative INC accumulation order, is reproducible.
    Out-of-range cells sort last. The injected window is
    reset: the sort scatters the tail window across the population, so
    a subsequent [Iterate_injected] would visit arbitrary particles. *)
let sort_by_cell set ~(p2c : map) =
  if p2c.m_from != set then invalid_arg "Particle.sort_by_cell: p2c not on this set";
  let n = set.s_size in
  let cells = p2c.m_data in
  (* stable counting sort: cell indices are small, and a comparator
     sort pays a polymorphic-compare call per comparison *)
  let nc = match set.s_cells with Some c -> c.s_size | None -> 0 in
  let bucket c = if c >= 0 && c < nc then c else nc in
  let starts = Array.make (nc + 2) 0 in
  for i = 0 to n - 1 do
    let b = bucket cells.(i) in
    starts.(b + 1) <- starts.(b + 1) + 1
  done;
  for c = 0 to nc do
    starts.(c + 1) <- starts.(c + 1) + starts.(c)
  done;
  let perm = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    let b = bucket cells.(i) in
    perm.(starts.(b)) <- i;
    starts.(b) <- starts.(b) + 1
  done;
  (* gather via direct indexing: a per-element [Array.blit] of 1-4
     entries costs a C call each, which dominates the whole sort *)
  let apply_f d =
    let dim = d.d_dim in
    let data = d.d_data in
    let tmp = Array.make (n * dim) 0.0 in
    if dim = 1 then
      for i = 0 to n - 1 do
        tmp.(i) <- data.(perm.(i))
      done
    else
      for i = 0 to n - 1 do
        let src = perm.(i) * dim and dst = i * dim in
        for k = 0 to dim - 1 do
          tmp.(dst + k) <- data.(src + k)
        done
      done;
    Array.blit tmp 0 data 0 (n * dim)
  in
  let apply_m m =
    let ar = m.m_arity in
    let data = m.m_data in
    let tmp = Array.make (n * ar) (-1) in
    if ar = 1 then
      for i = 0 to n - 1 do
        tmp.(i) <- data.(perm.(i))
      done
    else
      for i = 0 to n - 1 do
        let src = perm.(i) * ar and dst = i * ar in
        for k = 0 to ar - 1 do
          tmp.(dst + k) <- data.(src + k)
        done
      done;
    Array.blit tmp 0 data 0 (n * ar)
  in
  List.iter apply_f set.s_dats;
  List.iter apply_m set.s_maps_from;
  reset_injected set

(** Number of particles currently residing in each cell, from [p2c]. *)
let per_cell_counts set ~(p2c : map) =
  let cells = match set.s_cells with Some c -> c | None -> invalid_arg "per_cell_counts" in
  let counts = Array.make cells.s_size 0 in
  for i = 0 to set.s_size - 1 do
    let c = p2c.m_data.(i) in
    if c >= 0 && c < cells.s_size then counts.(c) <- counts.(c) + 1
  done;
  counts
