type span = {
  sp_name : string;
  sp_cat : string;
  sp_track : int;
  sp_depth : int;
  sp_path : string;
  sp_ts_ns : int64;
  mutable sp_dur_ns : int64;
  mutable sp_args : (string * float) list;
}

type t = {
  mutable epoch_ns : int64;
  mutable completed : span list;  (** reversed *)
  mutable count : int;
  mutable track : int;
  stacks : (int, span list ref) Hashtbl.t;  (** open spans, per track *)
  track_names : (int, string) Hashtbl.t;
}

let enabled = ref false

let g =
  {
    epoch_ns = Clock.now_ns ();
    completed = [];
    count = 0;
    track = 0;
    stacks = Hashtbl.create 8;
    track_names = Hashtbl.create 8;
  }

let reset () =
  g.epoch_ns <- Clock.now_ns ();
  g.completed <- [];
  g.count <- 0;
  g.track <- 0;
  Hashtbl.reset g.stacks;
  Hashtbl.reset g.track_names

let enable () =
  if not !enabled then begin
    reset ();
    enabled := true
  end

let disable () = enabled := false
let set_track r = g.track <- r
let current_track () = g.track

let with_track r f =
  let saved = g.track in
  g.track <- r;
  Fun.protect ~finally:(fun () -> g.track <- saved) f

let name_track r name = Hashtbl.replace g.track_names r name

let stack_for r =
  match Hashtbl.find_opt g.stacks r with
  | Some st -> st
  | None ->
      let st = ref [] in
      Hashtbl.add g.stacks r st;
      st

let depth () = if !enabled then List.length !(stack_for g.track) else 0

let begin_span ?(cat = "") ?(args = []) ?at name =
  if !enabled then begin
    let st = stack_for g.track in
    let path =
      match !st with [] -> name | parent :: _ -> parent.sp_path ^ ";" ^ name
    in
    let sp =
      {
        sp_name = name;
        sp_cat = cat;
        sp_track = g.track;
        sp_depth = List.length !st;
        sp_path = path;
        sp_ts_ns = Int64.sub (match at with Some t -> t | None -> Clock.now_ns ()) g.epoch_ns;
        sp_dur_ns = 0L;
        sp_args = args;
      }
    in
    st := sp :: !st
  end

let close ?at sp extra_args =
  let t1 = match at with Some t -> t | None -> Clock.now_ns () in
  sp.sp_dur_ns <- Int64.sub (Int64.sub t1 g.epoch_ns) sp.sp_ts_ns;
  if extra_args <> [] then sp.sp_args <- sp.sp_args @ extra_args;
  g.completed <- sp :: g.completed;
  g.count <- g.count + 1

let end_span ?(args = []) ?at () =
  if !enabled then begin
    let st = stack_for g.track in
    match !st with
    | [] -> ()
    | sp :: rest ->
        st := rest;
        close ?at sp args
  end

(* Pop (and complete, with their duration so far) every span opened
   above depth [d] on the current track. The recovery path of the
   exception-safe wrappers: a kernel that raises between an imperative
   [begin_span]/[end_span] pair would otherwise leave its span open
   forever and every later span of the run would nest under it. *)
let unwind ?at d =
  if !enabled then begin
    let st = stack_for g.track in
    while List.length !st > max d 0 do
      match !st with
      | [] -> ()
      | sp :: rest ->
          st := rest;
          close ?at sp [ ("unwound", 1.0) ]
    done
  end

let with_span ?cat ?args name f =
  if not !enabled then f ()
  else begin
    let d0 = depth () in
    begin_span ?cat ?args name;
    (* unwind, not a bare [end_span]: if [f] leaks open spans (an
       imperative [begin_span] followed by a raise), popping one span
       would close the wrong one and corrupt nesting for the rest of
       the run *)
    Fun.protect ~finally:(fun () -> unwind d0) f
  end

let spans () = List.rev g.completed
let span_count () = g.count

(* --- Chrome trace-event export --- *)

let us_of_ns ns = Int64.to_float ns /. 1e3

let to_chrome_json () =
  let tracks = Hashtbl.create 8 in
  List.iter (fun sp -> Hashtbl.replace tracks sp.sp_track ()) g.completed;
  let track_meta =
    Hashtbl.fold (fun r () acc -> r :: acc) tracks []
    |> List.sort compare
    |> List.map (fun r ->
           let name =
             match Hashtbl.find_opt g.track_names r with
             | Some n -> n
             | None -> Printf.sprintf "rank %d" r
           in
           Json.Obj
             [
               ("ph", Json.Str "M");
               ("name", Json.Str "thread_name");
               ("pid", Json.Num 0.0);
               ("tid", Json.Num (float_of_int r));
               ("args", Json.Obj [ ("name", Json.Str name) ]);
             ])
  in
  let events =
    List.rev_map
      (fun sp ->
        let base =
          [
            ("ph", Json.Str "X");
            ("name", Json.Str sp.sp_name);
            ("cat", Json.Str (if sp.sp_cat = "" then "span" else sp.sp_cat));
            ("pid", Json.Num 0.0);
            ("tid", Json.Num (float_of_int sp.sp_track));
            ("ts", Json.Num (us_of_ns sp.sp_ts_ns));
            ("dur", Json.Num (us_of_ns sp.sp_dur_ns));
          ]
        in
        let fields =
          if sp.sp_args = [] then base
          else
            base
            @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) sp.sp_args)) ]
        in
        Json.Obj fields)
      g.completed
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (track_meta @ events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_chrome_json ())))

(* --- flamegraph-style text summary --- *)

type agg = { mutable a_calls : int; mutable a_total_ns : int64; mutable a_child_ns : int64 }

let summary fmt () =
  let by_path : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  let touch path =
    match Hashtbl.find_opt by_path path with
    | Some a -> a
    | None ->
        let a = { a_calls = 0; a_total_ns = 0L; a_child_ns = 0L } in
        Hashtbl.add by_path path a;
        a
  in
  List.iter
    (fun sp ->
      let a = touch sp.sp_path in
      a.a_calls <- a.a_calls + 1;
      a.a_total_ns <- Int64.add a.a_total_ns sp.sp_dur_ns;
      (* charge this span's time to its parent's child-total *)
      match String.rindex_opt sp.sp_path ';' with
      | Some i ->
          let parent = String.sub sp.sp_path 0 i in
          let pa = touch parent in
          pa.a_child_ns <- Int64.add pa.a_child_ns sp.sp_dur_ns
      | None -> ())
    g.completed;
  let rows = Hashtbl.fold (fun path a acc -> (path, a) :: acc) by_path [] in
  let rows = List.sort (fun (p1, _) (p2, _) -> compare p1 p2) rows in
  let ms ns = Int64.to_float ns /. 1e6 in
  Format.fprintf fmt "%-52s %8s %12s %12s@." "span path" "calls" "total(ms)" "self(ms)";
  List.iter
    (fun (path, a) ->
      let depth =
        String.fold_left (fun acc c -> if c = ';' then acc + 1 else acc) 0 path
      in
      let leaf =
        match String.rindex_opt path ';' with
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        | None -> path
      in
      let indented = String.make (2 * depth) ' ' ^ leaf in
      Format.fprintf fmt "%-52s %8d %12.3f %12.3f@." indented a.a_calls (ms a.a_total_ns)
        (ms (Int64.sub a.a_total_ns a.a_child_ns)))
    rows
