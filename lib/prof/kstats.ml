(** Kernel statistics recovered from a trace.

    [Runner] measures every [par_loop] / [particle_move] launch once:
    the same clock pair and the same [elems]/[flops]/[bytes] (flops
    IR-derived via {!Kernels}) become both the live ledger entry and
    the launch's span. Folding the kernel spans of a trace into an
    [Opp_core.Profile] therefore rebuilds the live ledger's kernel
    entries, and every report in [opp_perf] (runtime breakdown,
    roofline) works off-line from the artifact alone. *)

module Profile = Opp_core.Profile

let kernel_cats = [ "par_loop"; "particle_move" ]

let of_spans (spans : Prof_span.t list) =
  let t = Profile.create () in
  List.iter
    (fun (s : Prof_span.t) ->
      if List.mem s.s_cat kernel_cats then
        Profile.record ~t ~name:s.s_name
          ~elems:(int_of_float (Prof_span.arg0 s "elems"))
          ~seconds:(s.s_dur_us /. 1e6) ~flops:(Prof_span.arg0 s "flops")
          ~bytes:(Prof_span.arg0 s "bytes") ())
    spans;
  t

let total_dur_us t = Profile.total_seconds ~t () *. 1e6

(** One row per kernel, in first-launch order; [kind] is the span
    category ([par_loop] or [particle_move]). *)
let to_json (spans : Prof_span.t list) =
  let module J = Opp_obs.Json in
  let kind name =
    match List.find_opt (fun (s : Prof_span.t) -> s.s_name = name && List.mem s.s_cat kernel_cats) spans with
    | Some s -> s.s_cat
    | None -> ""
  in
  J.Arr
    (List.map
       (fun (name, (e : Profile.entry)) ->
         J.Obj
           [
             ("kernel", J.Str name);
             ("kind", J.Str (kind name));
             ("calls", J.Num (float_of_int e.calls));
             ("elems", J.Num (float_of_int e.elems));
             ("dur_us", J.Num (e.seconds *. 1e6));
             ("flops", J.Num e.flops);
             ("bytes", J.Num e.bytes);
           ])
       (Profile.entries ~t:(of_spans spans) ()))
