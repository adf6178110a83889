(* Mailbox test helpers: post plain payload rows, and read a delivered
   batch back as (destination cell, payload) pairs. *)

open Opp_core.Types

(* [payload] as the one particle of a one-dat particle set *)
let post mail ~src ~dest ~cell payload =
  let ctx = make_ctx () in
  let cells = decl_set ctx ~name:"cells" 1 in
  let parts = decl_particle_set ctx ~name:"parts" ~count:1 cells in
  let d = decl_dat ctx ~name:"payload" ~set:parts ~dim:(Array.length payload) (Some payload) in
  Opp_dist.Mailbox.post mail ~src ~dest ~cell [| d |] 0

let rows ~width batch =
  let acc = ref [] in
  Opp_dist.Mailbox.iter batch (fun buf off ->
      acc := (int_of_float buf.(off), Array.sub buf (off + 1) width) :: !acc);
  List.rev !acc
