(* The 3-tier scenario from the introduction, end to end.

   A data owner sells a flight/route database to several data servers.
   Each server receives a copy watermarked with its identity.  One server
   leaks its copy; the owner, acting as an ordinary final user, queries the
   suspect website and identifies the leaker — without ever seeing the
   suspect's files. *)

open Qpwm

let () =
  let g = Prng.create 42 in
  let original = Random_struct.travel g ~travels:120 ~transports:300 in
  let query = Random_struct.travel_query in
  Format.printf "owner's database: %d tuples@."
    (Structure.tuples_count original.Weighted.graph);

  let options = { Local_scheme.default_options with rho = Some 1 } in
  let scheme =
    match Local_scheme.prepare ~options original query with
    | Ok s -> s
    | Error e -> failwith e
  in
  let r = Local_scheme.report scheme in
  Format.printf "capacity: %d bits (|W| = %d active transports)@."
    r.Local_scheme.pairs_selected r.Local_scheme.active;

  (* Give each server a copy carrying its id. *)
  let servers = [ "air-low.example"; "cheapfly.example"; "sky-mart.example";
                  "voyage-plus.example"; "trek-zone.example" ] in
  let bits = 4 in
  assert (Local_scheme.capacity scheme >= bits);
  let copies =
    List.mapi
      (fun i name ->
        let message = Codec.of_int ~bits i in
        (name, message, Local_scheme.mark scheme message original.Weighted.weights))
      servers
  in
  List.iter
    (fun (name, message, marked) ->
      let qs = Local_scheme.query_system scheme in
      Format.printf "  shipped to %-22s mark=%a  global distortion=%d@." name
        Bitvec.pp message
        (Distortion.global qs original.Weighted.weights marked))
    copies;

  (* Server #3 leaks.  The owner queries the pirate site. *)
  let _, _, leaked = List.nth copies 3 in
  let pirate_server = Query_system.server (Local_scheme.query_system scheme) leaked in
  let decoded =
    Local_scheme.detect scheme ~original:original.Weighted.weights
      ~server:pirate_server ~length:bits
  in
  let culprit = List.nth servers (Codec.to_int decoded) in
  Format.printf "@.pirate site decoded mark %a -> leaker is %s@." Bitvec.pp
    decoded culprit;
  assert (culprit = "voyage-plus.example");

  (* The same data re-sold with small perturbations still convicts when the
     mark is spread redundantly. *)
  let base = Local_scheme.carriers scheme in
  let times = Robust.redundancy_for base ~message_length:bits in
  let message = Codec.of_int ~bits 3 in
  let hardened = Robust.mark base ~times message original.Weighted.weights in
  let attacked =
    Adversary.apply (Prng.create 7)
      (Adversary.Random_flips { count = 10; amplitude = 1 })
      ~active:(Query_system.active (Local_scheme.query_system scheme))
      hardened
  in
  let decoded' =
    Robust.detect base ~times ~length:bits ~original:original.Weighted.weights
      ~suspect:attacked
  in
  Format.printf
    "after a 10-flip attack on a redundancy-%d copy: decoded %a -> %s@." times
    Bitvec.pp decoded'
    (if Bitvec.equal decoded' message then "still convicts" else "lost");
  assert (Bitvec.equal decoded' message)
