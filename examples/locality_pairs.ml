(* The worked example of Section 3 (Figures 1-4), reproduced as tables.

   Six elements a..f with psi(u,v) = E(u,v): three neighborhood types at
   rho = 1; canonical parameters; classes cl(w); an S-partition; and the
   (+1,-1) pair-marking distortion table of Figure 3. *)

open Qpwm

let () =
  let ws = Paper_examples.figure1 in
  let g = ws.Weighted.graph in
  let q = Paper_examples.figure1_query in
  let name x = Structure.name_of g x in
  let qs = Query_system.of_relational g q in

  (* Figure 1: neighborhoods and types. *)
  let ix = Neighborhood.index g ~rho:1 (Query.all_params g q) in
  Format.printf "ntp(1, G) = %d neighborhood types@." (Neighborhood.ntp ix);
  let t1 = Texttab.create [ "u"; "type(u)"; "W_u" ] in
  List.iter
    (fun x ->
      let w_u =
        Query_system.result_set qs (Tuple.singleton x)
        |> Tuple.Set.elements
        |> List.map (fun t -> name t.(0))
        |> String.concat " "
      in
      Texttab.add_row t1
        [ name x; string_of_int (Neighborhood.type_of ix (Tuple.singleton x));
          w_u ])
    (Structure.universe g);
  Texttab.print ~title:"Figure 2: types and active weighted elements" t1;

  (* Figure 4: canonical parameters and classes. *)
  let canonical = Array.to_list ix.Neighborhood.representatives in
  Format.printf "@.canonical parameters S = {%s}@."
    (String.concat ", " (List.map (fun t -> name t.(0)) canonical));
  let pairing = Pairing.make qs ~canonical in
  let t2 = Texttab.create [ "w"; "cl(w)" ] in
  List.iter
    (fun (w, cl) ->
      Texttab.add_row t2
        [ name w.(0); String.concat "," (List.map string_of_int cl) ])
    (Pairing.classes pairing);
  Texttab.print ~title:"Figure 4: classes of active weighted elements" t2;

  (* The S-partition and the two markings of one message bit. *)
  let ranked = Pairing.s_partition pairing in
  let pairs = Pairing.to_pairs pairing ranked in
  Format.printf "@.S-partition pairs: %s@."
    (String.concat ", "
       (List.map
          (fun p -> Printf.sprintf "(%s,%s)" (name p.Pairing.fst.(0)) (name p.Pairing.snd.(0)))
          pairs));

  let show_marking title marks =
    let w' = Weighted.apply_marks ws.Weighted.weights marks in
    let t = Texttab.create [ "u"; "f before"; "f after"; "distortion" ] in
    List.iter
      (fun a ->
        let before = Query_system.f qs ws.Weighted.weights a in
        let after = Query_system.f qs w' a in
        Texttab.addf t "%s|%d|%d|%+d" (name a.(0)) before after (after - before))
      (Query_system.params qs);
    Texttab.print ~title t
  in
  (* Figure 3's marking: +1 on d, -1 on e. *)
  show_marking "Figure 3: mark (+1 on d, -1 on e)"
    [ (Tuple.singleton 3, 1); (Tuple.singleton 4, -1) ];
  show_marking "Pair marking from the S-partition, bit = 1"
    (Pairing.orientation_marks pairs (Codec.of_int ~bits:(List.length pairs) 1));
  Format.printf "@.max split over all parameters: %d (certifies |distortion| <= 1)@."
    (Pairing.max_split pairing ranked)
