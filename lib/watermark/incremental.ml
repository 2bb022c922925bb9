let propagate ~original ~marked ~updated =
  let support =
    List.sort_uniq Tuple.compare
      (Weighted.support original @ Weighted.support marked
     @ Weighted.support updated)
  in
  List.fold_left
    (fun w t ->
      let delta = Weighted.get marked t - Weighted.get original t in
      if delta = 0 then w else Weighted.add_delta w t delta)
    updated support

let type_set g ~rho ~arity =
  let gf = Gaifman.of_structure g in
  let ix = Neighborhood.index_universe ~gf g ~rho ~arity in
  Array.map
    (fun rep -> Neighborhood.of_tuple g gf ~rho rep)
    ix.Neighborhood.representatives

let type_preserving ~rho ~arity g1 g2 =
  let reps1 = type_set g1 ~rho ~arity and reps2 = type_set g2 ~rho ~arity in
  let covered a b =
    Array.for_all
      (fun (na : Neighborhood.nbh) ->
        Array.exists
          (fun (nb : Neighborhood.nbh) ->
            Iso.isomorphic na.sub na.center nb.sub nb.center)
          b)
      a
  in
  covered reps1 reps2 && covered reps2 reps1

let update_decision ~rho ~arity ~old_graph ~new_graph =
  if type_preserving ~rho ~arity old_graph new_graph then `Keep_mark
  else `Remark_required

(* Same dichotomy, from the indexes before and after an edit script and
   the Gaifman graphs both sides already hold.  A tuple none of whose
   elements the edits affected has the same neighborhood on both sides,
   so a representative of that kind pairs its class with the class it
   falls in on the other side by a lookup.  Only the classes left
   unpaired — those whose every representative was affected — are
   materialized, sphere-locally, and compared by isomorphism. *)
let type_preserving_ix ~old_graph ~old_gf ~(old_index : Neighborhood.index)
    ~new_graph ~gf ~(new_index : Neighborhood.index) ~dirty =
  if old_index.rho <> new_index.rho then
    invalid_arg "Incremental.type_preserving_ix: indexes disagree on rho";
  let rho = old_index.rho in
  let ntp1 = Neighborhood.ntp old_index and ntp2 = Neighborhood.ntp new_index in
  ntp1 = ntp2
  && begin
       let affected = Neighborhood.affected_elements ~old_gf ~gf ~rho ~dirty in
       let in_a = Hashtbl.create 64 in
       List.iter (fun x -> Hashtbl.replace in_a x ()) affected;
       let bound = min (Structure.size old_graph) (Structure.size new_graph) in
       let stable c =
         Array.for_all (fun x -> x < bound && not (Hashtbl.mem in_a x)) c
       in
       let m1 = Array.make ntp1 false and m2 = Array.make ntp2 false in
       let pair ty1 ty2 =
         m1.(ty1) <- true;
         m2.(ty2) <- true
       in
       Array.iteri
         (fun ty c ->
           if stable c then pair ty (Neighborhood.type_of new_index c))
         old_index.representatives;
       Array.iteri
         (fun ty c ->
           if stable c then pair (Neighborhood.type_of old_index c) ty)
         new_index.representatives;
       (* Classes are pairwise non-isomorphic on each side, so an unpaired
          class can only match an unpaired class of the other side, and
          equal counts with every old one matched is a bijection. *)
       let unpaired m g gf (ix : Neighborhood.index) =
         List.filter_map
           (fun ty ->
             if m.(ty) then None
             else Some (Neighborhood.of_tuple g gf ~rho ix.representatives.(ty)))
           (List.init (Array.length m) Fun.id)
       in
       let rest1 = unpaired m1 old_graph old_gf old_index
       and rest2 = unpaired m2 new_graph gf new_index in
       List.length rest1 = List.length rest2
       && List.for_all
            (fun (na : Neighborhood.nbh) ->
              List.exists
                (fun (nb : Neighborhood.nbh) ->
                  Iso.isomorphic na.sub na.center nb.sub nb.center)
                rest2)
            rest1
     end

let update_decision_ix ~old_graph ~old_gf ~old_index ~new_graph ~gf ~new_index
    ~dirty =
  if
    type_preserving_ix ~old_graph ~old_gf ~old_index ~new_graph ~gf ~new_index
      ~dirty
  then `Keep_mark
  else `Remark_required

let average a b =
  let support =
    List.sort_uniq Tuple.compare (Weighted.support a @ Weighted.support b)
  in
  List.fold_left
    (fun w t ->
      let va = Weighted.get a t and vb = Weighted.get b t in
      let avg = if (va + vb) mod 2 = 0 then (va + vb) / 2 else va in
      Weighted.set w t avg)
    (Weighted.create (Weighted.arity a))
    support

let average_many copies =
  match copies with
  | [] -> invalid_arg "Incremental.average_many: no copies"
  | [ single ] -> single
  | first :: _ ->
      let k = List.length copies in
      let support =
        List.sort_uniq Tuple.compare
          (List.concat_map Weighted.support copies)
      in
      List.fold_left
        (fun w t ->
          let sum = List.fold_left (fun s c -> s + Weighted.get c t) 0 copies in
          let lo = sum / k in
          let frac2 = 2 * (sum - (lo * k)) in
          let avg =
            if frac2 > k then lo + 1
            else if frac2 < k then lo
            else Weighted.get first t
          in
          Weighted.set w t avg)
        (Weighted.create (Weighted.arity first))
        support
