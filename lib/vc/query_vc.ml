type indexed = { fam : Setfam.t; index : Tuple.t array }

let of_result_sets results =
  let universe =
    List.fold_left Tuple.Set.union Tuple.Set.empty results
  in
  let index = Array.of_list (Tuple.Set.elements universe) in
  let pos = Tuple.Hashtbl.create (Array.length index) in
  Array.iteri (fun i t -> Tuple.Hashtbl.replace pos t i) index;
  let n = Array.length index in
  let to_bits s =
    let v = Bitvec.create n in
    Tuple.Set.iter (fun t -> Bitvec.set v (Tuple.Hashtbl.find pos t) true) s;
    v
  in
  { fam = Setfam.create ~universe:n (List.map to_bits results); index }

let of_query g q =
  of_result_sets (List.map snd (Query.tabulate g q))

let dimension_of_query g q = Vc.dimension (of_query g q).fam

let maximal_on g q =
  let ix = of_query g q in
  let all = List.init (Array.length ix.index) Fun.id in
  Vc.is_maximal ix.fam ~active:all
