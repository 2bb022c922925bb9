let per_param qs w w' =
  List.map
    (fun a -> (a, Query_system.f qs w' a - Query_system.f qs w a))
    (Query_system.params qs)

let global qs w w' =
  List.fold_left (fun acc (_, d) -> max acc (abs d)) 0 (per_param qs w w')

let is_global ~d qs w w' = global qs w w' <= d

let of_marks qs marks =
  let delta = Tuple.Hashtbl.create 16 in
  List.iter
    (fun (t, d) ->
      let prev = Option.value ~default:0 (Tuple.Hashtbl.find_opt delta t) in
      Tuple.Hashtbl.replace delta t (prev + d))
    marks;
  List.fold_left
    (fun acc a ->
      let s =
        Tuple.Set.fold
          (fun b acc ->
            acc + Option.value ~default:0 (Tuple.Hashtbl.find_opt delta b))
          (Query_system.result_set qs a) 0
      in
      max acc (abs s))
    0 (Query_system.params qs)

type aggregate = Sum | Mean | Min | Max

let f_agg agg qs w a =
  let values =
    Tuple.Set.fold
      (fun b acc -> float_of_int (Weighted.get w b) :: acc)
      (Query_system.result_set qs a) []
  in
  match (agg, values) with
  | _, [] -> 0.
  | Sum, vs -> List.fold_left ( +. ) 0. vs
  | Mean, vs -> List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs)
  | Min, v :: vs -> List.fold_left min v vs
  | Max, v :: vs -> List.fold_left max v vs

let global_agg agg qs w w' =
  List.fold_left
    (fun acc a -> Float.max acc (Float.abs (f_agg agg qs w' a -. f_agg agg qs w a)))
    0. (Query_system.params qs)
