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
  let active = Query_system.active_array qs and off, ranks = Query_system.rows qs in
  let worst = ref 0 in
  for i = 0 to Array.length off - 2 do
    let s = ref 0 in
    for k = off.(i) to off.(i + 1) - 1 do
      let d = Tuple.Hashtbl.find_opt delta active.(ranks.(k)) in
      s := !s + Option.value ~default:0 d
    done;
    worst := max !worst (abs !s)
  done;
  !worst

type aggregate = Sum | Mean | Min | Max

let f_agg agg qs w a =
  (* descending: the float sums below depend on this order *)
  let values =
    List.rev_map (fun (_, v) -> float_of_int v) (Query_system.server qs w a)
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
