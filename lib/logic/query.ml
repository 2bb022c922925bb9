type t = { phi : Fo.t; params : string list; results : string list }

let make ~params ~results phi =
  if results = [] then invalid_arg "Query.make: empty result vector";
  let module S = Set.Make (String) in
  let ps = S.of_list params and rs = S.of_list results in
  if S.cardinal ps <> List.length params then
    invalid_arg "Query.make: duplicate parameter variable";
  if S.cardinal rs <> List.length results then
    invalid_arg "Query.make: duplicate result variable";
  if not (S.is_empty (S.inter ps rs)) then
    invalid_arg "Query.make: parameter and result variables overlap";
  let free = S.of_list (Fo.free_vars phi) in
  if not (S.subset free (S.union ps rs)) then
    invalid_arg "Query.make: free variable neither parameter nor result";
  { phi; params; results }

let param_arity q = List.length q.params
let result_arity q = List.length q.results

let result_set g q a =
  let env = Eval.bind_all Eval.empty_env q.params a in
  Eval.satisfying g env q.results q.phi

let all_params g q = Neighborhood.all_tuples g ~arity:(param_arity q)

let weight_of w s = Tuple.Set.fold (fun b acc -> acc + Weighted.get w b) s 0

let f (ws : Weighted.structure) q a =
  weight_of ws.weights (result_set ws.graph q a)

let answer (ws : Weighted.structure) q a =
  Tuple.Set.fold
    (fun b acc -> (b, Weighted.get ws.weights b) :: acc)
    (result_set ws.graph q a) []
  |> List.rev

let tabulate g q = List.map (fun a -> (a, result_set g q a)) (all_params g q)

let pp fmt q =
  Format.fprintf fmt "psi(%s; %s) = %a"
    (String.concat "," q.params)
    (String.concat "," q.results)
    Fo.pp q.phi
