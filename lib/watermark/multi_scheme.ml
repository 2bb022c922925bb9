type options = {
  seed : int;
  rho : int option;
  epsilon : float;
  selection : [ `Greedy | `Random of int ];
}

let default_options =
  { seed = 0xC0FFEE; rho = None; epsilon = 1.0; selection = `Greedy }

type report = {
  queries : int;
  degree : int;
  rho : int list;
  ntp : int list;
  eta : int list;
  active : int;
  pairs_available : int;
  pairs_selected : int;
  budget : int;
  max_split : int;
}

type t = {
  systems : Query_system.t list;
  carriers : Carriers.t;
  rep : report;
  indexes : Neighborhood.index list;
  options : options;
}

(* Disjoint union of query systems, with the canonical parameters of each
   query's type index: parameters carry their query index as a leading
   component.  Result sets (hence active sets, split counts, distortion)
   are untouched — only parameter identity is enriched.  A union of one
   system is that system itself: no tag, no second table, so a one-query
   scheme pairs exactly as the paper's single-query construction does. *)
let tag i a = Tuple.concat (Tuple.singleton i) a

let canonical ix = Array.to_list ix.Neighborhood.representatives

let union systems indexes =
  match (systems, indexes) with
  | [ qs ], [ ix ] -> (qs, canonical ix)
  | _ ->
      let arr = Array.of_list systems in
      let tagged f l =
        List.concat (List.mapi (fun i x -> List.map (tag i) (f x)) l)
      in
      let combined =
        Query_system.of_custom
          ~params:(tagged Query_system.params systems)
          ~result_set:(fun tagged ->
            let i = tagged.(0) in
            let a = Array.sub tagged 1 (Array.length tagged - 1) in
            Query_system.result_set arr.(i) a)
          ~weight_arity:(Query_system.weight_arity arr.(0))
      in
      (combined, tagged canonical indexes)

(* Sum of the per-query counts N, saturating like each count does. *)
let count_bound g queries =
  List.fold_left
    (fun acc q ->
      let n = Locality.query_count_bound g q in
      if acc > max_int - n then max_int else acc + n)
    0 queries

(* The pairing/selection/report tail shared by [prepare] and [update]: a
   deterministic function of (options, queries, query systems, degree,
   indexes), so an incremental update that reproduces the same inputs
   reproduces the same scheme. *)
let assemble ~options ~g ~queries ~systems ~degree ~indexes =
  let combined, canonical = union systems indexes in
  let pairing = Pairing.make combined ~canonical in
  let active = Array.length (Pairing.active pairing) in
  if active = 0 then Error "query has no active weighted elements"
  else begin
    let all_pairs = Pairing.s_partition pairing in
    let budget = int_of_float (ceil (1.0 /. options.epsilon)) in
    let eta =
      List.map2
        (fun q ix -> Locality.eta q ~k:degree ~rho:ix.Neighborhood.rho)
        queries indexes
    in
    let selected, max_split =
      let g0 = Prng.create options.seed in
      match options.selection with
      | `Greedy -> Pairing.select_greedy g0 pairing all_pairs ~budget
      | `Random tries ->
          (* p = 1 / (eta (2N)^eps) with the largest per-query eta and N
             summed over the queries: the union's parameters are the
             disjoint union of the queries' parameters. *)
          let p =
            1.0
            /. (float_of_int (List.fold_left max 1 eta)
               *. (float_of_int (2 * count_bound g queries) ** options.epsilon))
          in
          let rec attempt i =
            if i = 0 then [||]
            else
              match Pairing.select_random g0 pairing all_pairs ~p ~budget with
              | Some pairs when pairs <> [||] -> pairs
              | _ -> attempt (i - 1)
          in
          let pairs = attempt tries in
          (pairs, Pairing.max_split pairing pairs)
    in
    if selected = [||] then Error "no pair survived eps-good selection"
    else
      let carriers = Carriers.make combined (Pairing.to_pairs pairing selected) in
      Ok
        {
          systems;
          carriers;
          indexes;
          options;
          rep =
            {
              queries = List.length queries;
              degree;
              rho = List.map (fun ix -> ix.Neighborhood.rho) indexes;
              ntp = List.map Neighborhood.ntp indexes;
              eta;
              active;
              pairs_available = Array.length all_pairs;
              pairs_selected = Carriers.capacity carriers;
              budget;
              max_split;
            };
        }
  end

(* [Error] unless every query has the weight arity and each optional
   per-query list has one entry per query. *)
let check (ws : Weighted.structure) queries lists =
  let k = List.length queries in
  if queries = [] then Error "no queries"
  else if List.exists (fun l -> l <> k) lists then
    Error "one query system and one index per query"
  else if
    List.exists
      (fun q -> Query.result_arity q <> Weighted.arity ws.Weighted.weights)
      queries
  then Error "result arity differs from weight arity"
  else Ok ()

let length_of = function None -> [] | Some l -> [ List.length l ]

let check_options options =
  (* the negated test also rejects NaN *)
  if not (options.epsilon > 0. && options.epsilon <= 1.) then
    Error "epsilon must lie in (0, 1]"
  else if Option.fold ~none:false ~some:(fun r -> r < 0) options.rho then
    Error "rho must be non-negative"
  else Ok ()

let prepare ?(options = default_options) ?qs ?gf ?ix (ws : Weighted.structure)
    queries =
  let g = ws.Weighted.graph in
  match
    Result.bind (check ws queries (length_of qs @ length_of ix)) (fun () ->
        check_options options)
  with
  | Error _ as e -> e
  | Ok () ->
      let systems =
        match qs with
        | Some qs -> qs
        | None -> List.map (Query_system.of_relational g) queries
      in
      let gf = match gf with Some gf -> gf | None -> Gaifman.of_structure g in
      let given =
        match ix with
        | Some ix -> List.map Option.some ix
        | None -> List.map (fun _ -> None) queries
      in
      let indexes =
        List.map2
          (fun (q, qs) ix ->
            let rho =
              match options.rho with
              | Some r -> r
              | None -> Locality.best_rank q.Query.phi
            in
            match ix with
            | Some ix when ix.Neighborhood.rho = rho -> ix
            | Some _ | None ->
                Neighborhood.index ~gf g ~rho (Query_system.params qs))
          (List.combine queries systems)
          given
      in
      assemble ~options ~g ~queries ~systems ~degree:(Gaifman.max_degree gf)
        ~indexes

let update ?qs t ~old ~old_gf (ws : Weighted.structure) ~gf queries ~dirty =
  let g = ws.Weighted.graph in
  if List.length queries <> List.length t.systems then
    Error "query list differs from the prepared one"
  else
    match check ws queries (length_of qs) with
    | Error _ as e -> e
    | Ok () ->
        let indexes =
          List.map
            (fun ix ->
              Neighborhood.reindex ~old:old.Weighted.graph ~old_gf g ~gf
                ~prev:ix ~dirty)
            t.indexes
        in
        let systems =
          match qs with
          | Some qs -> qs
          | None ->
              List.map2
                (fun (qs, ix) q ->
                  let affected =
                    Neighborhood.affected_elements ~old_gf ~gf
                      ~rho:ix.Neighborhood.rho ~dirty
                  in
                  Query_system.refresh_relational qs g q ~affected)
                (List.combine t.systems t.indexes)
                queries
        in
        assemble ~options:t.options ~g ~queries ~systems
          ~degree:(Gaifman.max_degree gf) ~indexes

let report t = t.rep
let carriers t = t.carriers
let capacity t = Carriers.capacity t.carriers
let pairs t = Carriers.pairs t.carriers
let query_system t = Carriers.query_system t.carriers
let indexes t = t.indexes
let mark t message w = Carriers.mark t.carriers message w

let detect t ~original ~server ~length =
  Carriers.detect t.carriers ~original ~server ~length

let detect_weights t ~original ~suspect ~length =
  Carriers.detect_weights t.carriers ~original ~suspect ~length

let distortion t w w' =
  List.mapi (fun i qs -> (i, Distortion.global qs w w')) t.systems
