(* Observability: how many result sets were evaluated (every parameter's
   once, at construction, plus each ask on a non-parameter tuple) and the
   reach of edit-scoped refreshes. *)
module Obs = Wm_obs.Obs

let c_evals = Obs.counter "qs.evals"
let c_refreshes = Obs.counter "qs.refreshes"
let c_refresh_kept = Obs.counter "qs.refresh_kept"
let c_refresh_candidates = Obs.counter "qs.refresh_candidates"

(* The table.  Slot [i] holds parameter [params.(i)]; [slots] maps a
   parameter back to its slot.  W is [active], ascending, and row [i] —
   the ranks in W of W_[params.(i)]'s elements, ascending — is
   [ranks.(off.(i) .. off.(i+1)-1)]: the only copy of the result sets.
   Nothing is written after construction, so a value is shared across
   domains as it is. *)
type t = {
  params : Tuple.t array;
  slots : int Tuple.Hashtbl.t;
  result_fn : Tuple.t -> Tuple.Set.t;
  weight_arity : int;
  active : Tuple.t array;
  off : int array;
  ranks : int array;
}

(* Dense ranks of equal-length tuples in [Tuple.compare] order, and
   their count: a radix sort of the positions, one counting pass per
   coordinate from the last over the span of the (universe) elements. *)
let rank_tuples (ts : Tuple.t array) =
  let m = Array.length ts in
  let lo = Array.fold_left (Array.fold_left min) max_int ts in
  let span = Array.fold_left (Array.fold_left max) min_int ts - lo + 1 in
  let order = ref (Array.init m Fun.id) in
  for j = (if m = 0 then 0 else Array.length ts.(0)) - 1 downto 0 do
    let start = Array.make (span + 1) 0 and next = Array.make m 0 in
    let key e = ts.(e).(j) - lo in
    Array.iter (fun e -> start.(key e + 1) <- start.(key e + 1) + 1) !order;
    for d = 1 to span do
      start.(d) <- start.(d) + start.(d - 1)
    done;
    Array.iter
      (fun e ->
        next.(start.(key e)) <- e;
        start.(key e) <- start.(key e) + 1)
      !order;
    order := next
  done;
  let rank = Array.make m 0 and r = ref (-1) in
  Array.iteri
    (fun k e ->
      if k = 0 || not (Tuple.equal ts.(e) ts.(!order.(k - 1))) then incr r;
      rank.(e) <- !r)
    !order;
  (rank, !r + 1)

(* The one place W is computed: every W_a evaluated once, its elements
   laid side by side with the others' and ranked together.  Ranks
   preserve order, so each row of ranks ascends like its set, and the
   element of rank [r] is W's [r]-th.  The sets themselves are dropped. *)
let tabulate params ~set ~result_fn ~weight_arity =
  let params = Array.of_list params in
  let np = Array.length params in
  let sets = Array.map set params in
  let slots = Tuple.Hashtbl.create np in
  Array.iteri (fun i a -> Tuple.Hashtbl.replace slots a i) params;
  let off = Array.make (np + 1) 0 in
  Array.iteri (fun i s -> off.(i + 1) <- off.(i) + Tuple.Set.cardinal s) sets;
  let ent = Array.make off.(np) [||] in
  Array.iteri
    (fun i s -> ignore (Tuple.Set.fold (fun b k -> ent.(k) <- b; k + 1) s off.(i)))
    sets;
  let ranks, m = rank_tuples ent in
  let active = Array.make m [||] in
  Array.iteri (fun e r -> active.(r) <- ent.(e)) ranks;
  { params; slots; result_fn; weight_arity; active; off; ranks }

let of_custom ~params ~result_set ~weight_arity =
  Obs.add c_evals (List.length params);
  tabulate params ~set:result_set ~result_fn:result_set ~weight_arity

let of_relational g q =
  of_custom ~params:(Query.all_params g q) ~result_set:(Query.result_set g q)
    ~weight_arity:(Query.result_arity q)

(* One pass yields every W_a of a one-parameter, one-result query; the
   table keeps their rows, not the sets. *)
let of_tree tq tree =
  let module Tq = Wm_trees.Tree_query in
  let params = Tq.all_params tq tree and result_fn = Tq.result_set tq tree in
  let set =
    if Tq.k tq = 1 && Tq.s tq = 1 then
      let sets = Tq.result_sets tq tree in
      fun a -> sets.(a.(0))
    else result_fn
  in
  Obs.add c_evals (List.length params);
  tabulate params ~set ~result_fn ~weight_arity:(Tq.s tq)

let params t = Array.to_list t.params
let weight_arity t = t.weight_arity

(* [f] folded over row [i]'s elements from the greatest down. *)
let fold_row t i f acc =
  let acc = ref acc in
  for k = t.off.(i + 1) - 1 downto t.off.(i) do
    acc := f t.active.(t.ranks.(k)) !acc
  done;
  !acc

(* [f] folded over W_a from the greatest element down: a parameter's
   row, one evaluation on any other tuple. *)
let fold_result t a f acc =
  match Tuple.Hashtbl.find_opt t.slots a with
  | Some i -> fold_row t i f acc
  | None ->
      Obs.incr c_evals;
      Seq.fold_left (fun acc b -> f b acc) acc (Tuple.Set.to_rev_seq (t.result_fn a))

let result_set t a =
  match Tuple.Hashtbl.find_opt t.slots a with
  | Some i -> Tuple.Set.of_list (fold_row t i List.cons [])
  | None ->
      Obs.incr c_evals;
      t.result_fn a

let active t = Array.to_list t.active
let active_array t = t.active
let rows t = (t.off, t.ranks)

(* The rank of [b] in W, or -1 *)
let rank t b =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let c = Tuple.compare b t.active.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length t.active)

let ranks t a =
  match Tuple.Hashtbl.find_opt t.slots a with
  | Some i -> Array.sub t.ranks t.off.(i) (t.off.(i + 1) - t.off.(i))
  | None ->
      Obs.incr c_evals;
      Tuple.Set.to_seq (t.result_fn a)
      |> Seq.map (rank t)
      |> Seq.filter (fun r -> r >= 0)
      |> Array.of_seq

(* --- edit-scoped refresh --------------------------------------------- *)

let refresh t ~result_fn ~holds ~params ~size ~affected =
  Obs.incr c_refreshes;
  let in_a = Array.make (max size 1) false in
  List.iter (fun x -> if x >= 0 && x < size then in_a.(x) <- true) affected;
  let touched tup = Array.exists (fun x -> x >= size || in_a.(x)) tup in
  (* Result tuples whose membership may have flipped: those with an element
     in the affected region.  Everything else keeps its old verdict, by the
     same rho-locality the scheme's type index relies on.  They are drawn
     from the region itself: the tuple's first affected coordinate ranges
     over the region, the ones before it outside, the ones after it over
     the whole universe. *)
  let candidates =
    let region =
      List.sort_uniq compare
        (List.filter (fun x -> x >= 0 && x < size) affected)
    in
    let universe = lazy (List.init size Fun.id) in
    let outside =
      lazy (List.filter (fun x -> not in_a.(x)) (Lazy.force universe))
    in
    let rec tuples = function
      | [] -> [ [] ]
      | choices :: rest ->
          let tails = tuples rest in
          List.concat_map (fun x -> List.map (fun tl -> x :: tl) tails) choices
    in
    let r = t.weight_arity in
    List.concat_map
      (fun j ->
        List.map Tuple.of_list
          (tuples
             (List.init r (fun i ->
                  if i < j then Lazy.force outside
                  else if i = j then region
                  else Lazy.force universe))))
      (List.init r Fun.id)
  in
  Obs.add c_refresh_candidates (List.length candidates);
  (* A parameter that avoids the region keeps its row, patched: results
     touching the region are dropped, then [holds] re-asks every
     candidate.  The others are evaluated afresh. *)
  let set a =
    match Tuple.Hashtbl.find_opt t.slots a with
    | Some i when not (touched a) ->
        Obs.incr c_refresh_kept;
        let kept =
          fold_row t i
            (fun b acc -> if touched b then acc else Tuple.Set.add b acc)
            Tuple.Set.empty
        in
        List.fold_left
          (fun acc b -> if holds a b then Tuple.Set.add b acc else acc)
          kept candidates
    | _ ->
        Obs.incr c_evals;
        result_fn a
  in
  tabulate params ~set ~result_fn ~weight_arity:t.weight_arity

let refresh_relational t g q ~affected =
  let holds a b =
    let env = Eval.bind_all Eval.empty_env q.Query.params a in
    let env = Eval.bind_all env q.Query.results b in
    Eval.holds g env q.Query.phi
  in
  refresh t
    ~result_fn:(Query.result_set g q)
    ~holds
    ~params:(Query.all_params g q)
    ~size:(Structure.size g) ~affected

let f t w a = fold_result t a (fun b acc -> acc + Weighted.get w b) 0

type server = Tuple.t -> (Tuple.t * int) list

let server t w a = fold_result t a (fun b acc -> (b, Weighted.get w b) :: acc) []

let reconstruct t srv =
  Array.fold_left
    (fun acc a ->
      List.fold_left (fun acc (b, v) -> Tuple.Map.add b v acc) acc (srv a))
    Tuple.Map.empty t.params
