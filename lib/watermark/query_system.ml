(* Observability: the memoization behavior of [result_set] (frozen-map
   hits vs. mutex-guarded cache hits vs. full evaluations) and the reach
   of edit-scoped refreshes. *)
module Obs = Wm_obs.Obs

let c_frozen_hits = Obs.counter "qs.frozen_hits"
let c_cache_hits = Obs.counter "qs.cache_hits"
let c_misses = Obs.counter "qs.misses"
let c_refreshes = Obs.counter "qs.refreshes"
let c_refresh_kept = Obs.counter "qs.refresh_kept"
let c_refresh_candidates = Obs.counter "qs.refresh_candidates"

type t = {
  params : Tuple.t list;
  result_fn : Tuple.t -> Tuple.Set.t;
  weight_arity : int;
  mutable frozen : Tuple.Set.t Tuple.Map.t;
      (* lock-free read path: written only by [precompute]/[refresh] before
         the value is shared across domains *)
  cache : Tuple.Set.t Tuple.Hashtbl.t; (* guarded by [lock] *)
  lock : Mutex.t;
  mutable active : Tuple.Set.t option;
}

let make params result_fn weight_arity =
  {
    params;
    result_fn;
    weight_arity;
    frozen = Tuple.Map.empty;
    cache = Tuple.Hashtbl.create (List.length params);
    lock = Mutex.create ();
    active = None;
  }

let of_relational g q =
  make (Query.all_params g q) (Query.result_set g q) (Query.result_arity q)

let of_tree tq tree =
  let module Tq = Wm_trees.Tree_query in
  let result_fn =
    if Tq.k tq = 1 && Tq.s tq = 1 then
      let sets = Tq.result_sets tq tree in
      fun a -> sets.(a.(0))
    else Tq.result_set tq tree
  in
  make (Tq.all_params tq tree) result_fn (Tq.s tq)

let of_custom ~params ~result_set ~weight_arity =
  make params result_set weight_arity

let params t = t.params
let weight_arity t = t.weight_arity

let result_set t a =
  match Tuple.Map.find_opt a t.frozen with
  | Some s ->
      Obs.incr c_frozen_hits;
      s
  | None -> (
      Mutex.lock t.lock;
      match Tuple.Hashtbl.find_opt t.cache a with
      | Some s ->
          Mutex.unlock t.lock;
          Obs.incr c_cache_hits;
          s
      | None ->
          (* Evaluate outside the lock: [result_fn] is deterministic, so a
             racing domain computing the same miss stores the same set and
             either store may win. *)
          Mutex.unlock t.lock;
          Obs.incr c_misses;
          let s = t.result_fn a in
          Mutex.lock t.lock;
          Tuple.Hashtbl.replace t.cache a s;
          Mutex.unlock t.lock;
          s)

let active_set t =
  match t.active with
  | Some s -> s
  | None ->
      (* Balanced unions: folding one result set at a time into a growing
         set pays a path copy per element even when, as for singleton or
         disjoint ascending result sets, halves join in logarithmic time. *)
      let sets = Array.of_list (List.map (result_set t) t.params) in
      let rec union lo hi =
        if hi - lo = 0 then Tuple.Set.empty
        else if hi - lo = 1 then sets.(lo)
        else
          let mid = (lo + hi) / 2 in
          Tuple.Set.union (union lo mid) (union mid hi)
      in
      let s = union 0 (Array.length sets) in
      t.active <- Some s;
      s

let active t = Tuple.Set.elements (active_set t)

let precompute t =
  (* Promote every param's result set into the frozen map and materialize
     the active set.  After this, [result_set] on a param never touches the
     hashtable; only misses on non-param tuples do, and those go through
     [lock]. *)
  t.frozen <-
    List.fold_left
      (fun m a -> Tuple.Map.add a (result_set t a) m)
      t.frozen t.params;
  ignore (active_set t)

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
  let patch a s =
    let kept = Tuple.Set.filter (fun b -> not (touched b)) s in
    List.fold_left
      (fun acc b -> if holds a b then Tuple.Set.add b acc else acc)
      kept candidates
  in
  Obs.add c_refresh_candidates (List.length candidates);
  let survivors = ref Tuple.Map.empty in
  let add a s =
    if (not (touched a)) && not (Tuple.Map.mem a !survivors) then
      survivors := Tuple.Map.add a (patch a s) !survivors
  in
  Tuple.Map.iter add t.frozen;
  Mutex.lock t.lock;
  Tuple.Hashtbl.iter add t.cache;
  Mutex.unlock t.lock;
  Obs.add c_refresh_kept (Tuple.Map.cardinal !survivors);
  {
    params;
    result_fn;
    weight_arity = t.weight_arity;
    frozen = !survivors;
    cache = Tuple.Hashtbl.create (List.length params);
    lock = Mutex.create ();
    active = None;
  }

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

let f t w a =
  Tuple.Set.fold (fun b acc -> acc + Weighted.get w b) (result_set t a) 0

type server = Tuple.t -> (Tuple.t * int) list

let server t w a =
  Tuple.Set.fold (fun b acc -> (b, Weighted.get w b) :: acc) (result_set t a) []
  |> List.rev

let reconstruct_some _t srv params =
  List.fold_left
    (fun acc a ->
      List.fold_left (fun acc (b, v) -> Tuple.Map.add b v acc) acc (srv a))
    Tuple.Map.empty params

let reconstruct t srv = reconstruct_some t srv t.params
