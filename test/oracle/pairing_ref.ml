(* The pairing tail as it stood before the CSR (DESIGN.md 5.2): result
   sets as [Tuple.Set]s, cl(w) and the inverted index as
   [Tuple.Hashtbl]s of int lists, split counts by list symmetric
   difference.  Frozen as the equivalence reference for the rank-based
   {!Pairing}. *)

open Wm_watermark

(* cl(w) through the canonical result sets themselves: each canonical
   index is listed under the elements of its W_a, so an active element
   costs one lookup instead of one membership test per canonical
   parameter.  Indexes are visited in descending order, so every list
   comes out ascending. *)
let classes qs ~canonical =
  let member = Tuple.Hashtbl.create 64 in
  List.iter
    (fun (i, a) ->
      Tuple.Set.iter
        (fun w ->
          let l = Option.value ~default:[] (Tuple.Hashtbl.find_opt member w) in
          Tuple.Hashtbl.replace member w (i :: l))
        (Query_system.result_set qs a))
    (List.rev (List.mapi (fun i a -> (i, a)) canonical));
  (* W as the fold of unions of the result sets, not the table's own *)
  let active =
    List.fold_left
      (fun acc a -> Tuple.Set.union acc (Query_system.result_set qs a))
      Tuple.Set.empty (Query_system.params qs)
  in
  List.map
    (fun w ->
      (w, Option.value ~default:[] (Tuple.Hashtbl.find_opt member w)))
    (Tuple.Set.elements active)

(* Greedy pairing inside each class group, in ascending order: walking
   the active elements in order, each one pairs with the pending element
   of its class if there is one, and is left pending otherwise — the
   consecutive pairs of each sorted group, with an odd group's last
   element dropped.  A pair is recorded at its first element's position,
   so the pairs come out sorted by [fst] with no sort. *)
let s_partition qs ~canonical =
  let cls = Array.of_list (classes qs ~canonical) in
  let partner = Array.make (Array.length cls) (-1) in
  let pending = Hashtbl.create 16 in
  Array.iteri
    (fun i (_, cl) ->
      match Hashtbl.find_opt pending cl with
      | Some j ->
          partner.(j) <- i;
          Hashtbl.remove pending cl
      | None -> Hashtbl.replace pending cl i)
    cls;
  let pairs = ref [] in
  for i = Array.length cls - 1 downto 0 do
    if partner.(i) >= 0 then
      pairs := { Pairing.fst = fst cls.(i); snd = fst cls.(partner.(i)) } :: !pairs
  done;
  !pairs

(* Inverted result-set index: for each active element, the ascending list
   of parameter indexes whose result set contains it.  A parameter's
   result set splits a pair iff it contains exactly one endpoint, so the
   parameters a pair touches are the symmetric difference of its
   endpoints' lists — O(result-set mass) once, then O(touches) per pair,
   instead of the O(pairs * params) full scan that made selection
   quadratic on large instances (the serving engine prepares
   million-element structures).  Parameters are visited in descending
   order, so each list is built ascending. *)
let inverted qs =
  let params = Array.of_list (Query_system.params qs) in
  let owner = Tuple.Hashtbl.create (2 * Array.length params) in
  for i = Array.length params - 1 downto 0 do
    Tuple.Set.iter
      (fun w ->
        let l = Option.value ~default:[] (Tuple.Hashtbl.find_opt owner w) in
        Tuple.Hashtbl.replace owner w (i :: l))
      (Query_system.result_set qs params.(i))
  done;
  let param_ixs w = Option.value ~default:[] (Tuple.Hashtbl.find_opt owner w) in
  (params, param_ixs)

let rec sym_diff (a : int list) b =
  match (a, b) with
  | [], r | r, [] -> r
  | x :: xs, y :: ys ->
      if x < y then x :: sym_diff xs b
      else if y < x then y :: sym_diff a ys
      else sym_diff xs ys

let split_counts qs pairs =
  let params, param_ixs = inverted qs in
  let split = Array.make (Array.length params) 0 in
  List.iter
    (fun { Pairing.fst; snd } ->
      List.iter
        (fun i -> split.(i) <- split.(i) + 1)
        (sym_diff (param_ixs fst) (param_ixs snd)))
    pairs;
  Array.to_list (Array.mapi (fun i a -> (a, split.(i))) params)

let max_split qs pairs =
  List.fold_left (fun acc (_, c) -> max acc c) 0 (split_counts qs pairs)

let select_random g qs pairs ~p ~budget =
  let chosen = List.filter (fun _ -> Prng.bernoulli g p) pairs in
  if max_split qs chosen <= budget then Some chosen else None

let select_greedy g qs pairs ~budget =
  let arr = Array.of_list pairs in
  (* the permutation a shuffle of [arr] would apply, drawn on indexes so
     the admitted pairs can be read back in input order *)
  let order = Array.init (Array.length arr) Fun.id in
  Prng.shuffle g order;
  (* Incremental split counts per parameter, maintained through the
     inverted index; admission order and outcome are identical to the
     full-scan formulation. *)
  let params, param_ixs = inverted qs in
  let split = Array.make (Array.length params) 0 in
  let admitted = Array.make (Array.length arr) false in
  Array.iter
    (fun k ->
      let pr = arr.(k) in
      let touches = sym_diff (param_ixs pr.Pairing.fst) (param_ixs pr.Pairing.snd) in
      if List.for_all (fun i -> split.(i) + 1 <= budget) touches then begin
        List.iter (fun i -> split.(i) <- split.(i) + 1) touches;
        admitted.(k) <- true
      end)
    order;
  (* [split] now holds the exact split counts of the chosen pairs, so
     their maximum is [max_split] of the result without a second index *)
  (List.filteri (fun k _ -> admitted.(k)) pairs, Array.fold_left max 0 split)
