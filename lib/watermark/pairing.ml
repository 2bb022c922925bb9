type pair = { fst : Tuple.t; snd : Tuple.t }

(* The query system's rows over active-element ranks, transposed: the
   parameters whose result set holds rank [r] are
   [inv.(inv_off.(r) .. inv_off.(r+1)-1)], ascending, and row [m] (one
   past the last rank) is empty.  A result set splits a pair iff it holds
   exactly one endpoint, so the parameters a pair touches are the
   symmetric difference of its endpoints' rows.  [cls.(r)] is cl(w) of
   rank [r]. *)
type t = {
  active : Tuple.t array;
  nparams : int;
  inv_off : int array;
  inv : int array;
  cls : int list array;
}

let make qs ~canonical =
  let active = Query_system.active_array qs in
  let off, ranks = Query_system.rows qs in
  let np = Array.length off - 1 and m = Array.length active in
  let inv_off = Array.make (m + 2) 0 in
  Array.iter (fun r -> inv_off.(r + 1) <- inv_off.(r + 1) + 1) ranks;
  for r = 1 to m + 1 do
    inv_off.(r) <- inv_off.(r) + inv_off.(r - 1)
  done;
  (* the transpose, filled parameter by parameter so every row ascends *)
  let inv = Array.make (Array.length ranks) 0 and fill = Array.sub inv_off 0 m in
  for i = 0 to np - 1 do
    for e = off.(i) to off.(i + 1) - 1 do
      inv.(fill.(ranks.(e))) <- i;
      fill.(ranks.(e)) <- fill.(ranks.(e)) + 1
    done
  done;
  (* cl(w), canonical indexes in descending order so every list ascends *)
  let cls = Array.make m [] in
  let canonical = Array.of_list canonical in
  for c = Array.length canonical - 1 downto 0 do
    Array.iter (fun r -> cls.(r) <- c :: cls.(r)) (Query_system.ranks qs canonical.(c))
  done;
  { active; nparams = np; inv_off; inv; cls }

let active t = t.active

let classes t = List.init (Array.length t.active) (fun r -> (t.active.(r), t.cls.(r)))

(* Greedy pairing inside each class group, in ascending order: walking
   the active elements in order, each one pairs with the pending element
   of its class if there is one, and is left pending otherwise — the
   consecutive pairs of each sorted group, with an odd group's last
   element dropped.  A pair is recorded at its first element's position,
   so the pairs come out sorted by their first rank with no sort. *)
let s_partition t =
  let m = Array.length t.active in
  let partner = Array.make m (-1) in
  let pending = Hashtbl.create 16 in
  Array.iteri
    (fun r cl ->
      match Hashtbl.find_opt pending cl with
      | Some q ->
          partner.(q) <- r;
          Hashtbl.remove pending cl
      | None -> Hashtbl.replace pending cl r)
    t.cls;
  Array.of_seq
    (Seq.filter_map
       (fun r -> if partner.(r) >= 0 then Some (r, partner.(r)) else None)
       (Seq.init m Fun.id))

let to_pairs t ranked =
  Array.to_list (Array.map (fun (a, b) -> { fst = t.active.(a); snd = t.active.(b) }) ranked)

(* The one orientation rule: bit [i] of the message orients pair [i],
   [f fst s] then [f snd (-s)] with [s] = +1 for a 1 and -1 for a 0.
   The pairs past the message are never visited, so a short message
   costs O(message). *)
let iter_orientation_marks pairs message f =
  let l = Bitvec.length message in
  if List.compare_length_with pairs l < 0 then
    invalid_arg "Pairing.orientation_marks: message longer than capacity";
  let rec go i = function
    | { fst; snd } :: rest when i < l ->
        let s = if Bitvec.get message i then 1 else -1 in
        f fst s;
        f snd (-s);
        go (i + 1) rest
    | _ -> ()
  in
  go 0 pairs

let orientation_marks pairs message =
  let marks = ref [] in
  iter_orientation_marks pairs message (fun t d -> marks := (t, d) :: !marks);
  List.rev !marks

(* [f] on each parameter that splits the pair of ranks [(a, b)],
   ascending, while it answers [true]; whether it always did.  Rank -1,
   outside W, reads the empty row [m]. *)
let for_all_split t (a, b) f =
  let m = Array.length t.active in
  let a = if a < 0 then m else a and b = if b < 0 then m else b in
  let i = ref t.inv_off.(a) and j = ref t.inv_off.(b) and ok = ref true in
  let ie = t.inv_off.(a + 1) and je = t.inv_off.(b + 1) in
  while !ok && (!i < ie || !j < je) do
    let x = if !i < ie then t.inv.(!i) else max_int in
    let y = if !j < je then t.inv.(!j) else max_int in
    if x <= y then incr i;
    if y <= x then incr j;
    if x <> y then ok := f (min x y)
  done;
  !ok

let count_split t split pr =
  ignore (for_all_split t pr (fun i -> split.(i) <- split.(i) + 1; true))

let split_counts t ranked =
  let split = Array.make t.nparams 0 in
  Array.iter (count_split t split) ranked;
  split

let max_split t ranked = Array.fold_left max 0 (split_counts t ranked)

let filteri f a =
  Array.of_seq (Seq.filter_map (fun (i, x) -> if f i x then Some x else None) (Array.to_seqi a))

let select_random g t ranked ~p ~budget =
  let chosen = filteri (fun _ _ -> Prng.bernoulli g p) ranked in
  if max_split t chosen <= budget then Some chosen else None

let select_greedy g t ranked ~budget =
  (* the permutation a shuffle of [ranked] would apply, drawn on indexes
     so the admitted pairs can be read back in input order *)
  let order = Array.init (Array.length ranked) Fun.id in
  Prng.shuffle g order;
  let split = Array.make t.nparams 0 in
  let admitted = Array.make (Array.length ranked) false in
  Array.iter
    (fun k ->
      if for_all_split t ranked.(k) (fun i -> split.(i) < budget) then begin
        count_split t split ranked.(k);
        admitted.(k) <- true
      end)
    order;
  (* [split] holds the chosen pairs' exact split counts *)
  (filteri (fun k _ -> admitted.(k)) ranked, Array.fold_left max 0 split)
