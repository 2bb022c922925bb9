type t = { auto : Dta.t; alpha : Alphabet.t; k : int; s : int }

let make auto ~alpha ~k ~s =
  if k < 0 || s < 1 then invalid_arg "Tree_query.make: bad arities";
  if alpha.Alphabet.bits < k + s then
    invalid_arg "Tree_query.make: alphabet has too few pebble bits";
  if Dta.nlabels auto <> Alphabet.size alpha then
    invalid_arg "Tree_query.make: automaton/alphabet mismatch";
  { auto; alpha; k; s }

let of_compiled (c : Mso_compile.t) ~params ~results =
  let order = params @ results in
  let declared = List.map fst c.free_bits in
  if List.sort compare order <> List.sort compare declared then
    invalid_arg "Tree_query.of_compiled: params+results <> free variables";
  (* Bits were assigned in the order [free] was given to [compile]; require
     that order to be params then results so bit layout matches. *)
  if order <> declared then
    invalid_arg
      "Tree_query.of_compiled: compile with ~free:(params @ results)";
  make c.auto ~alpha:c.alpha ~k:(List.length params) ~s:(List.length results)

let k t = t.k
let s t = t.s
let automaton t = t.auto
let alpha t = t.alpha

let pebbles t a b =
  List.mapi (fun i node -> (i, node)) (Array.to_list a)
  @ List.mapi (fun i node -> (t.k + i, node)) (Array.to_list b)

let member t tree a b =
  assert (Tuple.arity a = t.k && Tuple.arity b = t.s);
  Dta.accepts t.auto tree
    ~label_of:(Alphabet.labeler t.alpha tree (pebbles t a b))

let rec tuples_over n arity =
  if arity = 0 then [ [] ]
  else
    List.concat_map
      (fun rest -> List.init n (fun x -> x :: rest))
      (tuples_over n (arity - 1))

(* Every result set of a query with k = s = 1 comes out of one pass over
   the tree (the linear-time MSO evaluation of Flum-Frick-Grohe).  Split
   each pair (a, b) at w = lca(a, b): above w no pebble lies, so the
   pebble-free context table [acc0] decides acceptance once the state at w
   is known.  Bottom-up, each node has its pebble-free state [q0], and
   [cnt(v, s)] counts the result pebbles b below v (or at v) that, placed
   alone, give v the state s: the nonempty (v, s) are the "classes" whose
   members are enumerated on demand.  Then
     W_a = {a, if accepted with both pebbles there}
         u the classes below a accepted at a with a's pebble
         u Out(a, state at a with only a's pebble),
   where Out(c, s) — the results outside subtree(c) for a parameter below
   c giving c the state s — is memoized per (node, state) and built at c's
   parent u from b = u, the accepted classes of c's sibling and
   Out(u, ...), so every parameter below c with the same state shares it. *)
type pass = {
  tree : Btree.t;
  auto : Dta.t;
  m : int;
  letter : int -> int -> int;  (* [letter v mask]: mask 1 = a, 2 = b *)
  q0 : int array;
  acc0 : bool array;  (* [v * m + q] *)
  cnt : int array;  (* [v * m + s] *)
  members : (int, Tuple.Set.t) Hashtbl.t;  (* class [v * m + s] *)
  out : (int, Tuple.Set.t) Hashtbl.t;  (* [c * m + s] *)
}

(* A node's children and their pebble-free states ([-1] = absent). *)
let kids p v =
  let state = function Some c -> p.q0.(c) | None -> -1 in
  let l = Btree.left p.tree v and r = Btree.right p.tree v in
  (l, r, state l, state r)

let prepare_pass (t : t) tree =
  let n = Btree.size tree and m = Dta.nstates t.auto in
  let delta = Dta.delta t.auto in
  let letter v mask = Alphabet.encode t.alpha ~base:(Btree.label tree v) ~mask in
  let p =
    {
      tree;
      auto = t.auto;
      m;
      letter;
      q0 = Array.make n (-1);
      acc0 = Array.make (n * m) false;
      cnt = Array.make (n * m) 0;
      members = Hashtbl.create 64;
      out = Hashtbl.create 64;
    }
  in
  Array.iter
    (fun v ->
      let l, r, ql, qr = kids p v in
      let lab = letter v 0 in
      p.q0.(v) <- delta ql qr lab;
      let add i k = p.cnt.((v * m) + i) <- p.cnt.((v * m) + i) + k in
      add (delta ql qr (letter v 2)) 1;
      let lift c f =
        Option.iter
          (fun c -> for s = 0 to m - 1 do add (f s) p.cnt.((c * m) + s) done)
          c
      in
      lift l (fun s -> delta s qr lab);
      lift r (fun s -> delta ql s lab))
    (Btree.postorder tree);
  for q = 0 to m - 1 do
    p.acc0.((Btree.root tree * m) + q) <- Dta.is_final t.auto q
  done;
  (* Preorder: parents before children. *)
  for v = 0 to n - 1 do
    let l, r, ql, qr = kids p v in
    let lab = letter v 0 in
    let down c f =
      Option.iter
        (fun c ->
          for q = 0 to m - 1 do
            p.acc0.((c * m) + q) <- p.acc0.((v * m) + f q)
          done)
        c
    in
    down l (fun q -> delta q qr lab);
    down r (fun q -> delta ql q lab)
  done;
  p

let accepted p v q = p.acc0.((v * p.m) + q)

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some set -> set
  | None ->
      let set = f () in
      Hashtbl.replace tbl key set;
      set

(* [set] plus the members of the nonempty classes (c, t) with [keep t]. *)
let rec classes p c ~keep set =
  match c with
  | None -> set
  | Some c ->
      let acc = ref set in
      for t = 0 to p.m - 1 do
        if p.cnt.((c * p.m) + t) > 0 && keep t then
          acc := Tuple.Set.union !acc (members p c t)
      done;
      !acc

(* Results b in subtree(v) whose state at v, with only b pebbled, is s. *)
and members p v s =
  memo p.members ((v * p.m) + s) @@ fun () ->
  let delta = Dta.delta p.auto in
  let l, r, ql, qr = kids p v and lab = p.letter v 0 in
  let own =
    if delta ql qr (p.letter v 2) = s then Tuple.Set.singleton (Tuple.singleton v)
    else Tuple.Set.empty
  in
  classes p l ~keep:(fun t -> delta t qr lab = s) own
  |> classes p r ~keep:(fun t -> delta ql t lab = s)

let rec out p c s =
  match Btree.parent p.tree c with
  | None -> Tuple.Set.empty
  | Some u ->
      memo p.out ((c * p.m) + s) @@ fun () ->
      let delta = Dta.delta p.auto in
      let l, r, ql, qr = kids p u in
      let sib, at =
        if l = Some c then (r, fun x lab -> delta s x lab)
        else (l, fun x lab -> delta x s lab)
      in
      let qs = if l = Some c then qr else ql and lab = p.letter u 0 in
      let above = out p u (at qs lab) in
      let set =
        if accepted p u (at qs (p.letter u 2)) then
          Tuple.Set.add (Tuple.singleton u) above
        else above
      in
      classes p sib ~keep:(fun t -> accepted p u (at t lab)) set

let results_of p a =
  let delta = Dta.delta p.auto in
  let l, r, ql, qr = kids p a and lab = p.letter a 1 in
  let set = out p a (delta ql qr lab) in
  let set =
    if accepted p a (delta ql qr (p.letter a 3)) then
      Tuple.Set.add (Tuple.singleton a) set
    else set
  in
  classes p l ~keep:(fun t -> accepted p a (delta t qr lab)) set
  |> classes p r ~keep:(fun t -> accepted p a (delta ql t lab))

let result_sets (t : t) tree =
  if t.k <> 1 || t.s <> 1 then
    invalid_arg "Tree_query.result_sets: needs one parameter and one result";
  let p = prepare_pass t tree in
  Array.init (Btree.size tree) (results_of p)

let result_set (t : t) tree a =
  assert (Tuple.arity a = t.k);
  if t.k = 1 && t.s = 1 then results_of (prepare_pass t tree) a.(0)
  else
    let n = Btree.size tree in
    List.fold_left
      (fun acc b ->
        let b = Tuple.of_list b in
        if member t tree a b then Tuple.Set.add b acc else acc)
      Tuple.Set.empty (tuples_over n t.s)

let all_params (t : t) tree =
  List.map Tuple.of_list (tuples_over (Btree.size tree) t.k)

let f t tree ~weights a =
  Tuple.Set.fold
    (fun b acc -> acc + Weighted.get weights b)
    (result_set t tree a) 0

let answer t tree ~weights a =
  Tuple.Set.fold
    (fun b acc -> (b, Weighted.get weights b) :: acc)
    (result_set t tree a) []
  |> List.rev
