type t = {
  label : int array;
  left : int array;
  right : int array;
  parent : int array;
  depth : int array;
  tin : int array;
  tout : int array;
  size_below : int array;  (* subtree sizes *)
  root : int;
  alphabet : string array;
  post : int array;
}

type spec = N of string * spec option * spec option

let leaf l = N (l, None, None)
let node1 l c = N (l, Some c, None)
let node l a b = N (l, Some a, Some b)

let rec spec_size (N (_, l, r)) =
  1
  + (match l with Some s -> spec_size s | None -> 0)
  + (match r with Some s -> spec_size s | None -> 0)

let rec spec_labels acc (N (lbl, l, r)) =
  let acc = lbl :: acc in
  let acc = match l with Some s -> spec_labels acc s | None -> acc in
  match r with Some s -> spec_labels acc s | None -> acc

let build alphabet spec =
  let lookup = Hashtbl.create 16 in
  Array.iteri (fun i a -> Hashtbl.replace lookup a i) alphabet;
  let n = spec_size spec in
  let label = Array.make n 0
  and left = Array.make n (-1)
  and right = Array.make n (-1)
  and parent = Array.make n (-1)
  and depth = Array.make n 0
  and tin = Array.make n 0
  and tout = Array.make n 0
  and size_below = Array.make n 1 in
  let next = ref 0 in
  let clock = ref 0 in
  let post_acc = ref [] in
  let rec go par dep (N (lbl, l, r)) =
    let id = !next in
    incr next;
    (match Hashtbl.find_opt lookup lbl with
    | Some li -> label.(id) <- li
    | None -> invalid_arg ("Btree: label not in alphabet: " ^ lbl));
    parent.(id) <- par;
    depth.(id) <- dep;
    tin.(id) <- !clock;
    incr clock;
    (match l with
    | Some s ->
        let c = go id (dep + 1) s in
        left.(id) <- c;
        size_below.(id) <- size_below.(id) + size_below.(c)
    | None -> ());
    (match r with
    | Some s ->
        let c = go id (dep + 1) s in
        right.(id) <- c;
        size_below.(id) <- size_below.(id) + size_below.(c)
    | None -> ());
    tout.(id) <- !clock;
    incr clock;
    post_acc := id :: !post_acc;
    id
  in
  let root = go (-1) 0 spec in
  {
    label;
    left;
    right;
    parent;
    depth;
    tin;
    tout;
    size_below;
    root;
    alphabet;
    post = Array.of_list (List.rev !post_acc);
  }

let of_spec spec =
  let labels = List.sort_uniq String.compare (spec_labels [] spec) in
  build (Array.of_list labels) spec

let of_spec_with_alphabet labels spec =
  let sorted = List.sort_uniq String.compare labels in
  if List.length sorted <> List.length labels then
    invalid_arg "Btree.of_spec_with_alphabet: duplicate label";
  build (Array.of_list labels) spec

let size t = Array.length t.label
let root t = t.root
let alphabet t = t.alphabet
let label t v = t.label.(v)
let label_name t v = t.alphabet.(t.label.(v))
let left t v = if t.left.(v) < 0 then None else Some t.left.(v)
let right t v = if t.right.(v) < 0 then None else Some t.right.(v)
let parent t v = if t.parent.(v) < 0 then None else Some t.parent.(v)
let depth t v = t.depth.(v)
let is_leaf t v = t.left.(v) < 0 && t.right.(v) < 0

let ancestor_or_equal t x y = t.tin.(x) <= t.tin.(y) && t.tout.(y) <= t.tout.(x)

let strictly_below t x y = x <> y && ancestor_or_equal t x y

let lca t x y =
  let rec go x y =
    if ancestor_or_equal t x y then x
    else go t.parent.(x) y
  in
  go x y

let postorder t = t.post

(* Preorder numbering makes every subtree an interval of ids. *)
let subtree_nodes t v = List.init t.size_below.(v) (fun i -> v + i)

let subtree_size t v = t.size_below.(v)

let nodes_with_label t name =
  let li = ref (-1) in
  Array.iteri (fun i a -> if a = name then li := i) t.alphabet;
  if !li < 0 then []
  else
    List.filter (fun v -> t.label.(v) = !li) (List.init (size t) Fun.id)

let to_structure t =
  let n = size t in
  let symbols =
    [
      { Schema.name = "S1"; arity = 2 };
      { Schema.name = "S2"; arity = 2 };
      { Schema.name = "Leq"; arity = 2 };
    ]
    @ Array.to_list
        (Array.map (fun a -> { Schema.name = a; arity = 1 }) t.alphabet)
  in
  let schema = Schema.make symbols in
  let g = ref (Structure.create schema n) in
  for v = 0 to n - 1 do
    if t.left.(v) >= 0 then g := Structure.add_tuple !g "S1" (Tuple.pair v t.left.(v));
    if t.right.(v) >= 0 then
      g := Structure.add_tuple !g "S2" (Tuple.pair v t.right.(v));
    g := Structure.add_tuple !g t.alphabet.(t.label.(v)) (Tuple.singleton v)
  done;
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      if ancestor_or_equal t x y then
        g := Structure.add_tuple !g "Leq" (Tuple.pair x y)
    done
  done;
  !g

let pp fmt t =
  let rec go v =
    Format.fprintf fmt "%s%s (%d)@,"
      (String.make (2 * t.depth.(v)) ' ')
      (label_name t v) v;
    (match left t v with Some c -> go c | None -> ());
    match right t v with Some c -> go c | None -> ()
  in
  Format.fprintf fmt "@[<v>";
  go t.root;
  Format.fprintf fmt "@]"
