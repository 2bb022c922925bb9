type t =
  | Vertex of int
  | Union of t * t
  | Add_edges of int * int * t
  | Relabel of int * int * t

let rec width = function
  | Vertex l -> l + 1
  | Union (s, t) -> max (width s) (width t)
  | Add_edges (a, b, t) -> max (max a b + 1) (width t)
  | Relabel (a, b, t) -> max (max a b + 1) (width t)

let rec vertex_count = function
  | Vertex _ -> 1
  | Union (s, t) -> vertex_count s + vertex_count t
  | Add_edges (_, _, t) | Relabel (_, _, t) -> vertex_count t

let rec validate = function
  | Vertex l -> if l < 0 then Error "negative label" else Ok ()
  | Union (s, t) -> (
      match validate s with Ok () -> validate t | e -> e)
  | Add_edges (a, b, t) ->
      if a < 0 || b < 0 then Error "negative label"
      else if a = b then Error "eta requires distinct labels"
      else validate t
  | Relabel (a, b, t) ->
      if a < 0 || b < 0 then Error "negative label" else validate t

(* Evaluation: returns (vertices as (id, current label) list in leaf
   preorder, accumulated edge list); the counter threads leaf ids. *)
let eval term =
  let next = ref 0 in
  let rec go = function
    | Vertex l ->
        let id = !next in
        incr next;
        ([ (id, l) ], [])
    | Union (s, t) ->
        let vs, es = go s in
        let vt, et = go t in
        (vs @ vt, es @ et)
    | Add_edges (a, b, t) ->
        let vs, es = go t in
        let news =
          List.concat_map
            (fun (u, lu) ->
              if lu = a then
                List.filter_map
                  (fun (v, lv) -> if lv = b then Some (u, v) else None)
                  vs
              else [])
            vs
        in
        (vs, news @ es)
    | Relabel (a, b, t) ->
        let vs, es = go t in
        (List.map (fun (v, l) -> (v, if l = a then b else l)) vs, es)
  in
  let vs, es = go term in
  let n = List.length vs in
  let g = ref (Structure.create Schema.graph n) in
  List.iter
    (fun (u, v) -> g := Structure.add_pairs !g "E" [ (u, v); (v, u) ])
    es;
  !g

let clique n =
  if n < 1 then invalid_arg "Cw_term.clique";
  let rec go i acc =
    if i = n then acc
    else
      go (i + 1)
        (Relabel (1, 0, Add_edges (0, 1, Union (acc, Vertex 1))))
  in
  go 1 (Vertex 0)

let path n =
  if n < 1 then invalid_arg "Cw_term.path";
  (* Invariant: the rightmost vertex carries label 1, the rest 0. *)
  let rec go i acc =
    if i = n then acc
    else
      go (i + 1)
        (Relabel (2, 1, Relabel (1, 0, Add_edges (1, 2, Union (acc, Vertex 2)))))
  in
  go 1 (Vertex 1)

(* Trees have clique-width <= 3.  Invariant of [build v]: a term whose
   graph is the subtree rooted at v, with v labeled 1 and everything else
   labeled 0; children are attached one at a time through the scratch
   label 2.  Term leaves appear in preorder of the rooted tree, recorded
   in [visit]. *)
let of_tree_graph g =
  let n = Structure.size g in
  if n = 0 then None
  else begin
    let gf = Gaifman.of_structure g in
    let edge_count =
      Structure.fold_universe
        (fun v acc -> acc + Gaifman.degree gf v)
        g 0
      / 2
    in
    let comps = Gaifman.connected_components gf in
    if edge_count <> n - List.length comps then None (* a cycle somewhere *)
    else begin
      let visit = ref [] in
      let rec build parent v =
        visit := v :: !visit;
        let children =
          List.filter (fun c -> Some c <> parent) (Gaifman.neighbors gf v)
        in
        List.fold_left
          (fun acc c ->
            Relabel
              (2, 0, Add_edges (1, 2, Union (acc, Relabel (1, 2, build (Some v) c)))))
          (Vertex 1) children
      in
      let term =
        match comps with
        | [] -> assert false
        | first :: rest ->
            List.fold_left
              (fun acc comp -> Union (acc, Relabel (1, 0, build None (List.hd comp))))
              (Relabel (1, 0, build None (List.hd first)))
              rest
      in
      Some (term, Array.of_list (List.rev !visit))
    end
  end

let random g ~labels ~vertices =
  if labels < 2 then invalid_arg "Cw_term.random: need >= 2 labels";
  if vertices < 1 then invalid_arg "Cw_term.random: need >= 1 vertex";
  let pool =
    ref (List.init vertices (fun _ -> Vertex (Prng.int g labels)))
  in
  let pick () =
    let arr = Array.of_list !pool in
    let i = Prng.int g (Array.length arr) in
    pool := List.filteri (fun j _ -> j <> i) !pool;
    arr.(i)
  in
  while List.length !pool > 1 do
    let s = pick () in
    let t = pick () in
    let combined = Union (s, t) in
    let a = Prng.int g labels in
    let b = (a + 1 + Prng.int g (labels - 1)) mod labels in
    let combined = Add_edges (a, b, combined) in
    let combined =
      if Prng.bernoulli g 0.3 then
        Relabel (Prng.int g labels, Prng.int g labels, combined)
      else combined
    in
    pool := combined :: !pool
  done;
  List.hd !pool

let rec pp fmt = function
  | Vertex l -> Format.fprintf fmt "%d" l
  | Union (s, t) -> Format.fprintf fmt "(%a + %a)" pp s pp t
  | Add_edges (a, b, t) -> Format.fprintf fmt "eta[%d,%d](%a)" a b pp t
  | Relabel (a, b, t) -> Format.fprintf fmt "rho[%d->%d](%a)" a b pp t
