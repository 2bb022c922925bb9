(* Tests for Wm_cliquewidth: the Theorem 4 substrate.  The load-bearing
   property is the correspondence psi(G) = psi~(T): adjacency decided by the
   hand-built parse-tree automaton must equal adjacency in the evaluated
   graph, on classic families and on random bounded-clique-width terms. *)

open Wm_cliquewidth
open Wm_watermark

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let list = Alcotest.list
let _ = (int, bool, fun x -> list x)

let edges_of g =
  let gf = Gaifman.of_structure g in
  List.concat_map
    (fun u -> List.map (fun v -> (u, v)) (Gaifman.neighbors gf u))
    (Structure.universe g)

let test_term_basics () =
  let t = Cw_term.clique 4 in
  check int "width 2" 2 (Cw_term.width t);
  check int "4 vertices" 4 (Cw_term.vertex_count t);
  check bool "valid" true (Cw_term.validate t = Ok ());
  check bool "eta same label invalid" true
    (Cw_term.validate (Cw_term.Add_edges (1, 1, Cw_term.Vertex 0)) <> Ok ())

let test_clique_eval () =
  let g = Cw_term.eval (Cw_term.clique 5) in
  check int "5 vertices" 5 (Structure.size g);
  let gf = Gaifman.of_structure g in
  List.iter
    (fun v -> check int "degree 4" 4 (Gaifman.degree gf v))
    (Structure.universe g)

let test_path_eval () =
  let g = Cw_term.eval (Cw_term.path 6) in
  check int "6 vertices" 6 (Structure.size g);
  let gf = Gaifman.of_structure g in
  let degrees = List.sort compare (List.map (Gaifman.degree gf) (Structure.universe g)) in
  check (list int) "path degrees" [ 1; 1; 2; 2; 2; 2 ] degrees;
  (* connected *)
  check int "one component" 1 (List.length (Gaifman.connected_components gf))

let test_parse_tree_shape () =
  let labels = 2 in
  let tree = Cw_parse.to_tree ~labels (Cw_term.clique 3) in
  let nodes = Cw_parse.vertex_nodes tree in
  check int "3 vertex leaves" 3 (Array.length nodes);
  Array.iter
    (fun v -> check bool "leaf" true (Wm_trees.Btree.is_leaf tree v))
    nodes

let test_weights_transport () =
  let labels = 2 in
  let term = Cw_term.clique 4 in
  let tree = Cw_parse.to_tree ~labels term in
  let w = Weighted.of_list 1 (List.init 4 (fun i -> (Tuple.singleton i, 10 * i))) in
  let tw = Cw_parse.vertex_weights tree w in
  let back = Cw_parse.weights_to_graph tree tw in
  List.iter
    (fun i -> check int "roundtrip" (10 * i) (Weighted.get_elt back i))
    [ 0; 1; 2; 3 ]

let adjacency_matches term labels =
  let g = Cw_term.eval term in
  let gf = Gaifman.of_structure g in
  List.for_all
    (fun u ->
      Cw_adjacency.neighbors_via_tree ~labels term u = Gaifman.neighbors gf u)
    (Structure.universe g)

let test_adjacency_clique () =
  check bool "K4" true (adjacency_matches (Cw_term.clique 4) 2)

let test_adjacency_path () =
  check bool "P7" true (adjacency_matches (Cw_term.path 7) 3)

let test_adjacency_relabel_chain () =
  (* Relabeling between the eta and the leaves must be tracked. *)
  let open Cw_term in
  let term =
    Add_edges (0, 2, Relabel (1, 2, Union (Vertex 0, Vertex 1)))
  in
  check bool "relabel then connect" true (adjacency_matches term 3);
  let g = eval term in
  check bool "edge exists" true
    (Relation.mem (Tuple.pair 0 1) (Structure.relation g "E"))

let test_adjacency_automaton_size () =
  let auto, _ = Cw_adjacency.automaton ~labels:3 in
  (* 2 (k+1)^2 + 1 = 33 states for k = 3: degree-independent. *)
  check int "states" 33 (Wm_trees.Dta.nstates auto)

let test_theorem4_scheme_on_clique () =
  (* Cliques: clique-width 2, degree n-1.  Theorem 4 watermarks them via
     the parse tree with certified distortion 1 on the adjacency query. *)
  let labels = 2 in
  let n = 40 in
  let term = Cw_term.clique n in
  let tree = Cw_parse.to_tree ~labels term in
  let q = Cw_adjacency.query ~labels in
  match Tree_scheme.prepare tree q with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      check bool "capacity >= 1" true (Tree_scheme.capacity scheme >= 1);
      let graph_w =
        Weighted.of_list 1 (List.init n (fun i -> (Tuple.singleton i, 100 + i)))
      in
      let tw = Cw_parse.vertex_weights tree graph_w in
      let cap = min 4 (Tree_scheme.capacity scheme) in
      let message = Wm_util.Codec.random (Wm_util.Prng.create 3) cap in
      let marked_tw = Tree_scheme.mark scheme message tw in
      (* Distortion on the *graph* query f(u) = sum of neighbor weights. *)
      let marked_gw = Cw_parse.weights_to_graph tree marked_tw in
      let g = Cw_term.eval term in
      let gf = Gaifman.of_structure g in
      let f w u =
        List.fold_left (fun s v -> s + Weighted.get_elt w v) 0 (Gaifman.neighbors gf u)
      in
      List.iter
        (fun u ->
          check bool "graph distortion <= 1" true
            (abs (f marked_gw u - f graph_w u) <= 1))
        (Structure.universe g);
      let decoded =
        Tree_scheme.detect_weights scheme ~original:tw ~suspect:marked_tw
          ~length:cap
      in
      check bool "detected" true (Wm_util.Bitvec.equal decoded message)

(* --- tree decompositions (the tree-width leg of Theorem 4) ------------- *)

let ring n =
  Structure.add_pairs (Structure.create Schema.graph n) "E"
    (List.concat (List.init n (fun i -> [ (i, (i + 1) mod n); ((i + 1) mod n, i) ])))

let random_tree_graph seed n =
  let g = Wm_util.Prng.create seed in
  Structure.add_pairs (Structure.create Schema.graph n) "E"
    (List.concat
       (List.init (n - 1) (fun i ->
            let p = Wm_util.Prng.int g (i + 1) in
            [ (i + 1, p); (p, i + 1) ])))

let test_treewidth_families () =
  let tree = random_tree_graph 3 20 in
  let td = Treewidth.by_min_degree tree in
  check bool "tree decomposition valid" true (Treewidth.validate tree td = Ok ());
  check int "tree width 1" 1 (Treewidth.width td);
  let rg = ring 12 in
  let td = Treewidth.by_min_degree rg in
  check bool "ring decomposition valid" true (Treewidth.validate rg td = Ok ());
  check int "ring width 2" 2 (Treewidth.width td);
  let k5 = Cw_term.eval (Cw_term.clique 5) in
  check int "clique width n-1" 4 (Treewidth.heuristic_width k5);
  let grid = (Wm_workload.Grid.structure ~w:5 ~h:4).Weighted.graph in
  let td = Treewidth.by_min_degree grid in
  check bool "grid decomposition valid" true (Treewidth.validate grid td = Ok ());
  check bool "grid width >= min(w,h)" true (Treewidth.width td >= 4)

let test_treewidth_validate_rejects () =
  let tree = random_tree_graph 5 8 in
  (* A decomposition that misses an edge. *)
  let bad =
    { Treewidth.bags = Array.init 8 (fun i -> [ i ]);
      edges = List.init 7 (fun i -> (i, i + 1)) }
  in
  check bool "missing edges rejected" true (Treewidth.validate tree bad <> Ok ());
  (* A cyclic bag graph. *)
  let td = Treewidth.by_min_degree tree in
  let cyclic = { td with Treewidth.edges = (0, 1) :: td.Treewidth.edges } in
  check bool "cyclic rejected" true (Treewidth.validate tree cyclic <> Ok ())

let test_of_tree_graph () =
  let g = random_tree_graph 9 15 in
  match Cw_term.of_tree_graph g with
  | None -> Alcotest.fail "tree not recognized"
  | Some (term, mapping) ->
      check bool "cwd <= 3" true (Cw_term.width term <= 3);
      check int "all vertices" 15 (Cw_term.vertex_count term);
      (* The evaluated graph is isomorphic to the input via [mapping]. *)
      let h = Cw_term.eval term in
      let gf = Gaifman.of_structure g and hf = Gaifman.of_structure h in
      for v = 0 to 14 do
        let img = List.sort compare (List.map (fun u -> mapping.(u)) (Gaifman.neighbors hf v)) in
        check (list int) "neighbors match" (Gaifman.neighbors gf mapping.(v)) img
      done

let test_of_tree_graph_rejects_cycles () =
  check bool "ring rejected" true (Cw_term.of_tree_graph (ring 6) = None)

let test_tw1_to_watermark_pipeline () =
  (* Theorem 4's chain for tree-width 1: tree graph -> cw term -> parse
     tree -> marked, with the graph adjacency query preserved. *)
  let g = random_tree_graph 13 60 in
  match Cw_term.of_tree_graph g with
  | None -> Alcotest.fail "not a tree"
  | Some (term, mapping) ->
      let labels = 3 in
      let tree = Cw_parse.to_tree ~labels term in
      let q = Cw_adjacency.query ~labels in
      (match Tree_scheme.prepare tree q with
      | Error e -> Alcotest.fail e
      | Ok scheme ->
          let n = Cw_term.vertex_count term in
          (* weights indexed by *term* vertex ids; the owner's real weights
             are on structure elements, carried over via [mapping]. *)
          let gw =
            Weighted.of_list 1
              (List.init n (fun i -> (Tuple.singleton i, 300 + mapping.(i))))
          in
          let tw = Cw_parse.vertex_weights tree gw in
          let cap = min 3 (Tree_scheme.capacity scheme) in
          check bool "capacity" true (cap >= 1);
          let message = Wm_util.Codec.random (Wm_util.Prng.create 2) cap in
          let marked = Tree_scheme.mark scheme message tw in
          let decoded =
            Tree_scheme.detect_weights scheme ~original:tw ~suspect:marked
              ~length:cap
          in
          check bool "roundtrip" true (Wm_util.Bitvec.equal decoded message))

let prop_min_degree_always_valid =
  QCheck.Test.make ~count:30 ~name:"min-degree decomposition is always valid"
    QCheck.(pair (int_range 2 10) (int_range 1 500))
    (fun (n, seed) ->
      let g = Wm_util.Prng.create seed in
      let edges =
        List.concat
          (List.init (2 * n) (fun _ ->
               let a = Wm_util.Prng.int g n and b = Wm_util.Prng.int g n in
               if a = b then [] else [ (a, b); (b, a) ]))
      in
      let s = Structure.add_pairs (Structure.create Schema.graph n) "E" edges in
      Treewidth.validate s (Treewidth.by_min_degree s) = Ok ())

let test_min_fill_families () =
  let tree = random_tree_graph 11 20 in
  let td = Treewidth.by_min_fill tree in
  check bool "tree decomposition valid" true (Treewidth.validate tree td = Ok ());
  check int "tree width 1" 1 (Treewidth.width td);
  let rg = ring 12 in
  let td = Treewidth.by_min_fill rg in
  check bool "ring decomposition valid" true (Treewidth.validate rg td = Ok ());
  check int "ring width 2" 2 (Treewidth.width td);
  let grid = (Wm_workload.Grid.structure ~w:5 ~h:4).Weighted.graph in
  let td = Treewidth.by_min_fill grid in
  check bool "grid decomposition valid" true (Treewidth.validate grid td = Ok ());
  (* min-fill never loses to min-degree on these chordal-ish families *)
  check bool "grid width sane" true
    (Treewidth.width td >= 4
    && Treewidth.width td <= Treewidth.width (Treewidth.by_min_degree grid))

let test_of_sphere () =
  (* of_sphere over the caller's CSR graph = the structure-level
     entry points, both heuristics *)
  let g = random_tree_graph 17 14 in
  let gf = Gaifman.of_structure g in
  let td = Treewidth.of_sphere gf in
  check bool "valid" true (Treewidth.validate g td = Ok ());
  check int "min-degree agree"
    (Treewidth.width (Treewidth.by_min_degree g))
    (Treewidth.width td);
  let tf = Treewidth.of_sphere ~heuristic:Treewidth.Min_fill gf in
  check bool "min-fill valid" true (Treewidth.validate g tf = Ok ());
  check int "min-fill agree"
    (Treewidth.width (Treewidth.by_min_fill g))
    (Treewidth.width tf)

let test_disconnected_decomposition () =
  (* two triangles plus two isolated elements: the decomposition must
     still be one tree over the bags and pass the full validator *)
  let s =
    Structure.add_pairs (Structure.create Schema.graph 8) "E"
      [ (0, 1); (1, 0); (1, 2); (2, 1); (2, 0); (0, 2);
        (3, 4); (4, 3); (4, 5); (5, 4); (5, 3); (3, 5) ]
  in
  List.iter
    (fun (name, td) ->
      check bool (name ^ " valid on disconnected") true
        (Treewidth.validate s td = Ok ());
      check int (name ^ " width 2") 2 (Treewidth.width td))
    [ ("min-degree", Treewidth.by_min_degree s);
      ("min-fill", Treewidth.by_min_fill s) ]

let prop_min_fill_always_valid =
  QCheck.Test.make ~count:30 ~name:"min-fill decomposition is always valid"
    QCheck.(pair (int_range 2 10) (int_range 1 500))
    (fun (n, seed) ->
      let g = Wm_util.Prng.create seed in
      let edges =
        List.concat
          (List.init (2 * n) (fun _ ->
               let a = Wm_util.Prng.int g n and b = Wm_util.Prng.int g n in
               if a = b then [] else [ (a, b); (b, a) ]))
      in
      let s = Structure.add_pairs (Structure.create Schema.graph n) "E" edges in
      Treewidth.validate s (Treewidth.by_min_fill s) = Ok ())

(* --- distance-2 query ----------------------------------------------- *)

let distance2_matches term labels =
  let g = Cw_term.eval term in
  let gf = Gaifman.of_structure g in
  let n = Structure.size g in
  let tree = Cw_parse.to_tree ~labels term in
  let nodes = Cw_parse.vertex_nodes tree in
  let q = Cw_adjacency.distance2_query ~labels in
  let truth u v =
    List.exists
      (fun w ->
        w <> u && w <> v
        && List.mem u (Gaifman.neighbors gf w)
        && List.mem v (Gaifman.neighbors gf w))
      (Structure.universe g)
  in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let auto =
        Wm_trees.Tree_query.member q tree
          (Tuple.singleton nodes.(u))
          (Tuple.singleton nodes.(v))
      in
      if auto <> truth u v then ok := false
    done
  done;
  !ok

let test_distance2_cw2_chain () =
  (* A width-2 chain-like term (caterpillar of cliques). *)
  let open Cw_term in
  let term =
    Relabel (1, 0,
      Add_edges (0, 1,
        Union (clique 3, Relabel (0, 1, clique 2))))
  in
  check bool "width-2 compound" true (distance2_matches term 2)

let test_distance2_clique () =
  (* In K_n (n >= 3) every pair, including u = v, has a common neighbor. *)
  check bool "K5 distance 2" true (distance2_matches (Cw_term.clique 5) 2)

let test_distance2_scheme () =
  (* The tree scheme runs on the distance-2 query too — any
     automaton-definable query is watermarkable (Theorem 5). *)
  let labels = 2 in
  let term = Cw_term.clique 80 in
  let tree = Cw_parse.to_tree ~labels term in
  let q = Cw_adjacency.distance2_query ~labels in
  match Tree_scheme.prepare tree q with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let n = Cw_term.vertex_count term in
      let gw = Weighted.of_list 1 (List.init n (fun i -> (Tuple.singleton i, 40 + i))) in
      let tw = Cw_parse.vertex_weights tree gw in
      let cap = min 3 (Tree_scheme.capacity scheme) in
      check bool "capacity" true (cap >= 1);
      let message = Wm_util.Codec.random (Wm_util.Prng.create 8) cap in
      let marked = Tree_scheme.mark scheme message tw in
      let qs = Tree_scheme.query_system scheme in
      check bool "distance <= 1" true (Distortion.global qs tw marked <= 1);
      check bool "roundtrip" true
        (Wm_util.Bitvec.equal message
           (Tree_scheme.detect_weights scheme ~original:tw ~suspect:marked
              ~length:cap))

let test_make_reachable_matches_eager () =
  (* The lazy reachable-state constructor recognizes the same language as
     the eagerly tabulated adjacency automaton (on trees: reachable
     equivalence suffices). *)
  let labels = 2 in
  let eager, alpha = Cw_adjacency.automaton ~labels in
  let lazy_q = Cw_adjacency.query ~labels in
  ignore alpha;
  let g = Wm_util.Prng.create 4 in
  for _ = 1 to 10 do
    let term = Cw_term.random g ~labels ~vertices:(2 + Wm_util.Prng.int g 8) in
    let tree = Cw_parse.to_tree ~labels term in
    let nodes = Cw_parse.vertex_nodes tree in
    Array.iter
      (fun a ->
        Array.iter
          (fun v ->
            let peb =
              Wm_trees.Alphabet.labeler (Wm_trees.Tree_query.alpha lazy_q) tree
                [ (0, a); (1, v) ]
            in
            check bool "same acceptance"
              (Wm_trees.Dta.accepts eager tree ~label_of:peb)
              (Wm_trees.Tree_query.member lazy_q tree (Tuple.singleton a)
                 (Tuple.singleton v)))
          nodes)
      nodes
  done

let prop_distance2_random_terms =
  QCheck.Test.make ~count:15 ~name:"distance-2 automaton matches the graph"
    QCheck.(pair (int_range 1 300) (int_range 2 8))
    (fun (seed, vertices) ->
      let g = Wm_util.Prng.create seed in
      let term = Cw_term.random g ~labels:2 ~vertices in
      distance2_matches term 2)

let prop_adjacency_random_terms =
  QCheck.Test.make ~count:25 ~name:"psi(G) = psi~(T) on random terms"
    QCheck.(pair (int_range 1 500) (int_range 2 10))
    (fun (seed, vertices) ->
      let g = Wm_util.Prng.create seed in
      let term = Cw_term.random g ~labels:3 ~vertices in
      adjacency_matches term 3)

let prop_clique_width_bound =
  QCheck.Test.make ~count:30 ~name:"random terms stay within the label budget"
    QCheck.(int_range 1 300)
    (fun seed ->
      let g = Wm_util.Prng.create seed in
      let term = Cw_term.random g ~labels:4 ~vertices:(2 + Wm_util.Prng.int g 10) in
      Cw_term.width term <= 4 && Cw_term.validate term = Ok ())

let suite =
  [
    ("term basics", `Quick, test_term_basics);
    ("clique evaluation", `Quick, test_clique_eval);
    ("path evaluation", `Quick, test_path_eval);
    ("parse tree shape", `Quick, test_parse_tree_shape);
    ("weight transport", `Quick, test_weights_transport);
    ("adjacency on cliques", `Quick, test_adjacency_clique);
    ("adjacency on paths", `Quick, test_adjacency_path);
    ("adjacency through relabeling", `Quick, test_adjacency_relabel_chain);
    ("automaton size is degree-free", `Quick, test_adjacency_automaton_size);
    ("theorem 4 scheme on a clique", `Slow, test_theorem4_scheme_on_clique);
    ("tree decompositions of families", `Quick, test_treewidth_families);
    ("decomposition validator rejects", `Quick, test_treewidth_validate_rejects);
    ("min-fill decompositions of families", `Quick, test_min_fill_families);
    ("of_sphere = structure entry points", `Quick, test_of_sphere);
    ("decompositions of disconnected structures", `Quick,
     test_disconnected_decomposition);
    ("trees have clique-width <= 3", `Quick, test_of_tree_graph);
    ("of_tree_graph rejects cycles", `Quick, test_of_tree_graph_rejects_cycles);
    ("tree-width-1 watermark pipeline", `Slow, test_tw1_to_watermark_pipeline);
    ("distance-2 on a width-2 compound", `Quick, test_distance2_cw2_chain);
    ("distance-2 on cliques", `Quick, test_distance2_clique);
    ("distance-2 watermarking", `Slow, test_distance2_scheme);
    ("make_reachable = eager tabulation", `Quick, test_make_reachable_matches_eager);
    QCheck_alcotest.to_alcotest prop_distance2_random_terms;
    QCheck_alcotest.to_alcotest prop_min_degree_always_valid;
    QCheck_alcotest.to_alcotest prop_min_fill_always_valid;
    QCheck_alcotest.to_alcotest prop_adjacency_random_terms;
    QCheck_alcotest.to_alcotest prop_clique_width_bound;
  ]
