(* Tests for Wm_relational: tuples, relations, structures, weights,
   Gaifman graphs, isomorphism, neighborhood types — anchored on the
   paper's Figure 1-4 instance and Example 1 travel database. *)

open Wm_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let int64 = Alcotest.int64
let float = Alcotest.float
let list = Alcotest.list
let array = Alcotest.array
let option = Alcotest.option
let _ = (int, bool, string, int64, float, (fun x -> list x), (fun x -> array x), (fun x -> option x))

let fig = Paper_examples.figure1
let figg = fig.Weighted.graph

let test_tuple_order () =
  check int "lex" (-1) (Tuple.compare (Tuple.pair 0 1) (Tuple.pair 0 2));
  check bool "equal" true (Tuple.equal (Tuple.of_list [ 1; 2 ]) (Tuple.pair 1 2));
  check int "arity" 3 (Tuple.arity (Tuple.of_list [ 1; 2; 3 ]));
  check string "pp pair" "(1,2)" (Tuple.to_string (Tuple.pair 1 2));
  check string "pp single" "7" (Tuple.to_string (Tuple.singleton 7))

let test_relation_basics () =
  let r = Relation.of_pairs [ (0, 1); (1, 2); (0, 1) ] in
  check int "dedup" 2 (Relation.cardinal r);
  check bool "mem" true (Relation.mem (Tuple.pair 0 1) r);
  check bool "not mem" false (Relation.mem (Tuple.pair 1 0) r);
  let r' = Relation.restrict (fun x -> x < 2) r in
  check int "restrict" 1 (Relation.cardinal r');
  let r'' = Relation.rename (fun x -> x + 10) r in
  check bool "renamed" true (Relation.mem (Tuple.pair 10 11) r'')

let test_relation_arity_guard () =
  Alcotest.check_raises "arity mismatch" (Invalid_argument "Relation.add: arity mismatch")
    (fun () -> ignore (Relation.add (Tuple.singleton 0) (Relation.empty 2)))

let test_structure_range_guard () =
  let g = Structure.create Schema.graph 3 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Structure.add_tuple: element out of range") (fun () ->
      ignore (Structure.add_tuple g "E" (Tuple.pair 0 3)))

let test_structure_induced () =
  let g = Structure.add_pairs (Structure.create Schema.graph 4) "E"
      [ (0, 1); (1, 2); (2, 3) ]
  in
  let sub, old = Structure.induced g [ 1; 2 ] in
  check int "size" 2 (Structure.size sub);
  check (array int) "renaming" [| 1; 2 |] old;
  check bool "edge kept" true (Relation.mem (Tuple.pair 0 1) (Structure.relation sub "E"));
  check bool "edge dropped" false (Relation.mem (Tuple.pair 1 0) (Structure.relation sub "E"))

let test_weighted_distortion () =
  let w = Weighted.of_list 1 [ (Tuple.singleton 0, 5); (Tuple.singleton 1, 7) ] in
  let w' = Weighted.apply_marks w [ (Tuple.singleton 0, 1); (Tuple.singleton 1, -1) ] in
  check int "get" 6 (Weighted.get_elt w' 0);
  check int "local distance" 1 (Weighted.local_distance w w');
  check bool "1-local" true (Weighted.is_local_distortion ~c:1 w w');
  check bool "not 0-local" false (Weighted.is_local_distortion ~c:0 w w')

let test_gaifman_figure1 () =
  let gf = Gaifman.of_structure figg in
  check (list int) "neighbors of a" [ 3; 4 ] (Gaifman.neighbors gf 0);
  check (list int) "neighbors of d" [ 0; 1; 2 ] (Gaifman.neighbors gf 3);
  check int "max degree" 3 (Gaifman.max_degree gf);
  check (option int) "distance a-f" (Some 2) (Gaifman.distance gf 0 5);
  check (option int) "distance c-f" (Some 4) (Gaifman.distance gf 2 5);
  check (list int) "sphere_1(a)" [ 0; 3; 4 ] (Gaifman.sphere gf ~rho:1 0);
  check (list int) "sphere_2(a)" [ 0; 1; 2; 3; 4; 5 ] (Gaifman.sphere gf ~rho:2 0)

let test_gaifman_disconnected () =
  let g = Structure.add_pairs (Structure.create Schema.graph 4) "E" [ (0, 1) ] in
  let gf = Gaifman.of_structure g in
  check (option int) "disconnected" None (Gaifman.distance gf 0 2);
  check int "components" 3 (List.length (Gaifman.connected_components gf))

let test_gaifman_hyperedge () =
  (* A 3-ary tuple makes all its elements pairwise adjacent. *)
  let schema = Schema.make [ { Schema.name = "T"; arity = 3 } ] in
  let g = Structure.add_tuple (Structure.create schema 3) "T" (Tuple.of_list [ 0; 1; 2 ]) in
  let gf = Gaifman.of_structure g in
  check (list int) "clique" [ 1; 2 ] (Gaifman.neighbors gf 0);
  check int "degree" 2 (Gaifman.max_degree gf)

let path_graph n =
  Structure.add_pairs (Structure.create Schema.graph n) "E"
    (List.concat (List.init (n - 1) (fun i -> [ (i, i + 1); (i + 1, i) ])))

let test_iso_positive () =
  let g = path_graph 3 in
  (* Both endpoints of a path look alike. *)
  check bool "endpoints iso" true (Iso.isomorphic g [ 0 ] g [ 2 ]);
  check bool "certificates agree" true
    (Iso.certificate g [ 0 ] = Iso.certificate g [ 2 ])

let test_iso_negative () =
  let g = path_graph 3 in
  check bool "end vs middle" false (Iso.isomorphic g [ 0 ] g [ 1 ])

let test_iso_directed () =
  (* Direction matters: an edge 0->1 is not isomorphic to 1->0 with
     distinguished first element. *)
  let g = Structure.add_pairs (Structure.create Schema.graph 2) "E" [ (0, 1) ] in
  check bool "source vs sink" false (Iso.isomorphic g [ 0 ] g [ 1 ]);
  check bool "source vs source" true (Iso.isomorphic g [ 0 ] g [ 0 ])

let test_iso_distinguished_duplicates () =
  let g = path_graph 2 in
  check bool "dup consistent" true (Iso.isomorphic g [ 0; 0 ] g [ 1; 1 ]);
  check bool "dup inconsistent" false (Iso.isomorphic g [ 0; 0 ] g [ 0; 1 ])

let test_neighborhood_extraction () =
  let gf = Gaifman.of_structure figg in
  let nb = Neighborhood.of_tuple figg gf ~rho:1 (Tuple.singleton 0) in
  check int "sphere size" 3 (Structure.size nb.Neighborhood.sub);
  check (list int) "center" [ 0 ] nb.Neighborhood.center

let test_figure1_types () =
  (* The paper: three types, {a,b}, {d,e}, {c,f}. *)
  let ix =
    Neighborhood.index_universe figg ~rho:1 ~arity:1
  in
  check int "ntp" 3 (Neighborhood.ntp ix);
  let ty x = Neighborhood.type_of ix (Tuple.singleton x) in
  check bool "a~b" true (ty 0 = ty 1);
  check bool "d~e" true (ty 3 = ty 4);
  check bool "c~f" true (ty 2 = ty 5);
  check bool "a<>d" true (ty 0 <> ty 3);
  check bool "a<>c" true (ty 0 <> ty 2);
  check bool "d<>c" true (ty 3 <> ty 2)

let test_figure1_equivalent () =
  let gf = Gaifman.of_structure figg in
  check bool "N1(a)~N1(b)" true
    (Neighborhood.equivalent figg gf ~rho:1 (Tuple.singleton 0) (Tuple.singleton 1));
  check bool "N1(a)!~N1(d)" false
    (Neighborhood.equivalent figg gf ~rho:1 (Tuple.singleton 0) (Tuple.singleton 3))

let test_figure1_rho2_separates () =
  (* At rho = 2, c and f stop being equivalent (c sees a 5-sphere through d,
     f sees a 4-sphere through e... both actually see different shapes). *)
  let ix = Neighborhood.index_universe figg ~rho:2 ~arity:1 in
  check bool "more types at rho=2" true (Neighborhood.ntp ix >= 3)

let test_travel_weights () =
  let t = Paper_examples.travel in
  check int "India discovery = 16:55" ((16 * 60) + 55)
    (Paper_examples.travel_of t "India discovery");
  check int "Nepal Trek = 20:20" ((20 * 60) + 20)
    (Paper_examples.travel_of t "Nepal Trek");
  check int "TourNepal = 6:20" ((6 * 60) + 20)
    (Paper_examples.travel_of t "TourNepal")

let test_travel_example3 () =
  let t = Paper_examples.travel in
  let t' = Paper_examples.timetable' in
  let t'' = Paper_examples.timetable'' in
  (* Timetable' is 0:10-local but violates 0:10-global (17:15 on India
     discovery); Timetable'' satisfies both. *)
  check bool "t' 10-local" true
    (Weighted.is_local_distortion ~c:10 t.Weighted.weights t'.Weighted.weights);
  check int "t' India discovery = 17:15" ((17 * 60) + 15)
    (Paper_examples.travel_of t' "India discovery");
  check bool "t' violates 10-global" true
    (abs (Paper_examples.travel_of t' "India discovery"
          - Paper_examples.travel_of t "India discovery") > 10);
  check bool "t'' 10-local" true
    (Weighted.is_local_distortion ~c:10 t.Weighted.weights t''.Weighted.weights);
  List.iter
    (fun name ->
      check bool ("t'' 10-global on " ^ name) true
        (abs (Paper_examples.travel_of t'' name - Paper_examples.travel_of t name) <= 10))
    [ "India discovery"; "Nepal Trek"; "TourNepal" ]

let test_travel_active () =
  (* Active weighted elements: {F21, G12, R5, F2, T33}; G13 is inactive. *)
  let t = Paper_examples.travel in
  let w =
    Wm_watermark.Query_system.(
      active (of_relational t.Weighted.graph Paper_examples.travel_query))
  in
  let name_of x = Structure.name_of t.Weighted.graph x in
  let names =
    List.map (fun tu -> name_of tu.(0)) w
    |> List.sort compare
  in
  check (list string) "active set" [ "F2"; "F21"; "G12"; "R5"; "T33" ] names

(* Property tests *)

let random_graph_gen =
  QCheck.Gen.(
    pair (int_range 2 8) (list_size (int_bound 12) (pair (int_bound 7) (int_bound 7))))

let arbitrary_graph =
  QCheck.make random_graph_gen ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) es)))

let build_graph (n, es) =
  let es = List.filter (fun (a, b) -> a < n && b < n) es in
  Structure.add_pairs (Structure.create Schema.graph n) "E" es

let prop_iso_reflexive =
  QCheck.Test.make ~count:60 ~name:"iso is reflexive" arbitrary_graph
    (fun spec ->
      let g = build_graph spec in
      Iso.isomorphic g [ 0 ] g [ 0 ])

let prop_iso_implies_certificate =
  QCheck.Test.make ~count:60 ~name:"iso implies equal certificates"
    (QCheck.pair arbitrary_graph (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun (spec, (x, y)) ->
      let g = build_graph spec in
      let n = Structure.size g in
      let x = x mod n and y = y mod n in
      (not (Iso.isomorphic g [ x ] g [ y ]))
      || Iso.certificate g [ x ] = Iso.certificate g [ y ])

let prop_types_refine_satisfaction =
  (* Same rho-type with rho=1 forces same adjacency-query results count for
     the degree — a weak but fully checkable consequence. *)
  QCheck.Test.make ~count:60 ~name:"equal type implies equal degree"
    arbitrary_graph
    (fun spec ->
      let g = build_graph spec in
      let gf = Gaifman.of_structure g in
      let ix = Neighborhood.index_universe g ~rho:1 ~arity:1 in
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              Neighborhood.type_of ix (Tuple.singleton x)
              <> Neighborhood.type_of ix (Tuple.singleton y)
              || Gaifman.degree gf x = Gaifman.degree gf y)
            (Structure.universe g))
        (Structure.universe g))

let prop_sphere_monotone =
  QCheck.Test.make ~count:60 ~name:"spheres grow with rho" arbitrary_graph
    (fun spec ->
      let g = build_graph spec in
      let gf = Gaifman.of_structure g in
      List.for_all
        (fun x ->
          let s1 = Gaifman.sphere gf ~rho:1 x in
          let s2 = Gaifman.sphere gf ~rho:2 x in
          List.for_all (fun e -> List.mem e s2) s1)
        (Structure.universe g))

let suite =
  [
    ("tuple ordering and printing", `Quick, test_tuple_order);
    ("relation basics", `Quick, test_relation_basics);
    ("relation arity guard", `Quick, test_relation_arity_guard);
    ("structure range guard", `Quick, test_structure_range_guard);
    ("structure induced substructure", `Quick, test_structure_induced);
    ("weighted distortion", `Quick, test_weighted_distortion);
    ("gaifman on figure 1", `Quick, test_gaifman_figure1);
    ("gaifman disconnected", `Quick, test_gaifman_disconnected);
    ("gaifman hyperedge clique", `Quick, test_gaifman_hyperedge);
    ("iso positive", `Quick, test_iso_positive);
    ("iso negative", `Quick, test_iso_negative);
    ("iso directed", `Quick, test_iso_directed);
    ("iso duplicate distinguished", `Quick, test_iso_distinguished_duplicates);
    ("neighborhood extraction", `Quick, test_neighborhood_extraction);
    ("figure 1 types", `Quick, test_figure1_types);
    ("figure 1 equivalence", `Quick, test_figure1_equivalent);
    ("figure 1 rho=2", `Quick, test_figure1_rho2_separates);
    ("example 1 query weights", `Quick, test_travel_weights);
    ("example 3 distortions", `Quick, test_travel_example3);
    ("example 1 active elements", `Quick, test_travel_active);
    QCheck_alcotest.to_alcotest prop_iso_reflexive;
    QCheck_alcotest.to_alcotest prop_iso_implies_certificate;
    QCheck_alcotest.to_alcotest prop_types_refine_satisfaction;
    QCheck_alcotest.to_alcotest prop_sphere_monotone;
  ]
