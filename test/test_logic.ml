(* Tests for Wm_logic: FO evaluation, parametric queries, locality, the
   formula parser, and the brute-force MSO oracle. *)

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

let path n =
  Structure.add_pairs (Structure.create Schema.graph n) "E"
    (List.concat (List.init (n - 1) (fun i -> [ (i, i + 1); (i + 1, i) ])))

let test_fo_eval_atoms () =
  let g = path 3 in
  let env = Eval.bind_all Eval.empty_env [ "x"; "y" ] (Tuple.pair 0 1) in
  check bool "edge" true (Eval.holds g env (Fo.atom "E" [ "x"; "y" ]));
  check bool "eq" false (Eval.holds g env (Fo.eq "x" "y"));
  check bool "not" true (Eval.holds g env (Fo.neg (Fo.eq "x" "y")))

let test_fo_eval_quantifiers () =
  let g = path 3 in
  let has_neighbor = Fo.exists "y" (Fo.atom "E" [ "x"; "y" ]) in
  List.iter
    (fun x ->
      check bool "every node has a neighbor" true
        (Eval.holds g (Eval.bind Eval.empty_env "x" x) has_neighbor))
    [ 0; 1; 2 ];
  let universal = Fo.forall "y" (Fo.atom "E" [ "x"; "y" ]) in
  check bool "no node adjacent to all (incl. self)" false
    (Eval.holds g (Eval.bind Eval.empty_env "x" 1) universal)

let test_fo_free_vars_and_rank () =
  let phi =
    Fo.(exists "y" (atom "E" [ "x"; "y" ] &&& forall "z" (neg (eq "z" "y"))))
  in
  check (list string) "free" [ "x" ] (Fo.free_vars phi);
  check int "rank" 2 (Fo.quantifier_rank phi)

let test_fo_well_formed () =
  check bool "good" true (Fo.well_formed Schema.graph (Fo.atom "E" [ "x"; "y" ]));
  check bool "bad arity" false (Fo.well_formed Schema.graph (Fo.atom "E" [ "x" ]));
  check bool "bad symbol" false (Fo.well_formed Schema.graph (Fo.atom "F" [ "x" ]))

let test_query_result_sets () =
  let fig = Paper_examples.figure1 in
  let q = Paper_examples.figure1_query in
  let w_of x =
    Query.result_set fig.Weighted.graph q (Tuple.singleton x)
    |> Tuple.Set.elements
    |> List.map (fun t -> t.(0))
  in
  (* Figure 2: W_a = W_b = {d,e}; W_c = {d}; W_d = {a,b,c}; W_e = {a,b,f};
     W_f = {e}. *)
  check (list int) "W_a" [ 3; 4 ] (w_of 0);
  check (list int) "W_b" [ 3; 4 ] (w_of 1);
  check (list int) "W_c" [ 3 ] (w_of 2);
  check (list int) "W_d" [ 0; 1; 2 ] (w_of 3);
  check (list int) "W_e" [ 0; 1; 5 ] (w_of 4);
  check (list int) "W_f" [ 4 ] (w_of 5)

let test_query_figure3_marking () =
  (* The (+1 on d, -1 on e) marking: distortion 0 on a,b,d,e; +1 on c;
     -1 on f — exactly Figure 3. *)
  let fig = Paper_examples.figure1 in
  let q = Paper_examples.figure1_query in
  let marked =
    Weighted.
      { fig with
        weights =
          apply_marks fig.weights
            [ (Tuple.singleton 3, 1); (Tuple.singleton 4, -1) ];
      }
  in
  let distortion x =
    Query.f marked q (Tuple.singleton x) - Query.f fig q (Tuple.singleton x)
  in
  check (list int) "figure 3 distortions" [ 0; 0; 1; 0; 0; -1 ]
    (List.map distortion [ 0; 1; 2; 3; 4; 5 ])

let test_query_guards () =
  Alcotest.check_raises "overlap"
    (Invalid_argument "Query.make: parameter and result variables overlap")
    (fun () ->
      ignore (Query.make ~params:[ "x" ] ~results:[ "x" ] (Fo.eq "x" "x")));
  Alcotest.check_raises "uncovered"
    (Invalid_argument "Query.make: free variable neither parameter nor result")
    (fun () ->
      ignore (Query.make ~params:[ "x" ] ~results:[ "y" ] (Fo.atom "E" [ "x"; "z" ])))

let test_locality_bound () =
  check int "rank 0" 0 (Locality.gaifman_bound (Fo.atom "E" [ "x"; "y" ]));
  check int "rank 1" 3
    (Locality.gaifman_bound (Fo.exists "y" (Fo.atom "E" [ "x"; "y" ])));
  check int "rank 2" 24
    (Locality.gaifman_bound
       (Fo.exists "y" (Fo.exists "z" (Fo.atom "E" [ "y"; "z" ]))))

let test_locality_respects () =
  let fig = Paper_examples.figure1 in
  (* The paper quotes locality rank 1 for the adjacency query; under
     Definition 5, rho = 0 already suffices because N_0(x,y) is the induced
     substructure on {x,y}, which contains the edge itself.  Both ranks must
     check out. *)
  check bool "rho=1 works" true
    (Locality.respects_rank fig.Weighted.graph (Fo.atom "E" [ "x"; "y" ]) ~rho:1);
  check (option int) "minimal rank" (Some 0)
    (Locality.minimal_rank fig.Weighted.graph (Fo.atom "E" [ "x"; "y" ]) ~max:3);
  (* A query about distance-2 connections is not 0-local. *)
  let two_away =
    Fo.(exists "w" (atom "E" [ "x"; "w" ] &&& atom "E" [ "w"; "y" ]))
  in
  check bool "two-away not 0-local" false
    (Locality.respects_rank fig.Weighted.graph two_away ~rho:0);
  check bool "two-away 1-local here" true
    (Locality.respects_rank fig.Weighted.graph two_away ~rho:1)

let test_cq_rank () =
  let rank s = Locality.cq_rank (Parser.fo_of_string s) in
  check (option int) "atom" (Some 0) (rank "E(x,y)");
  check (option int) "two hops" (Some 1) (rank "exists w. (E(x,w) & E(w,y))");
  (* A middle variable of a 3-hop chain is within 1 of *some* free
     variable (BFS runs from the whole free set), so the rank stays 1... *)
  check (option int) "three hops" (Some 1)
    (rank "exists w z. (E(x,w) & E(w,z) & E(z,y))");
  (* ...and a 4-hop chain's center is 2 away from both ends. *)
  check (option int) "four hops" (Some 2)
    (rank "exists w z u. (E(x,w) & E(w,z) & E(z,u) & E(u,y))");
  check (option int) "detached sentence part" (Some 0)
    (rank "E(x,y) & (exists u v. E(u,v))");
  check (option int) "not a CQ (negation)" None (rank "~E(x,y)");
  check (option int) "not a CQ (disjunction)" None (rank "E(x,y) | E(y,x)");
  check (option int) "not a CQ (universal)" None (rank "forall w. E(x,w)")

let test_cq_rank_is_correct_empirically () =
  (* The CQ rank must satisfy Definition 5 wherever we can check it. *)
  let fig = Paper_examples.figure1 in
  List.iter
    (fun s ->
      let phi = Parser.fo_of_string s in
      match Locality.cq_rank phi with
      | None -> Alcotest.fail ("expected a CQ: " ^ s)
      | Some rho ->
          check bool (s ^ " respects its CQ rank") true
            (Locality.respects_rank fig.Weighted.graph phi ~rho))
    [ "E(x,y)"; "exists w. (E(x,w) & E(w,y))" ]

let test_best_rank () =
  check int "CQ uses tight rank" 1
    (Locality.best_rank (Parser.fo_of_string "exists w. (E(x,w) & E(w,y))"));
  check int "non-CQ falls back to Gaifman" 3
    (Locality.best_rank (Parser.fo_of_string "~(exists w. E(x,w))"))

let test_locality_eta () =
  let q = Paper_examples.figure1_query in
  (* eta = 2 r k^(2 rho + 1) = 2 * 1 * 3^3 = 54 for k=3, rho=1. *)
  check int "eta" 54 (Locality.eta q ~k:3 ~rho:1)

let test_parser_fo () =
  let phi = Parser.fo_of_string "exists y. (E(x,y) & ~(x = y))" in
  check string "roundtrip" "exists y. E(x,y) & ~(x = y)" (Fo.to_string phi);
  check (list string) "free" [ "x" ] (Fo.free_vars phi)

let test_parser_precedence () =
  (* '&' binds tighter than '|', both tighter than '->'. *)
  let phi = Parser.fo_of_string "E(x,y) & E(y,x) | x = y -> true" in
  match phi with
  | Fo.Implies (Fo.Or (Fo.And _, Fo.Eq _), Fo.True) -> ()
  | _ -> Alcotest.fail ("unexpected parse: " ^ Fo.to_string phi)

let test_parser_multi_binder () =
  let phi = Parser.fo_of_string "exists x y. E(x,y)" in
  check (list string) "closed" [] (Fo.free_vars phi)

let test_parser_errors () =
  List.iter
    (fun s ->
      match Parser.mso_of_string s with
      | exception Parser.Error _ -> ()
      | _ -> Alcotest.fail ("should not parse: " ^ s))
    [ "E(x,"; "exists . true"; "x ="; "E(x,y) extra"; "(" ; "" ; "x" ]

let test_parser_mso () =
  let phi = Parser.mso_of_string "existsS X. (x in X & forall y. y in X)" in
  check (list string) "free elems" [ "x" ] (Mso.free_elem_vars phi);
  check (list string) "free sets" [] (Mso.free_set_vars phi)

let test_mso_oracle () =
  let g = path 3 in
  (* "X contains x and is closed under E" — on a connected graph, the only
     such X containing anything is reachable-set; check a couple of
     sentences. *)
  let closed =
    Parser.mso_of_string
      "existsS X. (x in X & forall y. forall z. (y in X & E(y,z) -> z in X) & ~(y0 in X))"
  in
  (* On a path 0-1-2, a closed set containing 0 must contain everything, so
     excluding y0=2 is impossible... *)
  check bool "closure forces membership" false
    (Mso.holds g ~elems:[ ("x", 0); ("y0", 2) ] ~sets:[] closed);
  (* ...but excluding a node in another component is fine. *)
  let g2 = Structure.add_pairs (Structure.create Schema.graph 3) "E" [ (0, 1); (1, 0) ] in
  check bool "disconnected escape" true
    (Mso.holds g2 ~elems:[ ("x", 0); ("y0", 2) ] ~sets:[] closed)

let test_mso_to_fo () =
  let fo = Parser.mso_of_string "exists y. E(x,y)" in
  check bool "downcast ok" true (Mso.to_fo fo <> None);
  let mso = Parser.mso_of_string "existsS X. x in X" in
  check bool "downcast fails" true (Mso.to_fo mso = None)

(* Property tests *)

let graph_gen =
  QCheck.Gen.(
    pair (int_range 2 6) (list_size (int_bound 10) (pair (int_bound 5) (int_bound 5))))

let arbitrary_graph =
  QCheck.make graph_gen ~print:(fun (n, es) ->
      Printf.sprintf "n=%d m=%d" n (List.length es))

let build (n, es) =
  Structure.add_pairs (Structure.create Schema.graph n)
    "E" (List.filter (fun (a, b) -> a < n && b < n) es)

let prop_de_morgan =
  QCheck.Test.make ~count:80 ~name:"~(exists) = forall ~" arbitrary_graph
    (fun spec ->
      let g = build spec in
      let a = Fo.neg (Fo.exists "y" (Fo.atom "E" [ "x"; "y" ])) in
      let b = Fo.forall "y" (Fo.neg (Fo.atom "E" [ "x"; "y" ])) in
      List.for_all
        (fun x ->
          let env = Eval.bind Eval.empty_env "x" x in
          Eval.holds g env a = Eval.holds g env b)
        (Structure.universe g))

let prop_result_set_matches_holds =
  QCheck.Test.make ~count:80 ~name:"result_set agrees with holds"
    arbitrary_graph
    (fun spec ->
      let g = build spec in
      let q =
        Query.make ~params:[ "u" ] ~results:[ "v" ]
          (Fo.exists "w" Fo.(atom "E" [ "u"; "w" ] &&& atom "E" [ "w"; "v" ]))
      in
      List.for_all
        (fun u ->
          let rs = Query.result_set g q (Tuple.singleton u) in
          List.for_all
            (fun v ->
              Tuple.Set.mem (Tuple.singleton v) rs
              = Eval.holds g
                  (Eval.bind_all Eval.empty_env [ "u"; "v" ] (Tuple.pair u v))
                  (Fo.exists "w" Fo.(atom "E" [ "u"; "w" ] &&& atom "E" [ "w"; "v" ])))
            (Structure.universe g))
        (Structure.universe g))

let prop_active_is_union =
  QCheck.Test.make ~count:60 ~name:"active = union of result sets"
    arbitrary_graph
    (fun spec ->
      let g = build spec in
      let q = Query.make ~params:[ "u" ] ~results:[ "v" ] (Fo.atom "E" [ "u"; "v" ]) in
      let act = Wm_watermark.Query_system.(active_array (of_relational g q)) in
      let union =
        List.fold_left
          (fun acc a -> Tuple.Set.union acc (Query.result_set g q a))
          Tuple.Set.empty (Query.all_params g q)
      in
      Array.to_list act = Tuple.Set.elements union)

let prop_mso_of_fo_agrees =
  QCheck.Test.make ~count:50 ~name:"MSO oracle agrees with FO eval"
    arbitrary_graph
    (fun spec ->
      let g = build spec in
      let phi = Fo.exists "y" Fo.(atom "E" [ "x"; "y" ] &&& neg (eq "x" "y")) in
      List.for_all
        (fun x ->
          Eval.holds g (Eval.bind Eval.empty_env "x" x) phi
          = Mso.holds g ~elems:[ ("x", x) ] ~sets:[] (Mso.of_fo phi))
        (Structure.universe g))

let suite =
  [
    ("fo atoms", `Quick, test_fo_eval_atoms);
    ("fo quantifiers", `Quick, test_fo_eval_quantifiers);
    ("fo free vars and rank", `Quick, test_fo_free_vars_and_rank);
    ("fo well-formedness", `Quick, test_fo_well_formed);
    ("figure 2 result sets", `Quick, test_query_result_sets);
    ("figure 3 marking distortion", `Quick, test_query_figure3_marking);
    ("query construction guards", `Quick, test_query_guards);
    ("locality gaifman bound", `Quick, test_locality_bound);
    ("locality empirical check", `Quick, test_locality_respects);
    ("locality CQ rank", `Quick, test_cq_rank);
    ("locality CQ rank empirically", `Quick, test_cq_rank_is_correct_empirically);
    ("locality best rank", `Quick, test_best_rank);
    ("locality eta", `Quick, test_locality_eta);
    ("parser fo", `Quick, test_parser_fo);
    ("parser precedence", `Quick, test_parser_precedence);
    ("parser multi binder", `Quick, test_parser_multi_binder);
    ("parser rejects junk", `Quick, test_parser_errors);
    ("parser mso", `Quick, test_parser_mso);
    ("mso oracle", `Quick, test_mso_oracle);
    ("mso/fo downcast", `Quick, test_mso_to_fo);
    QCheck_alcotest.to_alcotest prop_de_morgan;
    QCheck_alcotest.to_alcotest prop_result_set_matches_holds;
    QCheck_alcotest.to_alcotest prop_active_is_union;
    QCheck_alcotest.to_alcotest prop_mso_of_fo_agrees;
  ]
