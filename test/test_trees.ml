(* Tests for Wm_trees: binary trees, tree automata (deterministic and
   nondeterministic), and the MSO -> automaton compilation of Lemma 2.
   The compiled automata are checked against the brute-force MSO oracle on
   randomly generated trees — that equivalence is experiment E8's claim. *)

open Wm_trees
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

(* A small fixed tree:        a0
                             /  \
                            b1    a4
                           /  \     \
                          a2   b3    b5          (ids in preorder) *)
let tree1 =
  Btree.of_spec_with_alphabet [ "a"; "b" ]
    Btree.(
      node "a" (node "b" (leaf "a") (leaf "b")) (N ("a", None, Some (leaf "b"))))

let test_btree_shape () =
  check int "size" 6 (Btree.size tree1);
  check int "root" 0 (Btree.root tree1);
  check (option int) "left of root" (Some 1) (Btree.left tree1 0);
  check (option int) "right of root" (Some 4) (Btree.right tree1 0);
  check (option int) "right of 4" (Some 5) (Btree.right tree1 4);
  check (option int) "left of 4" None (Btree.left tree1 4);
  check (option int) "parent of 5" (Some 4) (Btree.parent tree1 5);
  check string "label 2" "a" (Btree.label_name tree1 2);
  check bool "leaf" true (Btree.is_leaf tree1 3);
  check bool "not leaf" false (Btree.is_leaf tree1 1);
  check int "depth" 2 (Btree.depth tree1 5)

let test_btree_order () =
  check bool "root ancestor of all" true (Btree.ancestor_or_equal tree1 0 5);
  check bool "reflexive" true (Btree.ancestor_or_equal tree1 3 3);
  check bool "not ancestor" false (Btree.ancestor_or_equal tree1 1 5);
  check bool "strict" true (Btree.strictly_below tree1 1 3);
  check bool "strict irreflexive" false (Btree.strictly_below tree1 3 3);
  check int "lca cousins" 0 (Btree.lca tree1 2 5);
  check int "lca siblings" 1 (Btree.lca tree1 2 3);
  check int "lca ancestor" 1 (Btree.lca tree1 1 3)

let test_btree_traversals () =
  check (list int) "subtree of 1" [ 1; 2; 3 ] (Btree.subtree_nodes tree1 1);
  check int "subtree size" 3 (Btree.subtree_size tree1 1);
  let post = Array.to_list (Btree.postorder tree1) in
  check (list int) "postorder" [ 2; 3; 1; 5; 4; 0 ] post;
  check (list int) "a-labeled" [ 0; 2; 4 ] (Btree.nodes_with_label tree1 "a")

let test_btree_to_structure () =
  let g = Btree.to_structure tree1 in
  check bool "S1(0,1)" true (Relation.mem (Tuple.pair 0 1) (Structure.relation g "S1"));
  check bool "S2(0,4)" true (Relation.mem (Tuple.pair 0 4) (Structure.relation g "S2"));
  check bool "Leq(0,5)" true (Relation.mem (Tuple.pair 0 5) (Structure.relation g "Leq"));
  check bool "Leq reflexive" true (Relation.mem (Tuple.pair 3 3) (Structure.relation g "Leq"));
  check bool "a(2)" true (Relation.mem (Tuple.singleton 2) (Structure.relation g "a"))

(* Parity-of-'a' automaton over alphabet {a=0, b=1}. *)
let parity_a =
  Dta.make ~nstates:2 ~nlabels:2
    ~final:(fun q -> q = 1)
    (fun ql qr l ->
      let c q = if q < 0 then 0 else q in
      (c ql + c qr + if l = 0 then 1 else 0) mod 2)

let plain_label tree v = Btree.label tree v

let test_dta_run () =
  (* tree1 has three 'a' nodes -> odd -> accept. *)
  check bool "accepts odd" true
    (Dta.accepts parity_a tree1 ~label_of:(plain_label tree1));
  let states = Dta.run parity_a tree1 ~label_of:(plain_label tree1) in
  check int "leaf a state" 1 states.(2);
  check int "leaf b state" 0 states.(3);
  check int "root state" 1 states.(0)

let test_dta_boolean_ops () =
  let all = Dta.accept_all ~nlabels:2 and none = Dta.accept_none ~nlabels:2 in
  check bool "all accepts" true (Dta.accepts all tree1 ~label_of:(plain_label tree1));
  check bool "none rejects" false (Dta.accepts none tree1 ~label_of:(plain_label tree1));
  check bool "complement flips" false
    (Dta.accepts (Dta.complement parity_a) tree1 ~label_of:(plain_label tree1));
  let both = Dta.product parity_a all ~final:( && ) in
  check bool "product with all" true
    (Dta.accepts both tree1 ~label_of:(plain_label tree1));
  check bool "equivalent to itself" true (Dta.equivalent parity_a parity_a);
  check bool "not equivalent to complement" false
    (Dta.equivalent parity_a (Dta.complement parity_a))

let test_dta_empty () =
  check bool "none empty" true (Dta.is_empty (Dta.accept_none ~nlabels:2));
  check bool "parity not empty" false (Dta.is_empty parity_a);
  (* intersection of parity with its complement is empty *)
  check bool "p & ~p empty" true
    (Dta.is_empty (Dta.product parity_a (Dta.complement parity_a) ~final:( && )))

let test_dta_reduce_minimize () =
  (* Pad parity with junk states via product with accept_all twice, then
     minimize back down to 2 states. *)
  let padded =
    Dta.product (Dta.product parity_a (Dta.accept_all ~nlabels:2) ~final:( && ))
      (Dta.accept_all ~nlabels:2) ~final:( && )
  in
  let m = Dta.minimize padded in
  check int "minimized to 2" 2 (Dta.nstates m);
  check bool "language preserved" true (Dta.equivalent m parity_a)

(* A DTA as an NTA: widened by a pebble bit it ignores, then projected
   back over that bit, so every entry has a single successor. *)
let nta_of_dta d =
  let alpha = Alphabet.make ~base_size:(Dta.nlabels d) ~bits:1 in
  let wide = Dta.relabel d ~nlabels:(Alphabet.size alpha) (Alphabet.drop_bit alpha 0) in
  Nta.project wide ~alpha ~bit:0

let test_nta_determinize_preserves () =
  let det = Nta.determinize (nta_of_dta parity_a) in
  check bool "same language" true (Dta.equivalent (Dta.minimize det) parity_a);
  let nta = Tree_ref.nta_of_dta parity_a in
  let g = Prng.create 11 in
  for _ = 1 to 30 do
    let t = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(1 + Prng.int g 15) in
    let lbl v = Btree.label t v in
    check bool "nta eval agrees" (Dta.accepts parity_a t ~label_of:lbl)
      (Tree_ref.nta_accepts nta t ~label_of:lbl)
  done;
  (* A genuinely nondeterministic projection: determinize agrees with the
     set-of-states simulation. *)
  let alpha = Alphabet.make ~base_size:2 ~bits:1 in
  let d =
    Dta.make ~nstates:2 ~nlabels:(Alphabet.size alpha)
      ~final:(fun q -> q = 1)
      (fun ql qr l ->
        let c q = if q < 0 then 0 else q in
        (c ql + c qr + if Alphabet.bit alpha l 0 then 1 else 0) mod 2)
  in
  let det = Nta.determinize (Nta.project d ~alpha ~bit:0) in
  let nta = Tree_ref.nta_project d ~alpha ~bit:0 in
  for _ = 1 to 30 do
    let t = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(1 + Prng.int g 15) in
    let lbl v = Btree.label t v in
    check bool "projected nta eval agrees" (Dta.accepts det t ~label_of:lbl)
      (Tree_ref.nta_accepts nta t ~label_of:lbl)
  done

(* --- MSO compilation versus the oracle ------------------------------ *)

let base = [| "a"; "b" |]

let oracle_holds tree ~elems phi =
  Mso.holds (Btree.to_structure tree) ~elems ~sets:[] phi

let agree_on_tree phi free tree =
  let compiled = Mso_compile.compile ~base ~free phi in
  let n = Btree.size tree in
  let rec assignments = function
    | [] -> [ [] ]
    | v :: rest ->
        List.concat_map
          (fun partial -> List.init n (fun node -> (v, node) :: partial))
          (assignments rest)
  in
  List.for_all
    (fun elems ->
      Mso_compile.accepts compiled tree ~elems ~sets:[]
      = oracle_holds tree ~elems phi)
    (assignments free)

let check_formula name text free =
  let phi = Parser.mso_of_string text in
  let g = Prng.create 2024 in
  for i = 1 to 12 do
    let size = 1 + Prng.int g 9 in
    let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size in
    if not (agree_on_tree phi free tree) then
      Alcotest.fail
        (Printf.sprintf "%s: mismatch on random tree #%d (size %d)" name i size)
  done

let test_mso_label () = check_formula "a(x)" "a(x)" [ "x" ]
let test_mso_s1 () = check_formula "S1" "S1(x,y)" [ "x"; "y" ]
let test_mso_s2 () = check_formula "S2" "S2(x,y)" [ "x"; "y" ]
let test_mso_leq () = check_formula "Leq" "Leq(x,y)" [ "x"; "y" ]
let test_mso_eq () = check_formula "eq" "x = y" [ "x"; "y" ]

let test_mso_not () = check_formula "negated S1" "~S1(x,y)" [ "x"; "y" ]

let test_mso_exists () =
  check_formula "has left child" "exists y. S1(x,y)" [ "x" ]

let test_mso_sentence () =
  check_formula "some a exists" "exists x. a(x)" []

let test_mso_root () =
  (* x is the root iff nothing is strictly above it. *)
  check_formula "root" "forall y. (Leq(y,x) -> y = x)" [ "x" ]

let test_mso_leaf () =
  check_formula "leaf" "~(exists y. (S1(x,y) | S2(x,y)))" [ "x" ]

let test_mso_set_quantifier () =
  (* Leq via set closure: x <= y iff every child-closed set containing x
     contains y.  This is the classic MSO definition of reachability and a
     strong end-to-end test of projection/complement/product. *)
  check_formula "Leq via sets"
    "forallS X. ((x in X & forall u. forall v. ((u in X & (S1(u,v) | S2(u,v))) -> v in X)) -> y in X)"
    [ "x"; "y" ]

let test_mso_leq_definability () =
  (* The set-based definition compiles to an automaton equivalent to the
     direct Leq atom's. *)
  let direct = Mso_compile.compile ~base ~free:[ "x"; "y" ]
      (Parser.mso_of_string "Leq(x,y)")
  in
  let viasets = Mso_compile.compile ~base ~free:[ "x"; "y" ]
      (Parser.mso_of_string
         "forallS X. ((x in X & forall u. forall v. ((u in X & (S1(u,v) | S2(u,v))) -> v in X)) -> y in X)")
  in
  (* Compare on trees (not raw language equality: the set-based automaton
     may differ outside singleton-annotated trees). *)
  let g = Prng.create 5 in
  for _ = 1 to 10 do
    let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(1 + Prng.int g 8) in
    let n = Btree.size tree in
    for x = 0 to n - 1 do
      for y = 0 to n - 1 do
        let elems = [ ("x", x); ("y", y) ] in
        check bool "defs agree"
          (Mso_compile.accepts direct tree ~elems ~sets:[])
          (Mso_compile.accepts viasets tree ~elems ~sets:[])
      done
    done
  done

let test_tree_query_basics () =
  (* psi(x, y) = "y is a child of x" as a query: k = 1, s = 1. *)
  let phi = Parser.mso_of_string "S1(x,y) | S2(x,y)" in
  let compiled = Mso_compile.compile ~base ~free:[ "x"; "y" ] phi in
  let q = Tree_query.of_compiled compiled ~params:[ "x" ] ~results:[ "y" ] in
  check bool "member" true
    (Tree_query.member q tree1 (Tuple.singleton 0) (Tuple.singleton 1));
  check bool "not member" false
    (Tree_query.member q tree1 (Tuple.singleton 0) (Tuple.singleton 2));
  let w0 = Tree_query.result_set q tree1 (Tuple.singleton 0) in
  check (list int) "children of root" [ 1; 4 ]
    (List.map (fun t -> t.(0)) (Tuple.Set.elements w0));
  (* Active = all non-root nodes. *)
  let active = Wm_watermark.Query_system.(active_array (of_tree q tree1)) in
  check int "active count" 5 (Array.length active);
  (* f with unit weights counts children. *)
  let w = Trees_gen.random_weights (Prng.create 1) tree1 ~lo:1 ~hi:1 in
  check int "f = #children" 2 (Tree_query.f q tree1 ~weights:w (Tuple.singleton 0))

(* Random-automaton algebra: boolean operations and minimization must act
   on the recognized languages, not just on the particular automata built
   by the MSO compiler. *)
let random_dta g ~nstates ~nlabels =
  let table =
    Array.init ((nstates + 1) * (nstates + 1) * nlabels) (fun _ ->
        Prng.int g nstates)
  in
  let finals = Array.init nstates (fun _ -> Prng.bool g) in
  Dta.make ~nstates ~nlabels
    ~final:(fun q -> finals.(q))
    (fun ql qr l ->
      table.((((ql + 1) * (nstates + 1)) + (qr + 1)) * nlabels + l))

(* Property: determinization of a projected automaton preserves the
   nondeterministic semantics.  Projecting the pebble bit of a random DTA
   over a 1-bit alphabet gives an NTA with two successors per entry; its
   subset construction must accept exactly the trees the set-of-states
   simulation of the same projection accepts. *)
let prop_determinize_agrees =
  QCheck.Test.make ~count:40 ~name:"determinize agrees with NTA simulation"
    QCheck.(int_range 1 40)
    (fun seed ->
      let g = Prng.create seed in
      let alpha = Alphabet.make ~base_size:2 ~bits:1 in
      let d = random_dta g ~nstates:(2 + Prng.int g 3) ~nlabels:(Alphabet.size alpha) in
      let det = Nta.determinize (Nta.project d ~alpha ~bit:0) in
      let nta = Tree_ref.nta_project d ~alpha ~bit:0 in
      List.for_all
        (fun _ ->
          let tree =
            Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(1 + Prng.int g 12)
          in
          let label_of = Btree.label tree in
          Dta.accepts det tree ~label_of = Tree_ref.nta_accepts nta tree ~label_of)
        (List.init 10 Fun.id))

let dta_gen = QCheck.int_range 1 10_000

let with_random_setup seed f =
  let g = Prng.create seed in
  let nlabels = 2 in
  let a = random_dta g ~nstates:(2 + Prng.int g 3) ~nlabels in
  let b = random_dta g ~nstates:(2 + Prng.int g 3) ~nlabels in
  let trees =
    List.init 10 (fun _ ->
        Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(1 + Prng.int g 12))
  in
  f a b trees

let prop_product_is_intersection =
  QCheck.Test.make ~count:50 ~name:"product(&&) recognizes the intersection"
    dta_gen
    (fun seed ->
      with_random_setup seed (fun a b trees ->
          let both = Dta.product a b ~final:( && ) in
          List.for_all
            (fun t ->
              let lbl v = Btree.label t v in
              Dta.accepts both t ~label_of:lbl
              = (Dta.accepts a t ~label_of:lbl && Dta.accepts b t ~label_of:lbl))
            trees))

let prop_complement_is_negation =
  QCheck.Test.make ~count:50 ~name:"complement recognizes the complement"
    dta_gen
    (fun seed ->
      with_random_setup seed (fun a _ trees ->
          let not_a = Dta.complement a in
          List.for_all
            (fun t ->
              let lbl v = Btree.label t v in
              Dta.accepts not_a t ~label_of:lbl
              = not (Dta.accepts a t ~label_of:lbl))
            trees))

let prop_minimize_preserves_language =
  QCheck.Test.make ~count:50 ~name:"minimize preserves the language" dta_gen
    (fun seed ->
      with_random_setup seed (fun a _ trees ->
          let m = Dta.minimize a in
          Dta.equivalent a m
          && List.for_all
               (fun t ->
                 let lbl v = Btree.label t v in
                 Dta.accepts m t ~label_of:lbl = Dta.accepts a t ~label_of:lbl)
               trees))

let prop_de_morgan_automata =
  QCheck.Test.make ~count:40 ~name:"~(A & B) = ~A | ~B on automata" dta_gen
    (fun seed ->
      with_random_setup seed (fun a b _ ->
          Dta.equivalent
            (Dta.complement (Dta.product a b ~final:( && )))
            (Dta.product (Dta.complement a) (Dta.complement b) ~final:( || ))))

let prop_determinize_of_dta_is_identity_language =
  QCheck.Test.make ~count:40 ~name:"determinize(of_dta) preserves language"
    dta_gen
    (fun seed ->
      with_random_setup seed (fun a _ _ ->
          Dta.equivalent a (Nta.determinize (nta_of_dta a))))

(* The O(n*m) context-acceptance result_set must agree with per-candidate
   automaton runs. *)
let prop_result_set_fast_agrees =
  QCheck.Test.make ~count:30 ~name:"fast result_set = per-candidate runs"
    QCheck.(int_range 1 60)
    (fun seed ->
      let g = Prng.create (900 + seed) in
      let tree =
        Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(2 + Prng.int g 25)
      in
      let phi = Parser.mso_of_string "Leq(x,y) & a(y)" in
      let compiled =
        Mso_compile.compile ~base:[| "a"; "b" |] ~free:[ "x"; "y" ] phi
      in
      let q = Tree_query.of_compiled compiled ~params:[ "x" ] ~results:[ "y" ] in
      let n = Btree.size tree in
      List.for_all
        (fun x ->
          let fast = Tree_query.result_set q tree (Tuple.singleton x) in
          List.for_all
            (fun y ->
              Tuple.Set.mem (Tuple.singleton y) fast
              = Tree_query.member q tree (Tuple.singleton x) (Tuple.singleton y))
            (List.init n Fun.id))
        (List.init n Fun.id))

(* The one-pass result sets against one automaton run per (a, b) pair,
   on queries whose outputs range from one node per parameter to whole
   subtrees, and lie below, above and beside the parameter. *)
let one_pass_queries =
  lazy
    (List.map
       (fun src ->
         let compiled =
           Mso_compile.compile ~base ~free:[ "x"; "y" ] (Parser.mso_of_string src)
         in
         (src, Tree_query.of_compiled compiled ~params:[ "x" ] ~results:[ "y" ]))
       [
         "Leq(x,y)"; "Leq(x,y) & a(y)"; "S1(x,y) | S2(x,y)"; "S1(x,y)"; "x = y";
         "Leq(y,x)"; "exists z. (S1(z,x) & S2(z,y))"; "~Leq(x,y) & ~Leq(y,x) & b(y)";
       ])

let prop_result_sets_agree =
  QCheck.Test.make ~count:40 ~name:"result_sets = per-pair member runs"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let g = Prng.create seed in
      let tree =
        Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(1 + Prng.int g 40)
      in
      let n = Btree.size tree in
      List.for_all
        (fun (_, q) ->
          let sets = Tree_query.result_sets q tree in
          Array.length sets = n
          && List.for_all
               (fun a ->
                 List.for_all
                   (fun b ->
                     Tuple.Set.mem (Tuple.singleton b) sets.(a)
                     = Tree_query.member q tree (Tuple.singleton a) (Tuple.singleton b))
                   (List.init n Fun.id))
               (List.init n Fun.id))
        (Lazy.force one_pass_queries))

(* Random automata with a few "hot" states most transitions lead to, so
   that some states are unreachable and some are equivalent. *)
let skewed_dta g ~nlabels =
  let nstates = 1 + Prng.int g 7 in
  let hot = 1 + Prng.int g nstates in
  let table =
    Array.init ((nstates + 1) * (nstates + 1) * nlabels) (fun _ ->
        if Prng.int g 10 < 8 then Prng.int g hot else Prng.int g nstates)
  in
  let finals = Array.init nstates (fun _ -> Prng.bool g) in
  Dta.make ~nstates ~nlabels
    ~final:(fun q -> finals.(q))
    (fun ql qr l -> table.((((ql + 1) * (nstates + 1)) + (qr + 1)) * nlabels + l))

let same_table a b = Tree_ref.table_string a = Tree_ref.table_string b

let prop_product_is_reduced_pairing =
  QCheck.Test.make ~count:100 ~name:"product = reduce of the full pairing table"
    dta_gen
    (fun seed ->
      let g = Prng.create seed in
      let nlabels = 1 + Prng.int g 4 in
      let a = skewed_dta g ~nlabels and b = skewed_dta g ~nlabels in
      List.for_all
        (fun final ->
          same_table (Dta.product a b ~final)
            (Dta.reduce (Tree_ref.full_product a b ~final)))
        [ ( && ); ( || ); ( <> ) ])

let prop_minimize_matches_reference =
  QCheck.Test.make ~count:100 ~name:"minimize = list-signature minimize"
    dta_gen
    (fun seed ->
      let g = Prng.create seed in
      let a = skewed_dta g ~nlabels:(1 + Prng.int g 4) in
      same_table (Dta.minimize a) (Tree_ref.minimize a))

let prop_determinize_matches_reference =
  QCheck.Test.make ~count:100 ~name:"project+determinize = Hashtbl subsets"
    dta_gen
    (fun seed ->
      let g = Prng.create seed in
      let alpha = Alphabet.make ~base_size:(1 + Prng.int g 2) ~bits:(1 + Prng.int g 2) in
      let d = skewed_dta g ~nlabels:(Alphabet.size alpha) in
      let bit = Prng.int g alpha.Alphabet.bits in
      same_table
        (Nta.determinize (Nta.project d ~alpha ~bit))
        (Tree_ref.project_determinize d ~alpha ~bit))

(* Like [skewed_dta], over up to 64 letters, each of which copies its
   column from one of 1-4 templates: letters share columns, as on the
   compiler's pebble alphabets, so the letter classes are exercised. *)
let templated_dta g ~nlabels =
  let nstates = 1 + Prng.int g 7 in
  let hot = 1 + Prng.int g nstates in
  let w = nstates + 1 in
  let templates =
    Array.init (1 + Prng.int g 4) (fun _ ->
        Array.init (w * w) (fun _ ->
            if Prng.int g 10 < 8 then Prng.int g hot else Prng.int g nstates))
  in
  let pick = Array.init nlabels (fun _ -> Prng.int g (Array.length templates)) in
  let finals = Array.init nstates (fun _ -> Prng.bool g) in
  Dta.make ~nstates ~nlabels
    ~final:(fun q -> finals.(q))
    (fun ql qr l -> templates.(pick.(l)).(((ql + 1) * w) + qr + 1))

let prop_templated_product =
  QCheck.Test.make ~count:50 ~name:"templated: product = reduced pairing table"
    dta_gen
    (fun seed ->
      let g = Prng.create seed in
      let nlabels = 1 + Prng.int g 64 in
      let a = templated_dta g ~nlabels and b = templated_dta g ~nlabels in
      List.for_all
        (fun final ->
          same_table (Dta.product a b ~final)
            (Dta.reduce (Tree_ref.full_product a b ~final)))
        [ ( && ); ( || ); ( <> ) ])

let prop_templated_minimize =
  QCheck.Test.make ~count:50 ~name:"templated: minimize = list-signature"
    dta_gen
    (fun seed ->
      let g = Prng.create seed in
      let a = templated_dta g ~nlabels:(1 + Prng.int g 64) in
      same_table (Dta.minimize a) (Tree_ref.minimize a))

let prop_templated_determinize =
  QCheck.Test.make ~count:50 ~name:"templated: project+determinize = Hashtbl"
    dta_gen
    (fun seed ->
      let g = Prng.create seed in
      let bits = 1 + Prng.int g 4 in
      let alpha = Alphabet.make ~base_size:(1 + Prng.int g (64 lsr bits)) ~bits in
      let d = templated_dta g ~nlabels:(Alphabet.size alpha) in
      let bit = Prng.int g bits in
      same_table
        (Nta.determinize (Nta.project d ~alpha ~bit))
        (Tree_ref.project_determinize d ~alpha ~bit))

let prop_relabel_is_make =
  QCheck.Test.make ~count:100 ~name:"relabel = closure-built make" dta_gen
    (fun seed ->
      let g = Prng.create seed in
      let d = templated_dta g ~nlabels:(1 + Prng.int g 64) in
      let nlabels = 1 + Prng.int g 64 in
      let f = Array.init nlabels (fun _ -> Prng.int g (Dta.nlabels d)) in
      same_table
        (Dta.relabel d ~nlabels (Array.get f))
        (Dta.make ~nstates:(Dta.nstates d) ~nlabels ~final:(Dta.is_final d)
           (fun ql qr l -> Dta.delta d ql qr f.(l))))

let suite =
  [
    ("btree shape", `Quick, test_btree_shape);
    ("btree order/lca", `Quick, test_btree_order);
    ("btree traversals", `Quick, test_btree_traversals);
    ("btree to structure", `Quick, test_btree_to_structure);
    ("dta run", `Quick, test_dta_run);
    ("dta boolean ops", `Quick, test_dta_boolean_ops);
    ("dta emptiness", `Quick, test_dta_empty);
    ("dta reduce/minimize", `Quick, test_dta_reduce_minimize);
    ("nta determinize", `Quick, test_nta_determinize_preserves);
    ("mso: label atom", `Quick, test_mso_label);
    ("mso: S1", `Quick, test_mso_s1);
    ("mso: S2", `Quick, test_mso_s2);
    ("mso: Leq", `Quick, test_mso_leq);
    ("mso: equality", `Quick, test_mso_eq);
    ("mso: negation", `Quick, test_mso_not);
    ("mso: exists", `Quick, test_mso_exists);
    ("mso: sentence", `Quick, test_mso_sentence);
    ("mso: root definition", `Quick, test_mso_root);
    ("mso: leaf definition", `Quick, test_mso_leaf);
    ("mso: set quantifier closure", `Slow, test_mso_set_quantifier);
    ("mso: Leq definability", `Slow, test_mso_leq_definability);
    ("tree query basics", `Quick, test_tree_query_basics);
    QCheck_alcotest.to_alcotest prop_determinize_agrees;
    QCheck_alcotest.to_alcotest prop_result_set_fast_agrees;
    QCheck_alcotest.to_alcotest prop_product_is_intersection;
    QCheck_alcotest.to_alcotest prop_complement_is_negation;
    QCheck_alcotest.to_alcotest prop_minimize_preserves_language;
    QCheck_alcotest.to_alcotest prop_de_morgan_automata;
    QCheck_alcotest.to_alcotest prop_determinize_of_dta_is_identity_language;
    QCheck_alcotest.to_alcotest prop_result_sets_agree;
    QCheck_alcotest.to_alcotest prop_product_is_reduced_pairing;
    QCheck_alcotest.to_alcotest prop_minimize_matches_reference;
    QCheck_alcotest.to_alcotest prop_determinize_matches_reference;
    QCheck_alcotest.to_alcotest prop_templated_product;
    QCheck_alcotest.to_alcotest prop_templated_minimize;
    QCheck_alcotest.to_alcotest prop_templated_determinize;
    QCheck_alcotest.to_alcotest prop_relabel_is_make;
  ]
