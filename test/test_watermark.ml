(* Tests for Wm_watermark: query systems, distortion, pair markings, the
   Theorem 3 and Theorem 5 schemes end to end, the adversarial wrapper,
   capacity counting vs the permanent, incremental updates, and the
   Agrawal-Kiernan baseline. *)

open Wm_watermark
open Wm_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let list = Alcotest.list
let _ = (int, bool, string, fun x -> list x)

let fig = Paper_examples.figure1
let figq = Paper_examples.figure1_query

let fig_qs () = Query_system.of_relational fig.Weighted.graph figq

let msg bits = Codec.of_bool_list bits

(* Element pairs as ranks of the pairing [p]; -1 outside W. *)
let ranked p pairs =
  let rank w = Option.value ~default:(-1) (Array.find_index (Tuple.equal w) (Pairing.active p)) in
  Array.of_list (List.map (fun { Pairing.fst; snd } -> (rank fst, rank snd)) pairs)

(* --- query systems -------------------------------------------------- *)

let test_qs_matches_query () =
  let qs = fig_qs () in
  check int "param count" 6 (List.length (Query_system.params qs));
  List.iter
    (fun a ->
      check bool "result sets agree" true
        (Tuple.Set.equal
           (Query_system.result_set qs a)
           (Query.result_set fig.Weighted.graph figq a)))
    (Query_system.params qs);
  check int "active" 6 (List.length (Query_system.active qs));
  check int "f(a)" 20 (Query_system.f qs fig.Weighted.weights (Tuple.singleton 0))

let test_qs_reconstruct () =
  let qs = fig_qs () in
  let server = Query_system.server qs fig.Weighted.weights in
  let observed = Query_system.reconstruct qs server in
  List.iter
    (fun w ->
      check int "observed = real" (Weighted.get fig.Weighted.weights w)
        (Tuple.Map.find w observed))
    (Query_system.active qs)

(* --- distortion ------------------------------------------------------ *)

let test_distortion_of_marks () =
  let qs = fig_qs () in
  let marks = [ (Tuple.singleton 3, 1); (Tuple.singleton 4, -1) ] in
  check int "figure 3 global distortion" 1 (Distortion.of_marks qs marks);
  let w' = Weighted.apply_marks fig.Weighted.weights marks in
  check int "agrees with applied" 1
    (Distortion.global qs fig.Weighted.weights w');
  check bool "is_global 1" true
    (Distortion.is_global ~d:1 qs fig.Weighted.weights w');
  check bool "not 0-global" false
    (Distortion.is_global ~d:0 qs fig.Weighted.weights w')

(* --- pairing: the Figure 4 partition --------------------------------- *)

let canonical_of_figure1 () =
  let ix =
    Neighborhood.index fig.Weighted.graph ~rho:1
      (Query.all_params fig.Weighted.graph figq)
  in
  Array.to_list ix.Neighborhood.representatives

let test_classes_figure4 () =
  let qs = fig_qs () in
  let canonical = canonical_of_figure1 () in
  check int "three canonical params" 3 (List.length canonical);
  let classes = Pairing.classes (Pairing.make qs ~canonical) in
  let cl x = List.assoc (Tuple.singleton x) classes in
  (* Figure 4: cl(a) = cl(b) = cl(c); cl(d) has two types; cl(e) one;
     cl(f) empty. *)
  check bool "a~b~c" true (cl 0 = cl 1 && cl 1 = cl 2);
  check int "|cl d| = 2" 2 (List.length (cl 3));
  check int "|cl e| = 1" 1 (List.length (cl 4));
  check (list int) "cl f empty" [] (cl 5);
  check bool "e's class inside d's" true
    (List.for_all (fun t -> List.mem t (cl 3)) (cl 4))

let test_s_partition_figure4 () =
  let qs = fig_qs () in
  let canonical = canonical_of_figure1 () in
  let p = Pairing.make qs ~canonical in
  let pairs = Pairing.to_pairs p (Pairing.s_partition p) in
  (* Only {a,b,c} groups more than one element: exactly one pair. *)
  check int "one pair" 1 (List.length pairs);
  let p = List.hd pairs in
  check bool "pair within {a,b,c}" true
    (List.mem p.Pairing.fst [ Tuple.singleton 0; Tuple.singleton 1; Tuple.singleton 2 ]
    && List.mem p.Pairing.snd [ Tuple.singleton 0; Tuple.singleton 1; Tuple.singleton 2 ])

let test_orientation_marks () =
  let pairs =
    [ { Pairing.fst = Tuple.singleton 0; snd = Tuple.singleton 1 };
      { Pairing.fst = Tuple.singleton 2; snd = Tuple.singleton 3 } ]
  in
  let marks = Pairing.orientation_marks pairs (msg [ true; false ]) in
  check int "four deltas" 4 (List.length marks);
  check int "sum zero" 0 (List.fold_left (fun a (_, d) -> a + d) 0 marks);
  check int "bit1 -> +1 on fst" 1 (List.assoc (Tuple.singleton 0) marks);
  check int "bit0 -> -1 on fst" (-1) (List.assoc (Tuple.singleton 2) marks);
  (* Truncated message leaves later pairs alone. *)
  check int "short message" 2
    (List.length (Pairing.orientation_marks pairs (msg [ true ])))

let test_split_counts () =
  let qs = fig_qs () in
  (* The pair (d,e): split by W_c (only d) and W_f (only e), not by W_a. *)
  let p = Pairing.make qs ~canonical:[] in
  let pairs = ranked p [ { Pairing.fst = Tuple.singleton 3; snd = Tuple.singleton 4 } ] in
  let counts =
    List.combine (Query_system.params qs) (Array.to_list (Pairing.split_counts p pairs))
  in
  check int "W_a unsplit" 0 (List.assoc (Tuple.singleton 0) counts);
  check int "W_c split" 1 (List.assoc (Tuple.singleton 2) counts);
  check int "W_f split" 1 (List.assoc (Tuple.singleton 5) counts);
  check int "max" 1 (Pairing.max_split p pairs)

let child_query () =
  let phi = Parser.mso_of_string "S1(x,y) | S2(x,y)" in
  let compiled =
    Wm_trees.Mso_compile.compile ~base:[| "a"; "b" |] ~free:[ "x"; "y" ] phi
  in
  Wm_trees.Tree_query.of_compiled compiled ~params:[ "x" ] ~results:[ "y" ]

(* A query system for the pairing properties, with the evaluator it was
   built from, its parameters, the tuples a canonical list draws from and
   a random tuple of the weight arity over the universe. *)
type family = {
  qs : Query_system.t;
  params : Tuple.t array;
  eval : Tuple.t -> Tuple.Set.t;
  canon : Tuple.t array;
  elt : unit -> Tuple.t;
}

(* [sets.(i)] is W_a of the singleton [a = (i)]; the last four are asked
   only as canonical tuples, never as parameters. *)
let custom_family g sets ~arity ~n =
  let np = Array.length sets - 4 in
  let eval a = sets.(a.(0)) in
  {
    qs =
      Query_system.of_custom ~params:(List.init np Tuple.singleton) ~result_set:eval
        ~weight_arity:arity;
    params = Array.init np Tuple.singleton;
    eval;
    canon = Array.init (np + 4) Tuple.singleton;
    elt = (fun () -> Array.init arity (fun _ -> Prng.int g n));
  }

(* Substrate query systems: a random FO query over a random graph, the
   travel query over a small travel database, or the child query over a
   random tree.  Canonical lists draw parameters. *)
let fo_queries =
  [|
    ([ "u" ], [ "v" ], "E(u,v)");
    ([ "u" ], [ "v" ], "E(u,v) | E(v,u)");
    ([ "u" ], [ "v" ], "exists w. (E(u,w) & E(w,v))");
    ([ "u" ], [ "v" ], "u = v | E(u,v)");
    ([ "u" ], [ "v" ], "~E(u,v) & ~(u = v)");
    ([ "u" ], [ "v"; "w" ], "E(u,v) & E(v,w)");
    ([ "u"; "w" ], [ "v" ], "E(u,v) & E(v,w)");
  |]

let substrate_family g =
  let relational (ws : Weighted.structure) q =
    let gr = ws.Weighted.graph in
    let params = Array.of_list (Query.all_params gr q) in
    {
      qs = Query_system.of_relational gr q;
      params;
      eval = Query.result_set gr q;
      canon = params;
      elt =
        (fun () -> Array.init (Query.result_arity q) (fun _ -> Prng.int g (Structure.size gr)));
    }
  in
  match Prng.int g 3 with
  | 0 ->
      let n = 3 + Prng.int g 10 in
      let params, results, phi = fo_queries.(Prng.int g (Array.length fo_queries)) in
      relational
        (Random_struct.graph g ~n ~max_degree:3 ~edges:(Prng.int g (2 * n)))
        (Parser.query_of_string ~params ~results phi)
  | 1 ->
      relational
        (Random_struct.travel g ~travels:(1 + Prng.int g 4) ~transports:(2 + Prng.int g 8))
        Random_struct.travel_query
  | _ ->
      let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(1 + Prng.int g 30) in
      let tq = child_query () in
      let params = Array.of_list (Wm_trees.Tree_query.all_params tq tree) in
      {
        qs = Query_system.of_tree tq tree;
        params;
        eval = Wm_trees.Tree_query.result_set tq tree;
        canon = params;
        elt = (fun () -> Tuple.singleton (Prng.int g (Wm_trees.Btree.size tree)));
      }

(* Every tuple a canonical list may hold, parameter or not, reads the
   evaluator's W_a. *)
let asks_agree f =
  Array.for_all (fun a -> Tuple.Set.equal (Query_system.result_set f.qs a) (f.eval a)) f.canon

let canonical_of g f =
  List.init (Prng.int g 5) (fun _ -> f.canon.(Prng.int g (Array.length f.canon)))

(* The pairing tail against its plain formulation: membership tests per
   canonical parameter for cl(w), sorted class groups paired up and the
   pairs sorted, a fold of unions of the evaluator's result sets for the
   active set, and greedy admission over a shuffled copy of the pairs
   that rescans every parameter's result set, the admitted pairs put back
   in input order.  Random custom query systems with overlapping result
   sets (canonical lists holding non-parameters too), FO, travel and tree
   query systems; the greedy pass also sees its input in a shuffled
   order. *)
let prop_pairing_tail_matches_reference =
  QCheck.Test.make ~count:60 ~name:"pairing tail == plain formulation"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x9A1 + seed) in
      let f =
        if Prng.bool g then substrate_family g
        else
          let n = 4 + Prng.int g 40 in
          custom_family g ~arity:1 ~n
            (Array.init (n + 4) (fun _ ->
                 Tuple.Set.of_list
                   (List.init (Prng.int g 4) (fun _ -> Tuple.singleton (Prng.int g n)))))
      in
      let sets = Array.map f.eval f.params in
      let n = Array.length sets in
      let canonical = canonical_of g f in
      let active =
        Array.fold_left Tuple.Set.union Tuple.Set.empty sets |> Tuple.Set.elements
      in
      let classes =
        List.map
          (fun w ->
            ( w,
              List.filter_map
                (fun (i, a) -> if Tuple.Set.mem w (f.eval a) then Some i else None)
                (List.mapi (fun i a -> (i, a)) canonical) ))
          active
      in
      let by_fst p q = Tuple.compare p.Pairing.fst q.Pairing.fst in
      let partition =
        let groups = Hashtbl.create 16 in
        List.iter
          (fun (w, cl) ->
            Hashtbl.replace groups cl
              (w :: Option.value ~default:[] (Hashtbl.find_opt groups cl)))
          classes;
        let rec pair_up = function
          | a :: b :: rest -> { Pairing.fst = a; snd = b } :: pair_up rest
          | _ -> []
        in
        List.sort by_fst
          (Hashtbl.fold
             (fun _ ws acc -> pair_up (List.sort Tuple.compare ws) @ acc)
             groups [])
      in
      let greedy pairs ~budget =
        let arr = Array.of_list pairs in
        Prng.shuffle (Prng.create seed) arr;
        let split = Array.make n 0 in
        let chosen = ref [] in
        let position p =
          let rec go i = function
            | q :: rest -> if q == p then i else go (i + 1) rest
            | [] -> assert false
          in
          go 0 pairs
        in
        Array.iter
          (fun pr ->
            let touched =
              List.filter
                (fun a ->
                  Tuple.Set.mem pr.Pairing.fst sets.(a) <> Tuple.Set.mem pr.Pairing.snd sets.(a))
                (List.init n Fun.id)
            in
            if List.for_all (fun a -> split.(a) < budget) touched then begin
              List.iter (fun a -> split.(a) <- split.(a) + 1) touched;
              chosen := pr :: !chosen
            end)
          arr;
        ( List.sort (fun p q -> compare (position p) (position q)) !chosen,
          Array.fold_left max 0 split )
      in
      let budget = 1 + Prng.int g 3 in
      let shuffled =
        let a = Array.of_list partition in
        Prng.shuffle g a;
        Array.to_list a
      in
      let p = Pairing.make f.qs ~canonical in
      let select pairs =
        let chosen, split =
          Pairing.select_greedy (Prng.create seed) p (ranked p pairs) ~budget
        in
        (Pairing.to_pairs p chosen, split)
      in
      asks_agree f
      && Query_system.active f.qs = active
      && Array.to_list (Pairing.active p) = active
      && Pairing.classes p = classes
      && Pairing.to_pairs p (Pairing.s_partition p) = partition
      && select partition = greedy partition ~budget
      && select shuffled = greedy shuffled ~budget)

(* The rank-based pairing against the frozen Tuple-set formulation
   (Pairing_ref): random custom query systems whose result sets overlap,
   at weight arity 1 and 2, canonical lists with repeats and
   non-parameters, and FO, travel and tree query systems.  Classes, the
   partition, split counts, both selections (greedy also on a shuffled
   candidate order) and the max split of loose pairs, some of whose
   endpoints lie outside W. *)
let prop_pairing_matches_ref =
  QCheck.Test.make ~count:80 ~name:"CSR pairing == Pairing_ref"
    QCheck.(pair (int_range 0 100_000) (int_range 1 2))
    (fun (seed, arity) ->
      let g = Prng.create (0xC5A + seed) in
      let f =
        if Prng.bool g then substrate_family g
        else
          let n = 3 + Prng.int g 12 and np = 2 + Prng.int g 30 in
          let elt () = Array.init arity (fun _ -> Prng.int g n) in
          custom_family g ~arity ~n
            (Array.init (np + 4) (fun _ ->
                 Tuple.Set.of_list (List.init (Prng.int g 6) (fun _ -> elt ()))))
      in
      let qs = f.qs in
      let canonical = canonical_of g f in
      let p = Pairing.make qs ~canonical in
      let cands = Pairing.s_partition p in
      let partition = Pairing_ref.s_partition qs ~canonical in
      let budget = 1 + Prng.int g 3 in
      let shuffled = Array.copy cands in
      Prng.shuffle g shuffled;
      let greedy c =
        let chosen, split = Pairing.select_greedy (Prng.create seed) p c ~budget in
        (Pairing.to_pairs p chosen, split)
      in
      let loose = List.init 6 (fun _ -> { Pairing.fst = f.elt (); snd = f.elt () }) in
      asks_agree f
      && Pairing.classes p = Pairing_ref.classes qs ~canonical
      && Pairing.to_pairs p cands = partition
      && List.combine (Query_system.params qs) (Array.to_list (Pairing.split_counts p cands))
         = Pairing_ref.split_counts qs partition
      && greedy cands = Pairing_ref.select_greedy (Prng.create seed) qs partition ~budget
      && greedy shuffled
         = Pairing_ref.select_greedy (Prng.create seed) qs (Pairing.to_pairs p shuffled) ~budget
      && Option.map (Pairing.to_pairs p)
           (Pairing.select_random (Prng.create seed) p cands ~p:0.5 ~budget)
         = Pairing_ref.select_random (Prng.create seed) qs partition ~p:0.5 ~budget
      && Pairing.max_split p (ranked p loose) = Pairing_ref.max_split qs loose)

(* --- local scheme (Theorem 3) ---------------------------------------- *)

let test_local_figure1_roundtrip () =
  match Local_scheme.prepare ~options:{ Local_scheme.default_options with rho = Some 1 } fig figq with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let r = Local_scheme.report scheme in
      check int "ntp" 3 r.Local_scheme.ntp;
      check int "degree" 3 r.Local_scheme.degree;
      check bool "capacity >= 1" true (Local_scheme.capacity scheme >= 1);
      check bool "certified split within budget" true
        (r.Local_scheme.max_split <= r.Local_scheme.budget);
      let message = msg [ true ] in
      let marked = Local_scheme.mark scheme message fig.Weighted.weights in
      check bool "1-local" true
        (Weighted.is_local_distortion ~c:1 fig.Weighted.weights marked);
      let qs = Local_scheme.query_system scheme in
      check bool "global within budget" true
        (Distortion.global qs fig.Weighted.weights marked <= r.Local_scheme.budget);
      let decoded =
        Local_scheme.detect_weights scheme ~original:fig.Weighted.weights
          ~suspect:marked ~length:1
      in
      check bool "roundtrip" true (Bitvec.equal decoded message)

let ring_instance seed n =
  Random_struct.regular_rings (Prng.create seed) ~n

let adjacency = figq

let test_local_rings_capacity () =
  let ws = ring_instance 7 40 in
  match Local_scheme.prepare ~options:{ Local_scheme.default_options with rho = Some 1 } ws adjacency with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let r = Local_scheme.report scheme in
      check bool "rings have few types" true (r.Local_scheme.ntp <= 8);
      check bool "capacity grows" true (Local_scheme.capacity scheme >= 5)

let test_local_rings_roundtrip_many_messages () =
  let ws = ring_instance 11 30 in
  match Local_scheme.prepare ~options:{ Local_scheme.default_options with rho = Some 1 } ws adjacency with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let cap = min 6 (Local_scheme.capacity scheme) in
      let g = Prng.create 99 in
      let seen = Hashtbl.create 16 in
      for _ = 1 to 8 do
        let message = Codec.random g cap in
        let marked = Local_scheme.mark scheme message ws.Weighted.weights in
        Hashtbl.replace seen
          (List.map snd (Weighted.bindings marked))
          ();
        let decoded =
          Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
            ~suspect:marked ~length:cap
        in
        check bool "decodes" true (Bitvec.equal decoded message)
      done;
      check bool "distinct messages give distinct copies" true
        (Hashtbl.length seen >= 2)

let test_local_random_selection () =
  (* The paper's randomized draw also works (with retries). *)
  let ws = ring_instance 3 24 in
  let options =
    { Local_scheme.default_options with rho = Some 1; selection = `Random 500 }
  in
  match Local_scheme.prepare ~options ws adjacency with
  | Error e -> Alcotest.fail ("random selection failed: " ^ e)
  | Ok scheme ->
      let r = Local_scheme.report scheme in
      check bool "certificate holds" true
        (r.Local_scheme.max_split <= r.Local_scheme.budget)

let test_local_offset_immune () =
  (* Pair-difference detection shrugs off a constant offset attack. *)
  let ws = ring_instance 5 30 in
  match Local_scheme.prepare ~options:{ Local_scheme.default_options with rho = Some 1 } ws adjacency with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let cap = min 4 (Local_scheme.capacity scheme) in
      let message = Codec.random (Prng.create 1) cap in
      let marked = Local_scheme.mark scheme message ws.Weighted.weights in
      let qs = Local_scheme.query_system scheme in
      let attacked =
        Adversary.apply (Prng.create 2)
          (Adversary.Constant_offset { delta = 7 })
          ~active:(Query_system.active qs) marked
      in
      let decoded =
        Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
          ~suspect:attacked ~length:cap
      in
      check bool "offset immune" true (Bitvec.equal decoded message)

let test_local_error_cases () =
  (match Local_scheme.prepare fig (Query.make ~params:[ "u" ] ~results:[ "v"; "w" ]
        Fo.(atom "E" [ "u"; "v" ] &&& atom "E" [ "u"; "w" ])) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity mismatch accepted");
  let empty = Weighted.weigh (fun _ -> 1) (Structure.create Schema.graph 3) in
  match Local_scheme.prepare empty figq with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty active set accepted"

let test_local_mark_over_capacity () =
  (* the error names the function the caller actually invoked *)
  let ws = ring_instance 7 40 in
  match Local_scheme.prepare ~options:{ Local_scheme.default_options with rho = Some 1 } ws adjacency with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let message = Codec.random (Prng.create 3) (Local_scheme.capacity scheme + 1) in
      Alcotest.check_raises "over-capacity message"
        (Invalid_argument "Local_scheme.mark: message longer than capacity")
        (fun () -> ignore (Local_scheme.mark scheme message ws.Weighted.weights))

(* --- weights on pairs: result arity s = 2 ----------------------------- *)

let test_local_edge_weights () =
  (* Edge-weighted graphs: weights sit on ordered pairs, the query returns
     the incident edges of a vertex.  Exercises the s = 2 path through
     pairing, marking and detection. *)
  let n = 24 in
  let ring = Random_struct.regular_rings (Prng.create 2) ~n in
  let schema = Schema.make ~weight_arity:2 [ { Schema.name = "E"; arity = 2 } ] in
  let g =
    Relation.fold
      (fun t acc -> Structure.add_tuple acc "E" t)
      (Structure.relation ring.Weighted.graph "E")
      (Structure.create schema n)
  in
  let w =
    Relation.fold
      (fun t acc -> Weighted.set acc t (100 + t.(0) + t.(1)))
      (Structure.relation g "E") (Weighted.create 2)
  in
  let ws = Weighted.make g w in
  let q =
    Query.make ~params:[ "u" ] ~results:[ "v1"; "v2" ]
      Fo.(atom "E" [ "v1"; "v2" ] &&& (eq "u" "v1" ||| eq "u" "v2"))
  in
  match Local_scheme.prepare ~options:{ Local_scheme.default_options with rho = Some 1 } ws q with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      check bool "has capacity" true (Local_scheme.capacity scheme >= 1);
      let cap = min 4 (Local_scheme.capacity scheme) in
      let message = Codec.random (Prng.create 3) cap in
      let marked = Local_scheme.mark scheme message ws.Weighted.weights in
      let qs = Local_scheme.query_system scheme in
      check bool "within budget" true
        (Distortion.global qs ws.Weighted.weights marked
        <= (Local_scheme.report scheme).Local_scheme.budget);
      check bool "roundtrip" true
        (Bitvec.equal message
           (Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
              ~suspect:marked ~length:cap))

let test_local_pair_parameters () =
  (* Parameters of arity r = 2: psi(u1,u2; v) = E(u1,v) & E(v,u2) — "the
     common neighbors of the pair".  Exercises neighborhood typing and
     canonical parameters over U^2. *)
  let ws = Random_struct.regular_rings (Prng.create 4) ~n:12 in
  let q =
    Query.make ~params:[ "u1"; "u2" ] ~results:[ "v" ]
      Fo.(atom "E" [ "u1"; "v" ] &&& atom "E" [ "v"; "u2" ])
  in
  match
    Local_scheme.prepare
      ~options:{ Local_scheme.default_options with rho = Some 1 }
      ws q
  with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      check bool "capacity" true (Local_scheme.capacity scheme >= 1);
      let cap = min 3 (Local_scheme.capacity scheme) in
      let message = Codec.random (Prng.create 5) cap in
      let marked = Local_scheme.mark scheme message ws.Weighted.weights in
      let qs = Local_scheme.query_system scheme in
      check bool "within budget" true
        (Distortion.global qs ws.Weighted.weights marked
        <= (Local_scheme.report scheme).Local_scheme.budget);
      check bool "roundtrip" true
        (Bitvec.equal message
           (Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
              ~suspect:marked ~length:cap))

let prop_propagate_identity =
  QCheck.Test.make ~count:40 ~name:"propagate over an unchanged base is mark"
    QCheck.(int_range 1 500)
    (fun seed ->
      let g = Prng.create seed in
      let ws = Random_struct.regular_rings g ~n:(12 + Prng.int g 20) in
      let original = ws.Weighted.weights in
      let marked =
        List.fold_left
          (fun w t ->
            if Prng.bernoulli g 0.5 then Weighted.add_delta w t (Prng.pm_one g)
            else w)
          original (Weighted.support original)
      in
      Weighted.equal marked
        (Incremental.propagate ~original ~marked ~updated:original))

(* --- Remark 1: zero-distortion marking on the half family ------------ *)

let test_remark1_zero_distortion () =
  let n = 8 in
  let ws = Shatter.half n in
  let qs = Query_system.of_relational ws.Weighted.graph Shatter.query in
  let free = Shatter.half_free n in
  (* Pair up the free elements: (+1,-1) per pair; every W_a either contains
     both members (a = hub) or neither. *)
  let rec pairs = function
    | a :: b :: rest ->
        { Pairing.fst = Tuple.singleton a; snd = Tuple.singleton b } :: pairs rest
    | _ -> []
  in
  let ps = pairs free in
  check int "n/4 pairs" (n / 4) (List.length ps);
  let p = Pairing.make qs ~canonical:[] in
  check int "zero split everywhere" 0 (Pairing.max_split p (ranked p ps));
  let message = Codec.random (Prng.create 3) (List.length ps) in
  let marks = Pairing.orientation_marks ps message in
  check int "zero global distortion" 0 (Distortion.of_marks qs marks)

(* --- tree scheme (Theorem 5) ------------------------------------------ *)

let test_tree_scheme_roundtrip () =
  let g = Prng.create 17 in
  let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:120 in
  let q = child_query () in
  match Tree_scheme.prepare tree q with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let r = Tree_scheme.report scheme in
      check bool "has capacity" true (Tree_scheme.capacity scheme >= 1);
      check int "certified distortion 1" 1 r.Tree_scheme.certified_distortion;
      let weights = Trees_gen.random_weights g tree ~lo:10 ~hi:99 in
      let cap = min 5 (Tree_scheme.capacity scheme) in
      let message = Codec.random g cap in
      let marked = Tree_scheme.mark scheme message weights in
      check bool "1-local" true (Weighted.is_local_distortion ~c:1 weights marked);
      let qs = Tree_scheme.query_system scheme in
      check bool "global distortion <= 1" true
        (Distortion.global qs weights marked <= 1);
      let decoded =
        Tree_scheme.detect_weights scheme ~original:weights ~suspect:marked
          ~length:cap
      in
      check bool "roundtrip" true (Bitvec.equal decoded message)

let test_tree_scheme_blocks_disjoint () =
  let g = Prng.create 23 in
  let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:200 in
  let q = child_query () in
  match Tree_scheme.prepare tree q with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      (* Regions (block root minus child subtree) must be pairwise
         disjoint. *)
      (* V_i = subtree(root) minus subtree(hole), the hole node included in
         the exclusion (the paper's lca(U_j) is not in V_i). *)
      let in_region (root, hole) v =
        Wm_trees.Btree.ancestor_or_equal tree root v
        && match hole with
           | Some h -> not (Wm_trees.Btree.ancestor_or_equal tree h v)
           | None -> true
      in
      let regions = Tree_scheme.regions scheme in
      List.iteri
        (fun i ri ->
          List.iteri
            (fun j rj ->
              if i < j then
                for v = 0 to Wm_trees.Btree.size tree - 1 do
                  check bool "disjoint" false (in_region ri v && in_region rj v)
                done)
            regions)
        regions

let test_tree_scheme_rejects_bad_arity () =
  let phi = Parser.mso_of_string "S1(x,y) & S1(y,z)" in
  let compiled =
    Wm_trees.Mso_compile.compile ~base:[| "a"; "b" |] ~free:[ "x"; "y"; "z" ] phi
  in
  let q =
    Wm_trees.Tree_query.of_compiled compiled ~params:[ "x"; "y" ] ~results:[ "z" ]
  in
  let tree = Trees_gen.random_tree (Prng.create 1) ~alphabet:[ "a"; "b" ] ~size:30 in
  match Tree_scheme.prepare tree q with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "k=2 accepted"

(* --- XML pipeline ------------------------------------------------------ *)

let test_pipeline_xml_school () =
  let doc = School_xml.generate (Prng.create 5) ~students:40 () in
  let pattern = School_xml.example4_pattern in
  match Pipeline.prepare_xml doc pattern with
  | Error e -> Alcotest.fail e
  | Ok xs ->
      let cap = min 4 (Tree_scheme.capacity xs.Pipeline.scheme) in
      check bool "capacity >= 1" true (cap >= 1);
      let message = Codec.random (Prng.create 9) cap in
      let marked_doc = Pipeline.mark_xml xs ~message doc in
      (* Serialize and re-parse: the mark must survive the document cycle. *)
      let reparsed =
        Wm_xml.Utree.of_xml (Wm_xml.Xml.parse (Wm_xml.Xml.to_string (Wm_xml.Utree.to_xml marked_doc)))
      in
      let decoded = Pipeline.detect_xml xs ~original:doc ~suspect:reparsed ~length:cap in
      check bool "roundtrip through XML text" true (Bitvec.equal decoded message);
      (* Node-level distortion: <= 1 for every structural parameter
         (Theorem 5's certificate).  Value-level distortion: a first name
         unions its occurrences, so the bound is the occurrence count. *)
      let value_of u v = Option.value ~default:0 (Wm_xml.Utree.value_of u v) in
      List.iter
        (fun a ->
          let d =
            abs
              (List.fold_left (fun s v -> s + value_of reparsed v) 0
                 (Wm_xml.Pattern.eval_node pattern reparsed a)
              - List.fold_left (fun s v -> s + value_of doc v) 0
                  (Wm_xml.Pattern.eval_node pattern doc a))
          in
          check bool (Printf.sprintf "node %d distortion <= 1" a) true (d <= 1))
        (Wm_xml.Pattern.structural_params pattern doc);
      List.iter
        (fun name ->
          let occurrences =
            List.length
              (List.filter
                 (fun a -> Wm_xml.Utree.label doc a = name)
                 (Wm_xml.Pattern.structural_params pattern doc))
          in
          let d =
            abs
              (Wm_xml.Pattern.f_value pattern reparsed name
              - Wm_xml.Pattern.f_value pattern doc name)
          in
          check bool (name ^ " distortion <= occurrences") true (d <= max 1 occurrences))
        [ "John"; "Robert"; "Alice"; "Mary"; "Wei"; "Amina"; "Ravi"; "Sofia" ]

(* --- robustness (Fact 1) ----------------------------------------------- *)

let test_robust_majority_under_flips () =
  let ws = ring_instance 31 60 in
  match Local_scheme.prepare ~options:{ Local_scheme.default_options with rho = Some 1 } ws adjacency with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let base = Local_scheme.carriers scheme in
      let message = msg [ true; false; true ] in
      let times = Robust.redundancy_for base ~message_length:3 in
      check bool "redundancy >= 3" true (times >= 3);
      let marked = Robust.mark base ~times message ws.Weighted.weights in
      (* Attack: flip a few random active weights. *)
      let qs = Local_scheme.query_system scheme in
      let attacked =
        Adversary.apply (Prng.create 4)
          (Adversary.Random_flips { count = 3; amplitude = 1 })
          ~active:(Query_system.active qs) marked
      in
      let decoded =
        Robust.detect base ~times ~length:3 ~original:ws.Weighted.weights
          ~suspect:attacked
      in
      check bool "majority survives" true (Bitvec.equal decoded message)

let test_robust_full_reset_erases () =
  let ws = ring_instance 37 40 in
  match Local_scheme.prepare ~options:{ Local_scheme.default_options with rho = Some 1 } ws adjacency with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let base = Local_scheme.carriers scheme in
      let message = msg [ true; true; true ] in
      let times = Robust.redundancy_for base ~message_length:3 in
      let marked = Robust.mark base ~times message ws.Weighted.weights in
      let qs = Local_scheme.query_system scheme in
      let attacked =
        Adversary.apply (Prng.create 5)
          (Adversary.Back_to_original
             { original = ws.Weighted.weights; fraction = 1.0 })
          ~active:(Query_system.active qs) marked
      in
      let decoded =
        Robust.detect base ~times ~length:3 ~original:ws.Weighted.weights
          ~suspect:attacked
      in
      (* Full knowledge of the original erases everything: all-zero read. *)
      check bool "erased" false (Bitvec.equal decoded message)

(* --- capacity and the permanent (Theorem 1) ---------------------------- *)

let test_capacity_tiny_by_hand () =
  (* One query owning two weights: markings over {-1,0,1}^2 with |sum|<=1:
     all 9 minus (+1,+1) and (-1,-1) = 7. *)
  let qs =
    Query_system.of_custom
      ~params:[ Tuple.singleton 0 ]
      ~result_set:(fun _ -> Tuple.Set.of_list [ Tuple.singleton 1; Tuple.singleton 2 ])
      ~weight_arity:1
  in
  check int "7 markings" 7 (Capacity.count qs (Capacity.Max_le 1));
  check int "exactly 1" 4 (Capacity.count qs (Capacity.Max_eq 1));
  (* All_eq 1: (0,1),(1,0) = 2. *)
  check int "all-eq 1" 2 (Capacity.count qs (Capacity.All_eq 1))

let test_permanent_known_values () =
  check int "perm(K3) = 3! = 6" 6 (Bipartite.permanent (Bipartite.complete 3));
  check int "perm(K4) = 24" 24 (Bipartite.permanent (Bipartite.complete 4));
  let empty = { Bipartite.n = 3; adj = Array.make_matrix 3 3 false } in
  check int "perm(empty) = 0" 0 (Bipartite.permanent empty)

let test_reduction_equals_permanent () =
  List.iter
    (fun seed ->
      let bg = Bipartite.random (Prng.create seed) ~n:3 ~p:0.6 in
      let ws, q = Bipartite.to_marking_problem bg in
      check int
        (Printf.sprintf "seed %d" seed)
        (Bipartite.permanent bg)
        (Capacity.count_matchings ws q))
    [ 1; 2; 3; 4; 5 ]

let test_reduction_complete_graph () =
  let bg = Bipartite.complete 3 in
  let ws, q = Bipartite.to_marking_problem bg in
  check int "#Mark = 6" 6 (Capacity.count_matchings ws q)

(* --- incremental (Theorems 7-8) ---------------------------------------- *)

let test_incremental_weights_only () =
  let ws = ring_instance 41 30 in
  match Local_scheme.prepare ~options:{ Local_scheme.default_options with rho = Some 1 } ws adjacency with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let cap = min 4 (Local_scheme.capacity scheme) in
      let message = Codec.random (Prng.create 6) cap in
      let marked = Local_scheme.mark scheme message ws.Weighted.weights in
      (* Owner updates base weights. *)
      let updated =
        List.fold_left
          (fun w t -> Weighted.add_delta w t 50)
          ws.Weighted.weights
          (List.filteri (fun i _ -> i mod 3 = 0) (Weighted.support ws.Weighted.weights))
      in
      let propagated =
        Incremental.propagate ~original:ws.Weighted.weights ~marked ~updated
      in
      let decoded =
        Local_scheme.detect_weights scheme ~original:updated ~suspect:propagated
          ~length:cap
      in
      check bool "theorem 7 roundtrip" true (Bitvec.equal decoded message)

let test_incremental_type_preserving () =
  (* Two disjoint triangles vs three: same rho=1 types. *)
  let rings n = (ring_instance 1 n).Weighted.graph in
  let tri2 =
    Structure.add_pairs (Structure.create Schema.graph 6) "E"
      (List.concat_map
         (fun b -> List.concat_map (fun (x, y) -> [ (b + x, b + y); (b + y, b + x) ])
             [ (0, 1); (1, 2); (2, 0) ])
         [ 0; 3 ])
  in
  let tri3 =
    Structure.add_pairs (Structure.create Schema.graph 9) "E"
      (List.concat_map
         (fun b -> List.concat_map (fun (x, y) -> [ (b + x, b + y); (b + y, b + x) ])
             [ (0, 1); (1, 2); (2, 0) ])
         [ 0; 3; 6 ])
  in
  check bool "triangles preserve types" true
    (Incremental.type_preserving ~rho:1 ~arity:1 tri2 tri3);
  (* A path end vertex is a new type relative to triangles. *)
  let tri_plus_path =
    Structure.add_pairs tri2 "E" [] |> fun g ->
    Structure.add_pairs g "E" [ (0, 3); (3, 0) ]
  in
  check bool "bridge breaks types" false
    (Incremental.type_preserving ~rho:1 ~arity:1 tri2 tri_plus_path);
  check bool "decision" true
    (Incremental.update_decision ~rho:1 ~arity:1 ~old_graph:tri2 ~new_graph:tri3
     = `Keep_mark);
  ignore rings

let test_auto_collusion_average () =
  let ws = ring_instance 43 30 in
  match Local_scheme.prepare ~options:{ Local_scheme.default_options with rho = Some 1 } ws adjacency with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let cap = min 4 (Local_scheme.capacity scheme) in
      let m1 = Codec.random (Prng.create 7) cap in
      let m2 =
        (* complement message: orientations all opposite *)
        let v = Bitvec.copy m1 in
        for i = 0 to cap - 1 do
          Bitvec.set v i (not (Bitvec.get m1 i))
        done;
        v
      in
      let c1 = Local_scheme.mark scheme m1 ws.Weighted.weights in
      let c2 = Local_scheme.mark scheme m2 ws.Weighted.weights in
      let avg = Incremental.average c1 c2 in
      (* Averaging opposite orientations reproduces the original weights:
         the mark is gone. *)
      check int "mark cancelled" 0
        (Weighted.local_distance avg ws.Weighted.weights)

(* --- Agrawal-Kiernan baseline ------------------------------------------ *)

let ak = { Agrawal_kiernan.key = 0xBEEF; gamma = 2; xi = 2 }

let test_ak_detects_marked () =
  let ws = Random_struct.travel (Prng.create 3) ~travels:30 ~transports:80 in
  let marked = Agrawal_kiernan.mark ak ws.Weighted.weights in
  check bool "marked detected" true (Agrawal_kiernan.is_detected ak marked);
  check bool "positions nonempty" true
    (Agrawal_kiernan.marked_positions ak marked <> [])

let test_ak_unmarked_rate () =
  let ws = Random_struct.travel (Prng.create 4) ~travels:30 ~transports:200 in
  let rate = Agrawal_kiernan.match_rate ak ws.Weighted.weights in
  check bool "unmarked near 1/2" true (rate > 0.25 && rate < 0.75);
  check bool "unmarked not detected" false
    (Agrawal_kiernan.is_detected ak ws.Weighted.weights)

let test_ak_rounding_kills () =
  let ws = Random_struct.travel (Prng.create 5) ~travels:30 ~transports:200 in
  let marked = Agrawal_kiernan.mark ak ws.Weighted.weights in
  let attacked =
    Adversary.apply (Prng.create 6)
      (Adversary.Rounding { multiple = 8 })
      ~active:(Weighted.support marked) marked
  in
  check bool "rounding erases AK" false (Agrawal_kiernan.is_detected ak attacked)

let test_ak_local_distortion_bound () =
  let ws = Random_struct.travel (Prng.create 7) ~travels:20 ~transports:60 in
  let marked = Agrawal_kiernan.mark ak ws.Weighted.weights in
  check bool "local distortion < 2^xi" true
    (Weighted.local_distance ws.Weighted.weights marked < 1 lsl ak.Agrawal_kiernan.xi)

(* --- properties --------------------------------------------------------- *)

let prop_local_roundtrip =
  QCheck.Test.make ~count:15 ~name:"local scheme: detect o mark = id"
    QCheck.(pair (int_range 1 1000) (int_range 12 40))
    (fun (seed, n) ->
      let ws = Random_struct.regular_rings (Prng.create seed) ~n in
      match
        Local_scheme.prepare
          ~options:{ Local_scheme.default_options with rho = Some 1; seed }
          ws adjacency
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok scheme ->
          let cap = min 8 (Local_scheme.capacity scheme) in
          let message = Codec.random (Prng.create (seed + 1)) cap in
          let marked = Local_scheme.mark scheme message ws.Weighted.weights in
          let qs = Local_scheme.query_system scheme in
          let budget = (Local_scheme.report scheme).Local_scheme.budget in
          Distortion.global qs ws.Weighted.weights marked <= budget
          && Bitvec.equal message
               (Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
                  ~suspect:marked ~length:cap))

let prop_tree_roundtrip =
  QCheck.Test.make ~count:8 ~name:"tree scheme: detect o mark = id"
    QCheck.(int_range 1 100)
    (fun seed ->
      let g = Prng.create seed in
      let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(80 + Prng.int g 60) in
      let q = child_query () in
      match Tree_scheme.prepare tree q with
      | Error _ -> QCheck.assume_fail ()
      | Ok scheme ->
          let weights = Trees_gen.random_weights g tree ~lo:5 ~hi:50 in
          let cap = min 6 (Tree_scheme.capacity scheme) in
          let message = Codec.random g cap in
          let marked = Tree_scheme.mark scheme message weights in
          let qs = Tree_scheme.query_system scheme in
          Distortion.global qs weights marked <= 1
          && Bitvec.equal message
               (Tree_scheme.detect_weights scheme ~original:weights
                  ~suspect:marked ~length:cap))

let prop_capacity_le_monotone =
  QCheck.Test.make ~count:20 ~name:"#Mark monotone in d"
    QCheck.(int_range 1 500)
    (fun seed ->
      let bg = Bipartite.random (Prng.create seed) ~n:2 ~p:0.7 in
      let ws, q = Bipartite.to_marking_problem bg in
      let qs = Query_system.of_relational ws.Weighted.graph q in
      if Query_system.active qs = [] then true
      else
        Capacity.count qs (Capacity.Max_le 0)
        <= Capacity.count qs (Capacity.Max_le 1)
        && Capacity.count qs (Capacity.Max_le 1)
           <= Capacity.count qs (Capacity.Max_le 2))

(* The pairs and regions the tree scheme selects, pinned by digest: the
   query pass, the block phases and the behavior tabulation may change
   speed, never which pairs carry the message. *)
let test_tree_scheme_pairs_pinned () =
  let digest s =
    let b = Buffer.create 256 in
    List.iter
      (fun { Pairing.fst; snd } -> Printf.bprintf b "%d,%d;" fst.(0) snd.(0))
      (Tree_scheme.pairs s);
    List.iter
      (fun (r, h) -> Printf.bprintf b "%d/%d;" r (Option.value ~default:(-1) h))
      (Tree_scheme.regions s);
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let prepared name ?block_size tree q expected =
    match Tree_scheme.prepare ~options:{ Tree_scheme.default_options with block_size } tree q with
    | Ok s -> check string name expected (digest s)
    | Error e -> Alcotest.fail e
  in
  let query src =
    let compiled =
      Wm_trees.Mso_compile.compile ~base:[| "a"; "b" |] ~free:[ "x"; "y" ]
        (Parser.mso_of_string src)
    in
    Wm_trees.Tree_query.of_compiled compiled ~params:[ "x" ] ~results:[ "y" ]
  in
  List.iter
    (fun (src, size, seed, default, small) ->
      let tree = Trees_gen.random_tree (Prng.create seed) ~alphabet:[ "a"; "b" ] ~size in
      let q = query src in
      prepared src tree q default;
      prepared (src ^ ", blocks of 3") ~block_size:3 tree q small)
    [
      ( "S1(x,y) | S2(x,y)", 300, 7, "d6ce6e2e95d692572be20fbd06a7a39b",
        "a4d011e0ff3f096e66fce8c7894fda27" );
      ( "Leq(x,y) & a(y)", 300, 8, "453f06a3f0c49a54c574d03c23c27f6a",
        "82c036af37879f763c0a16c9ceadb1ba" );
      ( "Leq(y,x)", 200, 9, "57dbd024b6701b4414c2811c600c7bdf",
        "819534c9ac879367fd4e006952b21937" );
    ];
  let p = Wm_xml.Pattern.parse "bibliography//article[author=$a]/citations" in
  let constants = Wm_xml.Pattern.constants p in
  let doc = Biblio_xml.generate (Prng.create 2) ~articles:60 () in
  let q = Wm_xml.Pattern.compile p ~alphabet:(Wm_xml.Encode.abstract_alphabet ~constants doc) in
  prepared "biblio, 60 articles" (Wm_xml.Encode.to_binary_abstract ~constants doc) q
    "00badb5f7526d5de6a37c7429e816ef3"

(* Tree detection reads each pair's sign from the weights reconstructed
   out of the server's answers, an unobserved endpoint reading as an
   unchanged weight.  The server here drops every answer naming a chosen
   node, so pair i is fully observed (i mod 4 = 0), loses its [fst]
   (1), its [snd] (2) or both endpoints (3); a fully unobserved pair
   decodes to 0 whatever it carries. *)
let test_tree_detect_partial_server () =
  let g = Prng.create 23 in
  let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:400 in
  match Tree_scheme.prepare tree (child_query ()) with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let pairs = Array.of_list (Tree_scheme.pairs scheme) in
      let length = Array.length pairs in
      check bool "pairs of all four kinds" true (length >= 8);
      let weights = Trees_gen.random_weights g tree ~lo:10 ~hi:99 in
      let message = Codec.of_bool_list (List.init length (fun i -> i mod 5 <> 0)) in
      let marked = Tree_scheme.mark scheme message weights in
      let dropped = Tuple.Hashtbl.create 16 in
      Array.iteri
        (fun i { Pairing.fst; snd } ->
          if i mod 4 = 1 || i mod 4 = 3 then Tuple.Hashtbl.replace dropped fst ();
          if i mod 4 = 2 || i mod 4 = 3 then Tuple.Hashtbl.replace dropped snd ())
        pairs;
      let honest = Query_system.server (Tree_scheme.query_system scheme) marked in
      let server a =
        List.filter (fun (b, _) -> not (Tuple.Hashtbl.mem dropped b)) (honest a)
      in
      let delta b =
        if Tuple.Hashtbl.mem dropped b then 0
        else Weighted.get marked b - Weighted.get weights b
      in
      let expected =
        Array.to_list
          (Array.map (fun { Pairing.fst; snd } -> delta fst - delta snd > 0) pairs)
      in
      List.iter
        (fun jobs ->
          let decoded =
            Jobs.with_jobs jobs (fun () ->
                Tree_scheme.detect scheme ~original:weights ~server ~length)
          in
          let name what = Printf.sprintf "jobs=%d: %s" jobs what in
          check (list bool) (name "per-pair sign") expected
            (Codec.to_bool_list decoded);
          Array.iteri
            (fun i _ ->
              check bool
                (name (Printf.sprintf "pair %d" i))
                (i mod 4 <> 3 && Bitvec.get message i)
                (Bitvec.get decoded i))
            pairs)
        [ 1; 2 ]

(* One carrier reader: reading the suspect's weights straight from the
   pair endpoints decodes what the query-answer model decodes over an
   honest server, since every endpoint is an active tuple. *)
let prop_detect_weights_is_honest_detect =
  let identity = Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v" in
  QCheck.Test.make ~count:16
    ~name:"detect_weights = detect over an honest server, jobs 1 and 2"
    QCheck.(pair (int_range 1 1000) (int_range 0 3))
    (fun (seed, case) ->
      let g = Prng.create seed in
      let local q rho =
        let ws = Random_struct.regular_rings g ~n:(20 + Prng.int g 30) in
        Local_scheme.prepare
          ~options:{ Local_scheme.default_options with rho = Some rho; seed }
          ws q
        |> Result.map (fun s -> (Local_scheme.carriers s, ws.Weighted.weights))
      in
      let prepared =
        match case with
        | 0 -> local identity 1
        | 1 -> local adjacency 1
        | 2 -> local adjacency 2
        | _ ->
            let tree =
              Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size:(80 + Prng.int g 60)
            in
            Tree_scheme.prepare tree (child_query ())
            |> Result.map (fun s ->
                   (Tree_scheme.carriers s, Trees_gen.random_weights g tree ~lo:5 ~hi:50))
      in
      match prepared with
      | Error _ -> QCheck.assume_fail ()
      | Ok (c, original) ->
          let length = Carriers.capacity c in
          let qs = Carriers.query_system c in
          let marked = Carriers.mark c (Codec.random g length) original in
          (* noise leaves strong, weak and silent carriers to read *)
          let suspect =
            Adversary.apply g (Adversary.Uniform_noise { amplitude = 2 })
              ~active:(Query_system.active qs) marked
          in
          List.for_all
            (fun jobs ->
              Jobs.with_jobs jobs (fun () ->
                  Bitvec.equal
                    (Carriers.detect_weights c ~original ~suspect ~length)
                    (Carriers.detect c ~original
                       ~server:(Query_system.server qs suspect) ~length)))
            [ 1; 2 ])

(* [result_set], [f] and [server] read a parameter's row and evaluate
   any other tuple; either way they must equal the evaluator.  Custom
   systems ask their four non-parameter canonicals; FO systems built
   over a random part of U^r ask the rest of U^r as non-parameters; the
   substrate systems (FO, travel, tree) have every in-range tuple as a
   parameter. *)
let prop_reads_match_evaluator =
  QCheck.Test.make ~count:80 ~name:"result_set, f and server == evaluator"
    QCheck.(pair (int_range 0 100_000) (int_range 1 2))
    (fun (seed, arity) ->
      let g = Prng.create (0x5E7 + seed) in
      let f =
        match Prng.int g 3 with
        | 0 -> substrate_family g
        | 1 ->
            let n = 3 + Prng.int g 12 and np = 2 + Prng.int g 30 in
            let elt () = Array.init arity (fun _ -> Prng.int g n) in
            custom_family g ~arity ~n
              (Array.init (np + 4) (fun _ ->
                   Tuple.Set.of_list (List.init (Prng.int g 6) (fun _ -> elt ()))))
        | _ ->
            let n = 3 + Prng.int g 8 in
            let params, results, phi = fo_queries.(Prng.int g (Array.length fo_queries)) in
            let gr =
              (Random_struct.graph g ~n ~max_degree:3 ~edges:(Prng.int g (2 * n))).Weighted.graph
            in
            let q = Parser.query_of_string ~params ~results phi in
            let all = Array.of_list (Query.all_params gr q) in
            let eval = Query.result_set gr q in
            let params = List.filter (fun _ -> Prng.bool g) (Array.to_list all) in
            {
              qs =
                Query_system.of_custom ~params ~result_set:eval
                  ~weight_arity:(Query.result_arity q);
              params = Array.of_list params;
              eval;
              canon = all;
              elt = (fun () -> Array.init (Query.result_arity q) (fun _ -> Prng.int g n));
            }
      in
      let w =
        Weighted.of_list ~default:(Prng.int g 3)
          (Query_system.weight_arity f.qs)
          (List.init (Prng.int g 30) (fun _ -> (f.elt (), Prng.int g 50)))
      in
      Array.for_all
        (fun a ->
          let s = f.eval a in
          Tuple.Set.equal (Query_system.result_set f.qs a) s
          && Query_system.f f.qs w a = Tuple.Set.fold (fun b acc -> acc + Weighted.get w b) s 0
          && Query_system.server f.qs w a
             = List.map (fun b -> (b, Weighted.get w b)) (Tuple.Set.elements s))
        f.canon)

let suite =
  [
    ("query system mirrors query", `Quick, test_qs_matches_query);
    ("query system reconstruct", `Quick, test_qs_reconstruct);
    ("distortion of marks", `Quick, test_distortion_of_marks);
    ("figure 4 classes", `Quick, test_classes_figure4);
    ("figure 4 partition", `Quick, test_s_partition_figure4);
    ("orientation marks", `Quick, test_orientation_marks);
    ("split counts", `Quick, test_split_counts);
    ("theorem 3 on figure 1", `Quick, test_local_figure1_roundtrip);
    ("theorem 3 capacity on rings", `Quick, test_local_rings_capacity);
    ("theorem 3 many messages", `Quick, test_local_rings_roundtrip_many_messages);
    ("theorem 3 randomized selection", `Quick, test_local_random_selection);
    ("detector immune to offsets", `Quick, test_local_offset_immune);
    ("local scheme error cases", `Quick, test_local_error_cases);
    ("local scheme on edge weights (s=2)", `Quick, test_local_edge_weights);
    ("local scheme on pair parameters (r=2)", `Slow, test_local_pair_parameters);
    QCheck_alcotest.to_alcotest prop_propagate_identity;
    ("remark 1 zero-distortion marking", `Quick, test_remark1_zero_distortion);
    ("theorem 5 roundtrip", `Slow, test_tree_scheme_roundtrip);
    ("theorem 5 regions disjoint", `Slow, test_tree_scheme_blocks_disjoint);
    ("theorem 5 arity guard", `Quick, test_tree_scheme_rejects_bad_arity);
    ("xml pipeline end to end", `Slow, test_pipeline_xml_school);
    ("fact 1: majority survives flips", `Quick, test_robust_majority_under_flips);
    ("fact 1: full reset erases", `Quick, test_robust_full_reset_erases);
    ("capacity by hand", `Quick, test_capacity_tiny_by_hand);
    ("permanent known values", `Quick, test_permanent_known_values);
    ("theorem 1 reduction = permanent", `Quick, test_reduction_equals_permanent);
    ("theorem 1 on K3", `Quick, test_reduction_complete_graph);
    ("theorem 7 weights-only updates", `Quick, test_incremental_weights_only);
    ("theorem 8 type preservation", `Quick, test_incremental_type_preserving);
    ("auto-collusion averaging", `Quick, test_auto_collusion_average);
    ("AK detects its mark", `Quick, test_ak_detects_marked);
    ("AK unmarked rate", `Quick, test_ak_unmarked_rate);
    ("AK dies to rounding", `Quick, test_ak_rounding_kills);
    ("AK local distortion", `Quick, test_ak_local_distortion_bound);
    QCheck_alcotest.to_alcotest prop_local_roundtrip;
    QCheck_alcotest.to_alcotest prop_tree_roundtrip;
    QCheck_alcotest.to_alcotest prop_capacity_le_monotone;
    ("local mark over capacity", `Quick, test_local_mark_over_capacity);
    ("tree scheme pairs pinned", `Quick, test_tree_scheme_pairs_pinned);
    QCheck_alcotest.to_alcotest prop_pairing_tail_matches_reference;
    ("tree detect on a partial server", `Quick, test_tree_detect_partial_server);
    QCheck_alcotest.to_alcotest prop_detect_weights_is_honest_detect;
    QCheck_alcotest.to_alcotest prop_pairing_matches_ref;

    QCheck_alcotest.to_alcotest prop_reads_match_evaluator;
  ]
