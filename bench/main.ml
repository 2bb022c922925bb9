(* Experiment harness: one table per reproduced artifact of the paper.

     dune exec bench/main.exe              -- every experiment, in order
     dune exec bench/main.exe -- e5 e7     -- a subset
     dune exec bench/main.exe -- --jobs 4  -- the one job count (Par.set_jobs)

   Experiments run one after another and print straight to stdout.  An
   unknown experiment id or a bad --jobs value prints the usage to
   stderr and exits 2.

   Experiment ids and the paper artifacts they reproduce are indexed in
   DESIGN.md section 4; paper-vs-measured is recorded in EXPERIMENTS.md. *)

open Qpwm

(* Wall-clock, not CPU time: parallel speedups are invisible to
   [Sys.time], which sums over domains. *)
let secs f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Embed/detect straight from an explicit pair list (E3/E4 use synthetic
   pair sets outside any prepared scheme). *)
let embed_pairs pairs message w =
  Weighted.apply_mark_iter w (Pairing.iter_orientation_marks pairs message)

let read_pairs pairs ~original ~suspect ~length =
  let message = Bitvec.create length in
  List.iteri
    (fun i { Pairing.fst; snd } ->
      if i < length then begin
        let d t = Weighted.get suspect t - Weighted.get original t in
        Bitvec.set message i (d fst - d snd > 0)
      end)
    pairs;
  message

(* ------------------------------------------------------------------ *)
(* E1 — Figures 1-4: the worked example of Section 3. *)

let e1 () =
  header "E1. Figures 1-4: neighborhood types, classes, pair marking";
  let ws = Paper_examples.figure1 in
  let g = ws.Weighted.graph in
  let q = Paper_examples.figure1_query in
  let qs = Query_system.of_relational g q in
  let name x = Structure.name_of g x in
  let ix = Neighborhood.index g ~rho:1 (Query.all_params g q) in
  Printf.printf "ntp(1, G) = %d (paper: 3)\n" (Neighborhood.ntp ix);
  let canonical = Array.to_list ix.Neighborhood.representatives in
  let pairing = Pairing.make qs ~canonical in
  let ranked = Pairing.s_partition pairing in
  let pairs = Pairing.to_pairs pairing ranked in
  let t = Texttab.create [ "u"; "type"; "W_u"; "cl(u)"; "distortion" ] in
  let classes = Pairing.classes pairing in
  let marks =
    Pairing.orientation_marks pairs (Codec.of_int ~bits:(List.length pairs) 1)
  in
  let w' = Weighted.apply_marks ws.Weighted.weights marks in
  Structure.iter_universe
    (fun x ->
      let a = Tuple.singleton x in
      let w_u =
        Query_system.result_set qs a |> Tuple.Set.elements
        |> List.map (fun b -> name b.(0))
        |> String.concat " "
      in
      let cl =
        match List.assoc_opt a classes with
        | Some c -> String.concat "," (List.map string_of_int c)
        | None -> "-"
      in
      Texttab.addf t "%s|%d|%s|%s|%+d" (name x)
        (Neighborhood.type_of ix a)
        w_u cl
        (Query_system.f qs w' a - Query_system.f qs ws.Weighted.weights a))
    g;
  Texttab.print t;
  Printf.printf "pairs: %s; max split = %d (certifies |distortion| <= 1)\n"
    (String.concat ", "
       (List.map
          (fun p ->
            Printf.sprintf "(%s,%s)" (name p.Pairing.fst.(0)) (name p.Pairing.snd.(0)))
          pairs))
    (Pairing.max_split pairing ranked)

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 1: #Mark(=1) equals the permanent. *)

let e2 () =
  header "E2. Theorem 1: #Mark on the reduction instance vs the permanent";
  let t =
    Texttab.create
      [ "n"; "edges"; "permanent"; "#Mark(all=1)"; "equal"; "perm ms"; "#Mark ms" ]
  in
  List.iter
    (fun (n, p, seed) ->
      let bg =
        if seed = 0 then Bipartite.complete n
        else Bipartite.random (Prng.create seed) ~n ~p
      in
      let edges =
        Array.fold_left
          (fun acc row -> acc + Array.fold_left (fun a b -> if b then a + 1 else a) 0 row)
          0 bg.Bipartite.adj
      in
      let perm, pt = secs (fun () -> Bipartite.permanent bg) in
      let ws, q = Bipartite.to_marking_problem bg in
      let cnt, ct = secs (fun () -> Capacity.count_matchings ws q) in
      Texttab.addf t "%d|%d|%d|%d|%s|%.2f|%.2f" n edges perm cnt
        (if perm = cnt then "yes" else "NO")
        (pt *. 1000.) (ct *. 1000.))
    [ (2, 0.7, 11); (3, 0.7, 16); (3, 0., 0); (4, 0.7, 17); (4, 0., 0); (5, 0.7, 15); (5, 0.7, 17) ];
  Texttab.print t;
  print_endline
    "The counts agree row by row: counting exact-capacity markings computes\n\
     the permanent, the paper's #P-hardness witness.  #Mark cost grows much\n\
     faster than Ryser's 2^n n — the brute force is only usable on toys."

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 2: impossibility on the fully shattered family. *)

let e3 () =
  header "E3. Theorem 2: on shattered families, distortion = bits";
  let t =
    Texttab.create
      [ "n=|W|"; "VC"; "maximal"; "h (+1 marks)"; "max distortion"; "tw(nxn grid) <=" ]
  in
  List.iter
    (fun n ->
      let ws = Shatter.full n in
      let qs = Query_system.of_relational ws.Weighted.graph Shatter.query in
      let vc =
        if n <= 8 then
          string_of_int
            (Vc.dimension (Query_vc.of_query ws.Weighted.graph Shatter.query).Query_vc.fam)
        else "= n"
      in
      let maximal =
        if n <= 8 then
          if Query_vc.maximal_on ws.Weighted.graph Shatter.query then "yes" else "NO"
        else "yes"
      in
      (* A computed tree-width upper bound for the n x n grid, from an
         actual validated decomposition (the exact value is min(w,h) = n). *)
      let grid = (Grid.structure ~w:n ~h:n).Weighted.graph in
      let td = Treewidth.by_min_degree grid in
      (match Treewidth.validate grid td with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "E3: %dx%d grid decomposition invalid: %s" n n e));
      let g = Prng.create (100 + n) in
      List.iter
        (fun h ->
          if h >= 1 && h <= n then begin
            let marked =
              Prng.sample g h (Array.of_list (Query_system.active qs))
            in
            let marks = Array.to_list (Array.map (fun w -> (w, 1)) marked) in
            let d = Distortion.of_marks qs marks in
            Texttab.addf t "%d|%s|%s|%d|%d|%d" n vc maximal h d
              (Treewidth.width td)
          end)
        [ 1; n / 2; n ])
    [ 4; 8; 12 ];
  Texttab.print t;
  print_endline
    "Every h same-sign distortions cost exactly h on some query (the\n\
     parameter enumerating the marked subset), so hiding |W|^(1-q eps) bits\n\
     within distortion 1/eps is impossible: no watermarking scheme exists.\n\
     Grids realize the same obstruction for MSO (Theorem 6) while their\n\
     tree-width grows (last column: a validated min-degree decomposition's\n\
     width, an upper bound on the exact value n)."

(* ------------------------------------------------------------------ *)
(* E4 — Remark 1: half-shattered family, n/4 bits at distortion 0. *)

let e4 () =
  header "E4. Remark 1: unbounded VC yet n/4 bits at zero distortion";
  let t =
    Texttab.create
      [ "n=|W|"; "VC"; "pairs"; "max split"; "global distortion"; "detected" ]
  in
  List.iter
    (fun n ->
      let ws = Shatter.half n in
      let qs = Query_system.of_relational ws.Weighted.graph Shatter.query in
      let vc =
        if n <= 12 then
          string_of_int
            (Vc.dimension (Query_vc.of_query ws.Weighted.graph Shatter.query).Query_vc.fam)
        else "n/2"
      in
      let rec pair_up = function
        | a :: b :: rest ->
            { Pairing.fst = Tuple.singleton a; snd = Tuple.singleton b }
            :: pair_up rest
        | _ -> []
      in
      let pairs = pair_up (Shatter.half_free n) in
      let bits = List.length pairs in
      let g = Prng.create n in
      let worst = ref 0 and detected = ref 0 in
      let trials = 64 in
      for _ = 1 to trials do
        let message = Codec.random g bits in
        let marked = embed_pairs pairs message ws.Weighted.weights in
        worst := max !worst (Distortion.global qs ws.Weighted.weights marked);
        if
          Bitvec.equal message
            (read_pairs pairs ~original:ws.Weighted.weights ~suspect:marked
               ~length:bits)
        then incr detected
      done;
      let pairing = Pairing.make qs ~canonical:[] in
      let rank w =
        Option.value ~default:(-1) (Array.find_index (Tuple.equal w) (Pairing.active pairing))
      in
      let ranked = Array.of_list (List.map (fun p -> (rank p.Pairing.fst, rank p.Pairing.snd)) pairs) in
      Texttab.addf t "%d|%s|%d|%d|%d|%d/%d" n vc bits
        (Pairing.max_split pairing ranked)
        !worst !detected trials)
    [ 8; 12; 16; 20 ];
  Texttab.print t;
  print_endline
    "VC grows with n (unbounded on the class) yet n/4 bits embed with zero\n\
     distortion and perfect detection: maximal VC-dimension, not merely\n\
     unbounded, is what Theorem 2 needs."

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 3: the local scheme on bounded-degree structures. *)

let e5 () =
  header "E5. Theorem 3: capacity and certified distortion on STRUCT_k";
  let q = Paper_examples.figure1_query in
  let t =
    Texttab.create
      [ "|U|"; "|W|"; "ntp"; "eps"; "budget"; "capacity"; "max |dist|";
        "detected"; "prepare ms" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun epsilon ->
          let ws = Random_struct.regular_rings (Prng.create n) ~n in
          let options =
            { Local_scheme.default_options with rho = Some 1; epsilon }
          in
          let scheme, ms = secs (fun () -> Local_scheme.prepare ~options ws q) in
          match scheme with
          | Error e -> Printf.printf "n=%d eps=%.2f: %s\n" n epsilon e
          | Ok scheme ->
              let r = Local_scheme.report scheme in
              let qs = Local_scheme.query_system scheme in
              let g = Prng.create (n + 1) in
              let cap = Local_scheme.capacity scheme in
              let worst = ref 0 and ok = ref 0 in
              let trials = 10 in
              for _ = 1 to trials do
                let message = Codec.random g cap in
                let marked = Local_scheme.mark scheme message ws.Weighted.weights in
                worst := max !worst (Distortion.global qs ws.Weighted.weights marked);
                if
                  Bitvec.equal message
                    (Local_scheme.detect_weights scheme
                       ~original:ws.Weighted.weights ~suspect:marked ~length:cap)
                then incr ok
              done;
              Texttab.addf t "%d|%d|%d|%.2f|%d|%d|%d|%d/%d|%.1f" n
                r.Local_scheme.active r.Local_scheme.ntp epsilon
                r.Local_scheme.budget cap !worst !ok trials (ms *. 1000.))
        [ 1.0; 0.5; 0.25 ])
    [ 40; 80; 160; 320 ];
  Texttab.print t;
  (* Ablation (DESIGN.md 3.3): the paper's randomized eps-good draw vs the
     greedy admission used by default.  Same certificate, different
     capacity and retry behavior. *)
  let t2 =
    Texttab.create
      [ "|W|"; "selection"; "capacity"; "max split"; "prepare ms" ]
  in
  List.iter
    (fun n ->
      let ws = Random_struct.regular_rings (Prng.create n) ~n in
      List.iter
        (fun (name, selection) ->
          let options =
            { Local_scheme.default_options with rho = Some 1; selection }
          in
          let scheme, ms = secs (fun () -> Local_scheme.prepare ~options ws q) in
          match scheme with
          | Error e -> Texttab.addf t2 "%d|%s|%s|-|-" n name e
          | Ok scheme ->
              let r = Local_scheme.report scheme in
              Texttab.addf t2 "%d|%s|%d|%d|%.1f" n name
                r.Local_scheme.pairs_selected r.Local_scheme.max_split
                (ms *. 1000.))
        [ ("greedy", `Greedy); ("random x500", `Random 500) ])
    [ 60; 120; 240 ];
  Texttab.print ~title:"ablation: greedy vs the paper's randomized selection" t2;
  print_endline
    "Capacity grows with |W| and with the allowed distortion 1/eps; the\n\
     measured max distortion never exceeds the certified budget, and\n\
     detection is exact in the non-adversarial model — Theorem 3's shape.\n\
     Both selection rules certify the same worst-case split; greedy\n\
     admission dominates the randomized draw's capacity (the draw's p is\n\
     calibrated for the worst-case eta, which is loose on rings)."

(* ------------------------------------------------------------------ *)
(* E6 — Remark 2: |W| = 5000, 1/eps = 40, 8 bits, 64 copies.  A gate:
   after its table it raises when prepare fails, when a copy is
   misidentified or when the worst distortion exceeds the budget. *)

let e6 () =
  header "E6. Remark 2: |W| = 5000, distortion budget 40, 64 marked copies";
  let n = 5000 in
  let ws = Random_struct.regular_rings (Prng.create 7) ~n in
  let g = ws.Weighted.graph in
  (* Adjacency evaluated through the Gaifman view: semantically identical
     to psi(u,v) = E(u,v) (the FO evaluator equivalence is covered by the
     test suite); this keeps the 5000-element sweep interactive. *)
  let gf = Gaifman.of_structure g in
  let qs =
    Query_system.of_custom
      ~params:(List.init (Structure.size g) Tuple.singleton)
      ~result_set:(fun a ->
        Tuple.Set.of_list (List.map Tuple.singleton (Gaifman.neighbors gf a.(0))))
      ~weight_arity:1
  in
  let epsilon = 1. /. 40. in
  let options = { Local_scheme.default_options with rho = Some 1; epsilon } in
  let scheme, ms =
    secs (fun () ->
        Local_scheme.prepare ~options ~qs ws Paper_examples.figure1_query)
  in
  match scheme with
  | Error e ->
      print_endline ("prepare failed: " ^ e);
      failwith ("e6: prepare failed: " ^ e)
  | Ok scheme ->
      let r = Local_scheme.report scheme in
      Printf.printf
        "|W| = %d, ntp = %d, capacity = %d pairs, budget = %d (prepare %.0f ms)\n"
        r.Local_scheme.active r.Local_scheme.ntp r.Local_scheme.pairs_selected
        r.Local_scheme.budget (ms *. 1000.);
      let bits = 8 in
      Printf.printf
        "paper arithmetic: |W|^(1/4) = %.1f bits -> embed %d bits -> 2^%d = 64 copies\n"
        (float_of_int n ** 0.25) bits bits;
      let copies =
        List.init 64 (fun i ->
            (i, Local_scheme.mark scheme (Codec.of_int ~bits i) ws.Weighted.weights))
      in
      let all_ok =
        List.for_all
          (fun (i, marked) ->
            Codec.to_int
              (Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
                 ~suspect:marked ~length:bits)
            = i)
          copies
      in
      let distinct =
        List.length
          (List.sort_uniq compare
             (List.map (fun (_, m) -> List.map snd (Weighted.bindings m)) copies))
      in
      let worst =
        List.fold_left
          (fun acc (_, m) -> max acc (Distortion.global qs ws.Weighted.weights m))
          0 copies
      in
      Printf.printf
        "64 copies: %d distinct, all identified: %s, worst distortion %d <= 40\n"
        distinct
        (if all_ok then "yes" else "NO")
        worst;
      if not all_ok then failwith "e6: a marked copy was misidentified";
      if worst > r.Local_scheme.budget then
        failwith
          (Printf.sprintf "e6: distortion %d exceeds the budget of %d" worst
             r.Local_scheme.budget)

(* ------------------------------------------------------------------ *)
(* E7 — Theorem 5: the tree scheme. *)

let tree_queries =
  lazy
    (let mk text =
       let phi = Parser.mso_of_string text in
       let compiled =
         Mso_compile.compile ~base:[| "a"; "b" |] ~free:[ "x"; "y" ] phi
       in
       Tree_query.of_compiled compiled ~params:[ "x" ] ~results:[ "y" ]
     in
     [
       ("child", mk "S1(x,y) | S2(x,y)");
       ("a-descendant", mk "Leq(x,y) & a(y)");
       ("left-child", mk "S1(x,y)");
     ])

(* The bibliography workload doubled from 100 to 1 600 articles: compile
   and prepare times, and every W_a of the one-pass evaluation checked
   against the direct pattern evaluator.  A time is the best of seven
   samples of process CPU time (one domain runs, and CPU time leaves out
   what a shared host steals).  Each sample starts after a full major
   collection and repeats the call for at least 50 ms, and the samples go
   round the sizes in turn, so a burst of load hits every size alike. *)
let e7_biblio_doubling () =
  let p = Biblio_xml.pattern in
  let constants = Pattern.constants p in
  let sample f =
    Gc.full_major ();
    let rec go calls elapsed =
      let t0 = Sys.time () in
      f ();
      let s = Sys.time () -. t0 in
      if elapsed +. s < 0.05 then go (calls + 1) (elapsed +. s)
      else (elapsed +. s) /. float_of_int calls
    in
    go 1 0.0
  in
  let sizes =
    List.map
      (fun articles ->
        let doc = Biblio_xml.generate (Prng.create 1) ~articles () in
        let tree = Encode.to_binary_abstract ~constants doc in
        let alphabet = Encode.abstract_alphabet ~constants doc in
        let q = Pattern.compile p ~alphabet in
        let compile () = ignore (Pattern.compile p ~alphabet) in
        let prepare () = ignore (Tree_scheme.prepare tree q) in
        (articles, doc, tree, q, compile, prepare))
      [ 100; 200; 400; 800; 1600 ]
  in
  let best = Array.make (2 * List.length sizes) infinity in
  for _ = 1 to 7 do
    List.iteri
      (fun i (_, _, _, _, compile, prepare) ->
        best.(2 * i) <- Float.min best.(2 * i) (sample compile);
        best.((2 * i) + 1) <- Float.min best.((2 * i) + 1) (sample prepare))
      sizes
  done;
  let t =
    Texttab.create
      [ "articles"; "nodes"; "compile ms"; "prepare ms"; "x prev"; "|W|";
        "capacity"; "W_a = evaluator" ]
  in
  let worst_growth = ref 0.0 in
  List.iteri
    (fun i (articles, doc, tree, q, _, _) ->
      let sets = Tree_query.result_sets q tree in
      let direct = Array.make (Btree.size tree) [] in
      List.iter
        (fun a -> direct.(a) <- Pattern.eval_node p doc a)
        (Pattern.structural_params p doc);
      let agree =
        Array.for_all2
          (fun set d -> List.map (fun b -> b.(0)) (Tuple.Set.elements set) = d)
          sets direct
      in
      let prepare_s = best.((2 * i) + 1) in
      let growth =
        if i = 0 then "-"
        else begin
          let g = prepare_s /. best.((2 * i) - 1) in
          worst_growth := Float.max !worst_growth g;
          Printf.sprintf "%.2f" g
        end
      in
      let active, cap =
        match Tree_scheme.prepare tree q with
        | Ok s -> ((Tree_scheme.report s).Tree_scheme.active, Tree_scheme.capacity s)
        | Error _ -> (0, 0)
      in
      Texttab.addf t "%d|%d|%.1f|%.1f|%s|%d|%d|%s" articles (Btree.size tree)
        (best.(2 * i) *. 1000.) (prepare_s *. 1000.) growth active cap
        (if agree then "yes" else "NO"))
    sizes;
  Texttab.print ~title:"E7b. Bibliography doubling series (Biblio_xml pattern)" t;
  Printf.printf
    "Prepare grows by at most %.2fx per doubling of the document (linear\n\
     would be 2x, the per-parameter evaluation it replaced was 4x).\n"
    !worst_growth

let e7 () =
  header "E7. Theorem 5: pairs found vs the |W|/4m prediction";
  let t =
    Texttab.create
      [ "query"; "m"; "size"; "|W|"; "|W|/4m"; "capacity"; "max |dist|";
        "detected"; "prepare ms" ]
  in
  let failed = ref [] in
  List.iter
    (fun (qname, q) ->
      List.iter
        (fun size ->
          let g = Prng.create (size + 13) in
          let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size in
          let scheme, ms = secs (fun () -> Tree_scheme.prepare tree q) in
          match scheme with
          | Error e -> Printf.printf "%s size=%d: %s\n" qname size e
          | Ok scheme ->
              let r = Tree_scheme.report scheme in
              let weights = Trees_gen.random_weights g tree ~lo:10 ~hi:99 in
              let qs = Tree_scheme.query_system scheme in
              let cap = Tree_scheme.capacity scheme in
              let worst = ref 0 and ok = ref 0 in
              let trials = 5 in
              for _ = 1 to trials do
                let message = Codec.random g cap in
                let marked = Tree_scheme.mark scheme message weights in
                worst := max !worst (Distortion.global qs weights marked);
                if
                  Bitvec.equal message
                    (Tree_scheme.detect_weights scheme ~original:weights
                       ~suspect:marked ~length:cap)
                then incr ok
              done;
              Texttab.addf t "%s|%d|%d|%d|%d|%d|%d|%d/%d|%.0f" qname
                r.Tree_scheme.states size r.Tree_scheme.active
                r.Tree_scheme.predicted_pairs cap !worst !ok trials (ms *. 1000.);
              if !ok < trials || !worst > 1 then
                failed := Printf.sprintf "%s size=%d" qname size :: !failed)
        [ 150; 300; 600 ])
    (Lazy.force tree_queries);
  Texttab.print t;
  if !failed <> [] then
    failwith
      ("e7: a detection missed or the distortion exceeded 1 on "
      ^ String.concat ", " (List.rev !failed));
  print_endline
    "Capacity tracks the Theta(|W|/m) prediction (the lemma's |W|/4m with\n\
     behavioral pairing finding twins in most blocks), and the per-message\n\
     distortion never exceeds 1 — stronger than the 1/eps budget the\n\
     theorem asks for.";
  e7_biblio_doubling ()

(* ------------------------------------------------------------------ *)
(* E8 — Lemma 2: MSO-to-automaton compilation. *)

let e8 () =
  header "E8. Lemma 2: compiled automata agree with the MSO oracle";
  let formulas =
    [
      ("label", "a(x)", [ "x" ]);
      ("left child", "S1(x,y)", [ "x"; "y" ]);
      ("tree order", "Leq(x,y)", [ "x"; "y" ]);
      ("has left child", "exists y. S1(x,y)", [ "x" ]);
      ("is root", "forall y. (Leq(y,x) -> y = x)", [ "x" ]);
      ("is leaf", "~(exists y. (S1(x,y) | S2(x,y)))", [ "x" ]);
      ( "grandchild",
        "exists z. ((S1(x,z) | S2(x,z)) & (S1(z,y) | S2(z,y)))",
        [ "x"; "y" ] );
      ( "order via sets",
        "forallS X. ((x in X & forall u. forall v. ((u in X & (S1(u,v) | S2(u,v))) -> v in X)) -> y in X)",
        [ "x"; "y" ] );
    ]
  in
  let t =
    Texttab.create
      [ "formula"; "free"; "states"; "labels"; "compile ms"; "oracle checks"; "agree" ]
  in
  let disagree = ref [] in
  List.iter
    (fun (name, text, free) ->
      let phi = Parser.mso_of_string text in
      let compiled, ms =
        secs (fun () -> Mso_compile.compile ~base:[| "a"; "b" |] ~free phi)
      in
      let g = Prng.create 77 in
      let checks = ref 0 and agree = ref true in
      for _ = 1 to 6 do
        let size = 1 + Prng.int g 7 in
        let tree = Trees_gen.random_tree g ~alphabet:[ "a"; "b" ] ~size in
        let struct_view = Btree.to_structure tree in
        let rec assignments = function
          | [] -> [ [] ]
          | v :: rest ->
              List.concat_map
                (fun partial -> List.init size (fun node -> (v, node) :: partial))
                (assignments rest)
        in
        List.iter
          (fun elems ->
            incr checks;
            let a = Mso_compile.accepts compiled tree ~elems ~sets:[] in
            let o = Mso.holds struct_view ~elems ~sets:[] phi in
            if a <> o then agree := false)
          (assignments free)
      done;
      Texttab.addf t "%s|%d|%d|%d|%.1f|%d|%s" name (List.length free)
        (Dta.nstates compiled.Mso_compile.auto)
        (Alphabet.size compiled.Mso_compile.alpha)
        (ms *. 1000.) !checks
        (if !agree then "yes" else "NO");
      if not !agree then disagree := name :: !disagree)
    formulas;
  Texttab.print t;
  if !disagree <> [] then
    failwith
      ("e8: compiled automaton disagrees with the MSO oracle on "
      ^ String.concat ", " (List.rev !disagree))

(* ------------------------------------------------------------------ *)
(* E9 — Example 4 at scale: XML watermarking. *)

let e9 () =
  header "E9. Example 4: XML school documents";
  let pattern = School_xml.example4_pattern in
  Printf.printf "f(Robert) on the paper's document = %d (paper: 28)\n"
    (Pattern.f_value pattern School_xml.example4 "Robert");
  let t =
    Texttab.create
      [ "students"; "nodes"; "|W|"; "m"; "capacity"; "node dist <= 1";
        "worst value dist"; "detected"; "prepare ms" ]
  in
  List.iter
    (fun students ->
      let doc = School_xml.generate (Prng.create students) ~students () in
      let prepared, ms = secs (fun () -> Pipeline.prepare_xml doc pattern) in
      match prepared with
      | Error e -> Printf.printf "students=%d: %s\n" students e
      | Ok xs ->
          let r = Tree_scheme.report xs.Pipeline.scheme in
          let cap = Tree_scheme.capacity xs.Pipeline.scheme in
          let message = Codec.random (Prng.create (students + 1)) cap in
          let marked = Pipeline.mark_xml xs ~message doc in
          let node_ok =
            List.for_all
              (fun a ->
                let sum d =
                  List.fold_left
                    (fun s v -> s + Option.value ~default:0 (Utree.value_of d v))
                    0 (Pattern.eval_node pattern d a)
                in
                abs (sum marked - sum doc) <= 1)
              (Pattern.structural_params pattern doc)
          in
          let names =
            List.sort_uniq compare
              (List.map (Utree.label doc) (Pattern.structural_params pattern doc))
          in
          let worst_value =
            List.fold_left
              (fun acc n ->
                max acc
                  (abs
                     (Pattern.f_value pattern marked n
                     - Pattern.f_value pattern doc n)))
              0 names
          in
          let decoded =
            Pipeline.detect_xml xs ~original:doc ~suspect:marked ~length:cap
          in
          Texttab.addf t "%d|%d|%d|%d|%d|%s|%d|%s|%.0f" students
            (Utree.size doc) r.Tree_scheme.active r.Tree_scheme.states cap
            (if node_ok then "yes" else "NO")
            worst_value
            (if Bitvec.equal decoded message then "yes" else "NO")
            (ms *. 1000.))
    [ 30; 100; 300 ];
  Texttab.print t;
  (* A second, deeper document family: bibliography//article[author=$a]/
     citations — the descendant axis in anger. *)
  let bpattern = Biblio_xml.pattern in
  let t2 =
    Texttab.create
      [ "articles"; "nodes"; "|W|"; "m"; "capacity"; "node dist <= 1";
        "detected"; "prepare ms" ]
  in
  List.iter
    (fun articles ->
      let doc = Biblio_xml.generate (Prng.create articles) ~articles () in
      let prepared, ms = secs (fun () -> Pipeline.prepare_xml doc bpattern) in
      match prepared with
      | Error e -> Printf.printf "articles=%d: %s\n" articles e
      | Ok xs ->
          let r = Tree_scheme.report xs.Pipeline.scheme in
          let cap = Tree_scheme.capacity xs.Pipeline.scheme in
          let message = Codec.random (Prng.create (articles + 1)) cap in
          let marked = Pipeline.mark_xml xs ~message doc in
          let node_ok =
            List.for_all
              (fun a ->
                let sum d =
                  List.fold_left
                    (fun s v -> s + Option.value ~default:0 (Utree.value_of d v))
                    0 (Pattern.eval_node bpattern d a)
                in
                abs (sum marked - sum doc) <= 1)
              (Pattern.structural_params bpattern doc)
          in
          let decoded =
            Pipeline.detect_xml xs ~original:doc ~suspect:marked ~length:cap
          in
          Texttab.addf t2 "%d|%d|%d|%d|%d|%s|%s|%.0f" articles
            (Utree.size doc) r.Tree_scheme.active r.Tree_scheme.states cap
            (if node_ok then "yes" else "NO")
            (if Bitvec.equal decoded message then "yes" else "NO")
            (ms *. 1000.))
    [ 40; 120 ];
  Texttab.print
    ~title:"bibliography//article[author=$a]/citations (descendant axis)" t2;
  print_endline
    "Node-level distortion respects the Theorem 5 certificate everywhere;\n\
     value-level distortion (a first name unions its occurrences) stays\n\
     far below the occurrence-count bound.  The nested bibliography family\n\
     exercises the // axis end to end."

(* ------------------------------------------------------------------ *)
(* E10 — Fact 1: detection under attack, redundancy sweep. *)

let e10 () =
  header "E10. Fact 1: detection rate vs attacker budget and redundancy";
  let ws = Random_struct.regular_rings (Prng.create 11) ~n:160 in
  let q = Paper_examples.figure1_query in
  let options = { Local_scheme.default_options with rho = Some 1 } in
  match Local_scheme.prepare ~options ws q with
  | Error e -> print_endline e
  | Ok scheme ->
      let base = Local_scheme.carriers scheme in
      let qs = Local_scheme.query_system scheme in
      let active = Query_system.active qs in
      let bits = 4 in
      let trials = 25 in
      let t =
        Texttab.create [ "attack"; "budget d'"; "R=1"; "R=3"; "R=5" ]
      in
      let rate times attack_of seed budget_out =
        if times * bits > Carriers.capacity base then "n/a"
        else begin
          let ok = ref 0 in
          for k = 1 to trials do
            let g = Prng.create (seed + k) in
            let message = Codec.random g bits in
            let marked = Robust.mark base ~times message ws.Weighted.weights in
            let attacked = Adversary.apply g (attack_of ()) ~active marked in
            budget_out := max !budget_out (Distortion.global qs marked attacked);
            let decoded =
              Robust.detect base ~times ~length:bits
                ~original:ws.Weighted.weights ~suspect:attacked
            in
            if Bitvec.equal decoded message then incr ok
          done;
          Printf.sprintf "%.2f" (float_of_int !ok /. float_of_int trials)
        end
      in
      let row name attack_of seed =
        let budget = ref 0 in
        let r1 = rate 1 attack_of seed budget in
        let r3 = rate 3 attack_of (seed + 1000) budget in
        let r5 = rate 5 attack_of (seed + 2000) budget in
        Texttab.add_row t [ name; string_of_int !budget; r1; r3; r5 ]
      in
      row "none" (fun () -> Adversary.Constant_offset { delta = 0 }) 1;
      row "offset +9" (fun () -> Adversary.Constant_offset { delta = 9 }) 2;
      List.iter
        (fun count ->
          row
            (Printf.sprintf "%d flips +-1" count)
            (fun () -> Adversary.Random_flips { count; amplitude = 1 })
            (10 + count))
        [ 4; 16; 48; 120 ];
      row "uniform noise +-1" (fun () -> Adversary.Uniform_noise { amplitude = 1 }) 3;
      row "uniform noise +-2" (fun () -> Adversary.Uniform_noise { amplitude = 2 }) 4;
      Texttab.print t;
      print_endline
        "Higher redundancy survives bigger budgets; offsets are free for the\n\
         attacker but useless (pair differences cancel them) — the Fact 1\n\
         crossover in action."

(* ------------------------------------------------------------------ *)
(* E11 — Theorems 7-8: incremental updates and auto-collusion. *)

let e11 () =
  header "E11. Incremental updates";
  let ws = Random_struct.regular_rings (Prng.create 5) ~n:100 in
  let q = Paper_examples.figure1_query in
  let options = { Local_scheme.default_options with rho = Some 1 } in
  match Local_scheme.prepare ~options ws q with
  | Error e -> print_endline e
  | Ok scheme ->
      let bits = min 8 (Local_scheme.capacity scheme) in
      let t = Texttab.create [ "scenario"; "outcome" ] in
      let g = Prng.create 17 in
      (* Theorem 7 sweep: random weights-only updates. *)
      let ok = ref 0 in
      let trials = 20 in
      for _ = 1 to trials do
        let message = Codec.random g bits in
        let marked = Local_scheme.mark scheme message ws.Weighted.weights in
        let updated =
          List.fold_left
            (fun w t ->
              if Prng.bernoulli g 0.4 then Weighted.add_delta w t (Prng.int g 100)
              else w)
            ws.Weighted.weights
            (Weighted.support ws.Weighted.weights)
        in
        let propagated =
          Incremental.propagate ~original:ws.Weighted.weights ~marked ~updated
        in
        if
          Bitvec.equal message
            (Local_scheme.detect_weights scheme ~original:updated
               ~suspect:propagated ~length:bits)
        then incr ok
      done;
      Texttab.addf t "weights-only updates (Thm 7)|%d/%d detected" !ok trials;
      (* Theorem 8: type-preservation decisions. *)
      let triangles k =
        Structure.add_pairs
          (Structure.create Schema.graph (3 * k))
          "E"
          (List.concat_map
             (fun c ->
               let b = 3 * c in
               List.concat_map
                 (fun (x, y) -> [ (b + x, b + y); (b + y, b + x) ])
                 [ (0, 1); (1, 2); (2, 0) ])
             (List.init k Fun.id))
      in
      let verdict old_g new_g =
        match
          Incremental.update_decision ~rho:1 ~arity:1 ~old_graph:old_g
            ~new_graph:new_g
        with
        | `Keep_mark -> "keep mark"
        | `Remark_required -> "re-mark required"
      in
      Texttab.addf t "insert a triangle (Thm 8)|%s"
        (verdict (triangles 4) (triangles 6));
      Texttab.addf t "bridge two triangles (Thm 8)|%s"
        (verdict (triangles 4)
           (Structure.add_pairs (triangles 4) "E" [ (0, 3); (3, 0) ]));
      (* Auto-collusion. *)
      let m1 = Codec.random (Prng.create 3) bits in
      let m2 = Codec.random (Prng.create 4) bits in
      let c1 = Local_scheme.mark scheme m1 ws.Weighted.weights in
      let c2 = Local_scheme.mark scheme m2 ws.Weighted.weights in
      let avg = Incremental.average c1 c2 in
      let d1 =
        Codec.hamming m1
          (Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
             ~suspect:avg ~length:bits)
      in
      Texttab.addf t "auto-collusion: average 2 copies|%d/%d bits still read as copy 1"
        (bits - d1) bits;
      Texttab.print t;
      print_endline
        "Weights-only updates never lose the mark; structural updates are\n\
         safe exactly when type-preserving; averaging two versions destroys\n\
         the disagreeing bits (only bits where both copies agree survive)."

(* ------------------------------------------------------------------ *)
(* E12 — the Agrawal-Kiernan comparison. *)

let e12 () =
  header "E12. Query distortion: Agrawal-Kiernan vs the Theorem 3 scheme";
  let ws = Random_struct.travel (Prng.create 21) ~travels:100 ~transports:250 in
  let q = Random_struct.travel_query in
  let qs = Query_system.of_relational ws.Weighted.graph q in
  let stats w =
    let a =
      Array.of_list
        (List.map (fun (_, v) -> float_of_int v) (Weighted.bindings w))
    in
    (Stats.mean a, Stats.stddev a)
  in
  let m0, s0 = stats ws.Weighted.weights in
  let t =
    Texttab.create
      [ "scheme"; "touched"; "mean shift"; "stddev shift"; "max query dist";
        "detected"; "rounding(8)" ]
  in
  List.iter
    (fun (gamma, xi) ->
      let p = { Agrawal_kiernan.key = 0xFEED; gamma; xi } in
      let marked = Agrawal_kiernan.mark p ws.Weighted.weights in
      let m1, s1 = stats marked in
      let attacked =
        Adversary.apply (Prng.create 9)
          (Adversary.Rounding { multiple = 8 })
          ~active:(Weighted.support marked) marked
      in
      Texttab.addf t "AK gamma=%d xi=%d|%d|%.2f|%.2f|%d|%s|%s" gamma xi
        (List.length (Agrawal_kiernan.marked_positions p ws.Weighted.weights))
        (m1 -. m0) (s1 -. s0)
        (Distortion.global qs ws.Weighted.weights marked)
        (if Agrawal_kiernan.is_detected p marked then "yes" else "NO")
        (if Agrawal_kiernan.is_detected p attacked then "survives" else "erased"))
    [ (8, 2); (4, 4); (2, 6) ];
  (let options = { Local_scheme.default_options with rho = Some 1 } in
   match Local_scheme.prepare ~options ws q with
   | Error e -> print_endline e
   | Ok scheme ->
       let cap = Local_scheme.capacity scheme in
       let message = Codec.random (Prng.create 2) cap in
       let marked = Local_scheme.mark scheme message ws.Weighted.weights in
       let m1, s1 = stats marked in
       let attacked =
         Adversary.apply (Prng.create 9)
           (Adversary.Rounding { multiple = 8 })
           ~active:(Query_system.active qs) marked
       in
       let after_attack =
         Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
           ~suspect:attacked ~length:cap
       in
       let survived = cap - Codec.hamming message after_attack in
       Texttab.addf t "Theorem 3 (%d bits)|%d|%.2f|%.2f|%d|%s|%d/%d bits" cap
         (2 * cap) (m1 -. m0) (s1 -. s0)
         (Distortion.global qs ws.Weighted.weights marked)
         (if
            Bitvec.equal message
              (Local_scheme.detect_weights scheme ~original:ws.Weighted.weights
                 ~suspect:marked ~length:cap)
          then "yes"
          else "NO")
         survived cap);
  Texttab.print t;
  print_endline
    "Both preserve global mean/stddev (the only guarantee [1] gives), but\n\
     AK's max parametric-query distortion grows with gamma and xi while the\n\
     Theorem 3 scheme's stays at its certificate of 1.  Low-bit laundering\n\
     (rounding) erases AK; our pair differences partially survive it and\n\
     redundancy (E10) recovers the rest."

(* ------------------------------------------------------------------ *)
(* E13 — ablation: the aggregate swap (note in Section 1).  The sum in f
   can be replaced by mean, min or max without losing the positive
   results. *)

let e13 () =
  header "E13. Aggregate ablation: sum vs mean/min/max under pair marking";
  let q = Paper_examples.figure1_query in
  let t =
    Texttab.create
      [ "|W|"; "bits"; "max sum dist"; "max mean dist"; "max min dist"; "max max dist" ]
  in
  List.iter
    (fun n ->
      let ws = Random_struct.regular_rings (Prng.create n) ~n in
      let options = { Local_scheme.default_options with rho = Some 1 } in
      match Local_scheme.prepare ~options ws q with
      | Error e -> print_endline e
      | Ok scheme ->
          let qs = Local_scheme.query_system scheme in
          let cap = Local_scheme.capacity scheme in
          let g = Prng.create (n * 3) in
          let worst = Array.make 4 0. in
          for _ = 1 to 8 do
            let marked =
              Local_scheme.mark scheme (Codec.random g cap) ws.Weighted.weights
            in
            List.iteri
              (fun i agg ->
                worst.(i) <-
                  Float.max worst.(i)
                    (Distortion.global_agg agg qs ws.Weighted.weights marked))
              [ Distortion.Sum; Distortion.Mean; Distortion.Min; Distortion.Max ]
          done;
          Texttab.addf t "%d|%d|%.2f|%.2f|%.2f|%.2f" n cap worst.(0) worst.(1)
            worst.(2) worst.(3))
    [ 60; 120; 240 ];
  Texttab.print t;
  print_endline
    "All four aggregates stay within the certificate: sums by the split\n\
     argument, means because a contained pair contributes 0 and a split\n\
     pair at most 1/|W_a|, min/max because every weight moves by <= 1."

(* ------------------------------------------------------------------ *)
(* E14 — several registered queries at once. *)

let e14 () =
  header "E14. Multi-query preservation (psi_1, ..., psi_k simultaneously)";
  let adjacency = Paper_examples.figure1_query in
  let two_away =
    Query.make ~params:[ "u" ] ~results:[ "v" ]
      Fo.(exists "w" (atom "E" [ "u"; "w" ] &&& atom "E" [ "w"; "v" ]))
  in
  let t =
    Texttab.create
      [ "|U|"; "queries"; "capacity"; "budget"; "dist q1"; "dist q2"; "detected" ]
  in
  List.iter
    (fun n ->
      let ws = Random_struct.regular_rings (Prng.create (n + 2)) ~n in
      let options = { Local_scheme.default_options with rho = Some 2 } in
      match Multi_scheme.prepare ~options ws [ adjacency; two_away ] with
      | Error e -> Printf.printf "n=%d: %s\n" n e
      | Ok scheme ->
          let r = Multi_scheme.report scheme in
          let cap = Multi_scheme.capacity scheme in
          let g = Prng.create 4 in
          let worst = Array.make 2 0 in
          let ok = ref 0 in
          let trials = 8 in
          for _ = 1 to trials do
            let message = Codec.random g cap in
            let marked = Multi_scheme.mark scheme message ws.Weighted.weights in
            List.iter
              (fun (qi, d) -> worst.(qi) <- max worst.(qi) d)
              (Multi_scheme.distortion scheme ws.Weighted.weights marked);
            if
              Bitvec.equal message
                (Multi_scheme.detect_weights scheme ~original:ws.Weighted.weights
                   ~suspect:marked ~length:cap)
            then incr ok
          done;
          Texttab.addf t "%d|%d|%d|%d|%d|%d|%d/%d" n r.Multi_scheme.queries cap
            r.Multi_scheme.budget worst.(0) worst.(1) !ok trials)
    [ 40; 80; 160 ];
  Texttab.print t;
  print_endline
    "One pair selection certifies both registered queries at once — the\n\
     paper's 'straightforward by simple projection techniques' extension."

(* ------------------------------------------------------------------ *)
(* E15 — detection statistics: confidence, false positives, collusion. *)

let e15 () =
  header "E15. Detection statistics: confidence, false positives, collusion";
  let ws = Random_struct.regular_rings (Prng.create 19) ~n:120 in
  let q = Paper_examples.figure1_query in
  let options = { Local_scheme.default_options with rho = Some 1 } in
  match Local_scheme.prepare ~options ws q with
  | Error e -> print_endline e
  | Ok scheme ->
      let cap = min 12 (Local_scheme.capacity scheme) in
      let g = Prng.create 23 in
      let message = Codec.random g cap in
      let verdict_of suspect =
        Detector.read_weights (Local_scheme.pairs scheme)
          ~original:ws.Weighted.weights ~suspect ~length:cap
      in
      let t =
        Texttab.create
          [ "suspect"; "strong"; "weak"; "silent"; "confidence"; "marked?"; "p(match id)" ]
      in
      let row name suspect =
        let v = verdict_of suspect in
        Texttab.addf t "%s|%d|%d|%d|%.2f|%s|%.2g" name v.Detector.strong
          v.Detector.weak v.Detector.silent v.Detector.confidence
          (if Detector.is_marked v then "yes" else "no")
          (Detector.match_pvalue ~expected:message v)
      in
      row "marked copy" (Local_scheme.mark scheme message ws.Weighted.weights);
      row "original (innocent twin)" ws.Weighted.weights;
      row "innocent with +-1 noise"
        (Adversary.apply (Prng.create 5)
           (Adversary.Uniform_noise { amplitude = 1 })
           ~active:(Query_system.active (Local_scheme.query_system scheme))
           ws.Weighted.weights);
      List.iter
        (fun k ->
          let copies =
            List.init k (fun _ ->
                Local_scheme.mark scheme (Codec.random g cap) ws.Weighted.weights)
          in
          row
            (Printf.sprintf "%d-party collusion (average)" k)
            (Incremental.average_many copies))
        [ 2; 4; 8 ];
      Texttab.print t;
      print_endline
        "A marked copy shows every carrier intact (confidence 1, p ~ 2^-bits);\n\
         innocent servers show silence and no significant match; colluders\n\
         erode the strong-carrier count as k grows — the false-positive side\n\
         of Fact 1's limited-knowledge assumption, quantified."

(* ------------------------------------------------------------------ *)
(* E16 — Theorem 4: bounded clique-width via parse trees. *)

let e16 () =
  header "E16. Theorem 4: watermarking bounded clique-width graphs";
  let t =
    Texttab.create
      [ "graph"; "n"; "max degree"; "cwd <="; "m"; "capacity";
        "graph-query dist"; "detected" ]
  in
  let run ?(distance2 = false) name term labels =
    let tree = Cw_parse.to_tree ~labels term in
    let q =
      if distance2 then Cw_adjacency.distance2_query ~labels
      else Cw_adjacency.query ~labels
    in
    match Tree_scheme.prepare tree q with
    | Error e -> Printf.printf "%s: %s\n" name e
    | Ok scheme ->
        let graph = Cw_term.eval term in
        let gf = Gaifman.of_structure graph in
        let n = Structure.size graph in
        let graph_w =
          Weighted.of_list 1 (List.init n (fun i -> (Tuple.singleton i, 50 + i)))
        in
        let tw = Cw_parse.vertex_weights tree graph_w in
        let cap = Tree_scheme.capacity scheme in
        let g = Prng.create 3 in
        let worst = ref 0 and ok = ref 0 in
        let trials = 5 in
        let f w u =
          List.fold_left
            (fun s v -> s + Weighted.get_elt w v)
            0 (Gaifman.neighbors gf u)
        in
        for _ = 1 to trials do
          let message = Codec.random g cap in
          let marked_tw = Tree_scheme.mark scheme message tw in
          (if distance2 then
             (* graph query = distance-2 neighborhood sums; equal to the
                tree-side view by the tested correspondence *)
             worst :=
               max !worst
                 (Distortion.global (Tree_scheme.query_system scheme) tw marked_tw)
           else begin
             let marked_gw = Cw_parse.weights_to_graph tree marked_tw in
             Structure.iter_universe
               (fun u -> worst := max !worst (abs (f marked_gw u - f graph_w u)))
               graph
           end);
          if
            Bitvec.equal message
              (Tree_scheme.detect_weights scheme ~original:tw ~suspect:marked_tw
                 ~length:cap)
          then incr ok
        done;
        Texttab.addf t "%s|%d|%d|%d|%d|%d|%d|%d/%d" name n
          (Gaifman.max_degree gf) labels
          (Tree_scheme.report scheme).Tree_scheme.states cap !worst !ok trials
  in
  run "clique K40" (Cw_term.clique 40) 2;
  run "clique K80" (Cw_term.clique 80) 2;
  run "path P80" (Cw_term.path 80) 3;
  run "random cwd<=3, 60 v"
    (Cw_term.random (Prng.create 31) ~labels:3 ~vertices:60) 3;
  run "random cwd<=4, 100 v"
    (Cw_term.random (Prng.create 37) ~labels:4 ~vertices:100) 4;
  run ~distance2:true "K60, distance-2 query" (Cw_term.clique 60) 2;
  Texttab.print t;
  print_endline
    "Cliques have unbounded degree (Theorem 3's k blows up with n) but\n\
     clique-width 2: the parse-tree automaton has a size independent of\n\
     degree, and the marked parse-tree weights bound the distortion of the\n\
     *graph* adjacency query by 1 — Theorem 4 end to end."

(* ------------------------------------------------------------------ *)
(* E17 — indirect access on a query budget: how much of the mark a
   detector recovers when it can only afford a fraction of the possible
   queries.  (The paper's detector asks *all* parameters; a practical owner
   probing a pirate web form cannot.) *)

let e17 () =
  header "E17. Detection under a query budget (partial indirect access)";
  let ws = Random_struct.regular_rings (Prng.create 29) ~n:200 in
  let q = Paper_examples.figure1_query in
  match Local_scheme.prepare ws q with
  | Error e -> print_endline e
  | Ok scheme ->
      let qs = Local_scheme.query_system scheme in
      let cap = min 16 (Local_scheme.capacity scheme) in
      let params = Array.of_list (Query_system.params qs) in
      let t =
        Texttab.create
          [ "queries asked"; "fraction"; "carriers seen"; "bits correct"; "full id" ]
      in
      let trials = 20 in
      List.iter
        (fun fraction ->
          let asked = max 1 (int_of_float (fraction *. float_of_int (Array.length params))) in
          let seen = ref 0 and correct = ref 0 and full = ref 0 in
          for k = 1 to trials do
            let g = Prng.create (1000 + k) in
            let message = Codec.random g cap in
            let marked = Local_scheme.mark scheme message ws.Weighted.weights in
            let server = Query_system.server qs marked in
            let subset = Array.to_list (Prng.sample g asked params) in
            let observed =
              List.fold_left
                (fun acc a ->
                  List.fold_left (fun acc (b, v) -> Tuple.Map.add b v acc) acc (server a))
                Tuple.Map.empty subset
            in
            let v =
              Detector.read (Local_scheme.pairs scheme)
                ~original:ws.Weighted.weights ~observed ~length:cap
            in
            seen := !seen + v.Detector.strong + v.Detector.weak;
            correct := !correct + (cap - Codec.hamming message v.Detector.decoded);
            if Bitvec.equal message v.Detector.decoded then incr full
          done;
          Texttab.addf t "%d|%.2f|%.1f/%d|%.1f/%d|%d/%d" asked fraction
            (float_of_int !seen /. float_of_int trials)
            cap
            (float_of_int !correct /. float_of_int trials)
            cap !full trials)
        [ 0.02; 0.05; 0.1; 0.25; 0.5; 1.0 ];
      Texttab.print t;
      print_endline
        "Carriers become visible as soon as some asked parameter's result\n\
         set contains them; on rings each element sits in two parameters'\n\
         results, so coverage (hence recovered bits) rises quickly with the\n\
         budget and full identification needs only a modest fraction."

(* ------------------------------------------------------------------ *)
(* E18 — the paper's "note on relative error": marking by relative
   perturbation (w -> w(1 +- eps)) trivially bounds *relative* query
   distortion by eps, but (1) small weights get fragile, often vanishing
   marks, and (2) absolute distortion scales with the weights, which is
   wrong when "error is less tolerable as weights increase". *)

let e18 () =
  header "E18. Relative vs absolute perturbation (the note on relative error)";
  let q = Paper_examples.figure1_query in
  let eps = 0.01 in
  let t =
    Texttab.create
      [ "scheme"; "weights"; "abs global dist"; "local dist";
        "dead pairs"; "bits recovered" ]
  in
  let run label weigh_fn =
    let g = (Random_struct.regular_rings (Prng.create 3) ~n:120).Weighted.graph in
    let ws = Weighted.weigh weigh_fn g in
    let scheme =
      match Local_scheme.prepare ws q with Ok s -> s | Error e -> failwith e
    in
    let qs = Local_scheme.query_system scheme in
    let pairs = Local_scheme.pairs scheme in
    let cap = List.length pairs in
    let message = Codec.random (Prng.create 4) cap in
    (* Relative marking: a bit orients the pair as (x(1+eps), x(1-eps)),
       rounded back to integers — the scheme the note dismisses. *)
    let scale w tup d =
      let v = Weighted.get w tup in
      Weighted.set w tup
        (int_of_float (Float.round (float_of_int v *. (1. +. (d *. eps)))))
    in
    let rel =
      List.fold_left
        (fun (w, i) { Pairing.fst; snd } ->
          let dir = if Bitvec.get message i then 1. else -1. in
          (scale (scale w fst dir) snd (-.dir), i + 1))
        (ws.Weighted.weights, 0) pairs
      |> fst
    in
    let report name marked =
      let dead =
        List.fold_left
          (fun acc { Pairing.fst; snd } ->
            let moved tup =
              Weighted.get marked tup <> Weighted.get ws.Weighted.weights tup
            in
            if moved fst || moved snd then acc else acc + 1)
          0 pairs
      in
      let v =
        Detector.read_weights pairs ~original:ws.Weighted.weights
          ~suspect:marked ~length:cap
      in
      Texttab.addf t "%s|%s|%d|%d|%d/%d|%d/%d" name label
        (Distortion.global qs ws.Weighted.weights marked)
        (Weighted.local_distance ws.Weighted.weights marked)
        dead cap
        (cap - Codec.hamming message v.Detector.decoded)
        cap
    in
    report "relative 1%" rel;
    report "absolute +-1" (Local_scheme.mark scheme message ws.Weighted.weights)
  in
  run "tiny (1..4)" (fun v -> 1 + (v mod 4));
  run "large (~10^4)" (fun v -> 10_000 + v);
  Texttab.print t;
  print_endline
    "Relative marking keeps the *relative* distortion at 1% by fiat, but\n\
     pairs of small weights round back to themselves (no recoverable\n\
     signal), and on large weights the absolute query distortion is two\n\
     orders of magnitude above the +-1 scheme's certificate — both\n\
     objections of the paper's note, measured."

(* ------------------------------------------------------------------ *)
(* E19 — structural attacks and survivable detection.  A redistributor
   who deletes rows, samples a subset, renumbers the universe or prunes
   XML subtrees defeats any detector keyed by element/node id.  The
   survivable detector realigns the surviving carriers (names for rows,
   path signatures for XML value nodes), treats the rest as erasures,
   and conditions its p-value on what survived. *)

let e19 () =
  header "E19. Structural attacks: erasures, realignment, survivability";
  (* Relational: the full deterministic grid of attack_suite. *)
  let ws =
    Random_struct.travel (Prng.create 19) ~travels:100 ~transports:400
  in
  let q = Random_struct.travel_query in
  let report =
    match
      Attack_suite.run ~seed:19 ~redundancies:[ 1; 5 ] ~message_bits:4
        ~workload:"travel database (100 travels, 400 transports)" ws q
    with
    | Error e -> failwith ("e19: " ^ e)
    | Ok report -> report
  in
  print_string (Attack_suite.render report);
  (* The bar of EXPERIMENTS.md: at redundancy 5 the survivable detector
     recovers every structural cell. *)
  let grid = Attack_suite.default_grid ~active:report.Attack_suite.active in
  let lost = ref [] in
  List.iter
    (fun (o : Attack_suite.outcome) ->
      match List.nth grid o.grid_index with
      | Attack_suite.Structural _ when o.redundancy = 5 && not o.recovered ->
          lost := Printf.sprintf "%s R=5" o.attack :: !lost
      | _ -> ())
    report.Attack_suite.rows;
  (* XML: the same story against subtree deletion and reordering. *)
  let students = 300 in
  let doc = School_xml.generate (Prng.create 20) ~students () in
  let p = School_xml.example4_pattern in
  match Pipeline.prepare_xml doc p with
  | Error e -> failwith ("e19: " ^ e)
  | Ok xs ->
      let scheme = xs.Pipeline.scheme in
      let bits = 4 in
      let base = Tree_scheme.carriers scheme in
      let times = Robust.redundancy_for base ~message_length:bits in
      let message = Codec.of_int ~bits 0b1011 in
      let marked =
        Utree.with_weights doc
          (Robust.mark base ~times message (Utree.weights doc))
      in
      let t =
        Texttab.create
          [ "tree attack"; "erased"; "p-value"; "survivable"; "aligned" ]
      in
      List.iteri
        (fun i attack ->
          let g = Prng.create (100 + i) in
          let suspect = Adversary.apply_tree g attack marked in
          let rv, _ =
            Survivable.detect_tree base ~times ~length:bits ~original:doc suspect
          in
          (* the id-keyed reader, behind Pipeline.detect_xml's guard: a
             suspect whose node count changed is refused *)
          let naive =
            Utree.size suspect = Utree.size doc
            && Bitvec.equal message
                 (Robust.detect base ~times ~length:bits
                    ~original:(Utree.weights doc)
                    ~suspect:(Utree.weights suspect))
          in
          let recovered = Bitvec.equal message rv.Robust.message in
          if not recovered then
            lost := Adversary.describe_tree attack :: !lost;
          Texttab.addf t "%s|%d/%d|%.2g|%s|%s"
            (Adversary.describe_tree attack)
            rv.Robust.carriers.Detector.erased (times * bits)
            (Survivable.match_pvalue ~expected:message rv)
            (if recovered then "recovered" else "LOST")
            (if naive then "recovered" else "LOST"))
        [
          Adversary.Delete_subtrees { fraction = 0.1 };
          Adversary.Delete_subtrees { fraction = 0.25 };
          Adversary.Reorder_siblings;
          Adversary.Strip_values { fraction = 0.2 };
        ];
      Printf.printf "\nXML (school, %d students): %d bits at redundancy %d\n"
        students bits times;
      Texttab.print t;
      print_endline
        "Deleting rows or subtrees erases carriers instead of flipping\n\
         them: the erasure-aware majority still recovers the message and\n\
         the p-value is computed over survivors only, while the id-keyed\n\
         aligned detector reads garbage as soon as ids shift.";
      if !lost <> [] then
        failwith
          ("e19: the survivable detector lost the message on "
          ^ String.concat ", " (List.rev !lost))


(* ------------------------------------------------------------------ *)
(* E21 — incremental neighborhood-index maintenance: after an edit
   script touching a handful of elements, Neighborhood.reindex recomputes
   spheres only inside the dirty region (Gaifman locality) and splices
   the result into the previous index, bit-identical to a from-scratch
   index_universe.  The point of the experiment is the wall-clock gap on
   the largest bench instance. *)

(* E21 times every row [e21_reps] times and reports the median with the
   interquartile range: one sample of a millisecond-scale call moves by
   tens of percent on a shared host. *)
let e21_reps = 21

(* The result of the last of [e21_reps] runs of [f], the median of their
   times and the interquartile range. *)
let timed_reps f =
  let last = ref None in
  let ts =
    Array.init e21_reps (fun _ ->
        let r, t = secs f in
        last := Some r;
        t)
  in
  ( Option.get !last,
    Stats.quantile 0.5 ts,
    Stats.quantile 0.75 ts -. Stats.quantile 0.25 ts )

let e21 () =
  header "E21. Incremental reindex vs full re-index (Gaifman locality)";
  let t =
    Texttab.create
      [ "instance"; "edit script"; "dirty"; "full s"; "IQR"; "incr s"; "IQR"; "speedup";
        "identical" ]
  in
  let case ~instance ~g ~rho ~arity ~prev name edits =
    let edited, dirty = Structure.apply_edits g edits in
    let full, t_full, iqr_full =
      timed_reps (fun () -> Neighborhood.index_universe edited ~rho ~arity)
    in
    let old_gf = Gaifman.of_structure g in
    let inc, t_inc, iqr_inc =
      timed_reps (fun () ->
          Neighborhood.reindex ~old:g ~old_gf edited
            ~gf:(Gaifman.refresh edited ~prev:old_gf ~dirty) ~prev ~dirty)
    in
    let same =
      full.Neighborhood.tuples = inc.Neighborhood.tuples
      && full.Neighborhood.types = inc.Neighborhood.types
      && full.Neighborhood.representatives = inc.Neighborhood.representatives
    in
    Texttab.addf t "%s|%s|%d|%.4f|%.4f|%.4f|%.4f|%.1fx|%s" instance name
      (List.length dirty) t_full iqr_full t_inc iqr_inc (t_full /. t_inc)
      (if same then "yes" else "NO");
    if not same then failwith ("e21: incremental reindex diverged on " ^ name)
  in
  (* Main instance: a 40x40 grid — 1600 elements, the largest structure
     the bench types, and the paper's regime (bounded degree, bounded
     type diversity): the dirty sphere is tiny and so is the set of old
     types the incremental path must anchor. *)
  let grid = (Grid.structure ~w:40 ~h:40).Weighted.graph in
  let rho = 2 and arity = 1 in
  let prev = Neighborhood.index_universe grid ~rho ~arity in
  Printf.printf "grid 40x40: %d elements, rho=%d, ntp=%d; times are medians of %d runs\n"
    (Structure.size grid) rho (Neighborhood.ntp prev) e21_reps;
  let gcase = case ~instance:"grid 40x40" ~g:grid ~rho ~arity ~prev in
  let mid = Grid.vertex ~h:40 20 20 in
  gcase "1 tuple insert"
    [ Structure.Insert_tuple ("H", Tuple.pair mid (Grid.vertex ~h:40 23 23)) ];
  gcase "1 tuple delete"
    [ Structure.Delete_tuple ("H", Tuple.pair mid (Grid.vertex ~h:40 21 20)) ];
  gcase "8-edit script"
    (List.concat
       [
         List.init 4 (fun i ->
             Structure.Insert_tuple
               ("V", Tuple.pair (Grid.vertex ~h:40 i i) (Grid.vertex ~h:40 (i + 2) i)));
         [ Structure.Add_element None ];
         List.init 3 (fun i ->
             Structure.Insert_tuple ("H", Tuple.pair (Grid.vertex ~h:40 30 i) 1600));
       ]);
  (* Contrast row: a random bounded-degree graph where nearly every
     element has its own type (ntp ~ n).  Anchoring one representative
     per surviving old type then costs as much as re-typing everything —
     locality buys nothing when the type count grows with the instance. *)
  let wsr = Random_struct.graph (Prng.create 41) ~n:420 ~max_degree:6 ~edges:940 in
  let gr = wsr.Weighted.graph in
  let prev_r = Neighborhood.index_universe gr ~rho ~arity in
  case ~instance:"random n=420" ~g:gr ~rho ~arity ~prev:prev_r "1 tuple insert"
    [ Structure.Insert_tuple ("E", Tuple.pair 17 230) ];
  Texttab.print t;
  (* The serving engine's whole [update] request on ring datasets, the
     shape of the pipeline bench's serve workload: an identity prepare
     at rho 1, a mark, then the same one-edge toggle between the
     first and the last ring, p50 and IQR over the toggles. *)
  let engine_update n =
    let engine = Serve_engine.create () in
    let send req =
      let payload = Serve_engine.handle engine (Serve_protocol.encode_request req) in
      match Serve_protocol.decode_response payload with
      | Ok { Serve_protocol.status = `Ok _; _ } -> ()
      | Ok { Serve_protocol.status = `Err m; _ } -> failwith ("e21 engine: " ^ m)
      | Error m -> failwith ("e21 engine: bad response: " ^ m)
    in
    send (Serve_protocol.Gen { id = "live"; n; seed = 21 });
    send
      (Serve_protocol.Prepare
         { id = "live"; seed = 21; rho = Some 1; epsilon = 1.0; shard = true;
           qspec = Serve_protocol.Identity });
    send (Serve_protocol.Mark ("live", "1011"));
    let times =
      Array.init e21_reps (fun i ->
          let op = if i mod 2 = 0 then "insert" else "delete" in
          let body = Printf.sprintf "%s E 0 %d\n%s E %d 0\n" op (n - 1) op (n - 1) in
          1000.0 *. snd (secs (fun () -> send (Serve_protocol.Update ("live", body)))))
    in
    (Stats.quantile 0.5 times, Stats.quantile 0.75 times -. Stats.quantile 0.25 times)
  in
  let ut = Texttab.create [ "engine update"; "elements"; "p50 ms"; "IQR ms" ] in
  List.iter
    (fun n ->
      let p50, iqr = engine_update n in
      Texttab.addf ut "one-edge toggle|%d|%.2f|%.2f" n p50 iqr)
    [ 1_000; 10_000; 100_000 ];
  Texttab.print ut;
  Printf.printf
    "A single-tuple edit dirties O(degree^rho) of the grid's %d elements;\n\
     the incremental path types that sphere's tuples and one anchor per\n\
     old type in one classification pass (DESIGN.md 5.7).  The\n\
     acceptance bar is a >=5x speedup on the single-edit rows; the random\n\
     row shows the honest limit when ntp ~ n.  The engine rows time a\n\
     whole serve [update] request: the same edit at 10^3 to 10^5 elements.\n"
    (Structure.size grid)

(* ------------------------------------------------------------------ *)
(* E24 — detect-and-recover robustness curves (DESIGN.md 5.10): mark the
   travel workload, protect it with Recovery capsules (Gaifman-local
   groups, keyed certificates replicated across sibling groups), then
   sweep three attack families over increasing intensity and compare the
   detection rate of the plain survivable pipeline against
   repair-then-detect.  The acceptance bar: repair never hurts (repaired
   rate >= unrepaired on every row), and strictly improves
   on at least one distortion and one mix-and-match row at an intensity
   where the unrepaired detector fails.  Every trial owns a PRNG derived
   from (row, trial) and every phase is deterministic, so the table is
   bit-identical at any --jobs.  The recovery suite's "repair curve never
   hurts" test pins the first half on every row at reduced trials. *)

let e24 () =
  header "E24. Repair-then-detect robustness curves (Recovery capsules)";
  let bits = 4 and times = 5 and trials = 8 in
  let message = Codec.of_int ~bits 0b1011 in
  let ws = Random_struct.travel (Prng.create 24) ~travels:100 ~transports:400 in
  let scheme =
    match Local_scheme.prepare ws Random_struct.travel_query with
    | Ok s -> s
    | Error e -> failwith ("e24: " ^ e)
  in
  let base = Local_scheme.carriers scheme in
  let qs = Local_scheme.query_system scheme in
  let active = Query_system.active qs in
  let nactive = List.length active in
  let marked_w = Robust.mark base ~times message ws.Weighted.weights in
  let marked = { ws with Weighted.weights = marked_w } in
  let cap = Recovery.protect marked in
  (* the second copy mix-and-match splices from: same instance, marked
     with the complement message *)
  let other_w =
    Robust.mark base ~times
      (Codec.of_int ~bits (lnot 0b1011 land ((1 lsl bits) - 1)))
      ws.Weighted.weights
  in
  let detect_plain suspect =
    let rv, _ =
      Survivable.detect_structure base ~times ~length:bits
        ~original:ws ~suspect
    in
    Bitvec.equal message rv.Robust.message
  in
  let detect_rep suspect =
    let rv, report, _ =
      Recovery.detect_repaired cap base ~times ~length:bits
        ~original:ws ~suspect
    in
    (Bitvec.equal message rv.Robust.message, report.Recovery.repaired)
  in
  let t =
    Texttab.create
      [ "attack"; "intensity"; "unrepaired"; "repaired"; "groups/trial" ]
  in
  let run_row idx (family, label, intensity) =
    let un = ref 0 and rp = ref 0 and groups = ref 0 in
    for trial = 0 to trials - 1 do
      let g = Prng.create (0xE24001 + (7919 * idx) + trial) in
      let suspect =
        match family with
        | `Flips ->
            let count = int_of_float (intensity *. float_of_int nactive) in
            {
              ws with
              Weighted.weights =
                Adversary.apply g
                  (Adversary.Random_flips { count; amplitude = 2 })
                  ~active marked_w;
            }
        | `Mix ->
            {
              ws with
              Weighted.weights =
                Adversary.apply g
                  (Adversary.Mix_and_match
                     { other = other_w; fraction = intensity })
                  ~active marked_w;
            }
        | `Delete ->
            Adversary.apply_structural g
              (Adversary.Delete_tuples { fraction = intensity })
              marked
      in
      if detect_plain suspect then incr un;
      let ok, k = detect_rep suspect in
      if ok then incr rp;
      groups := !groups + k
    done;
    let fr x = float_of_int x /. float_of_int trials in
    Texttab.addf t "%s|%.2f|%.2f|%.2f|%.1f" label intensity (fr !un) (fr !rp)
      (float_of_int !groups /. float_of_int trials)
  in
  let grid =
    List.concat
      [
        List.map
          (fun i -> (`Flips, "random flips", i))
          [ 0.25; 0.5; 0.75; 1.0 ];
        List.map
          (fun i -> (`Mix, "mix-and-match", i))
          [ 0.25; 0.5; 0.75; 1.0 ];
        List.map (fun i -> (`Delete, "delete elements", i)) [ 0.2; 0.4; 0.6 ];
      ]
  in
  List.iteri run_row grid;
  Texttab.print t;
  Printf.printf
    "Weight-level attacks leave every certificate host alive, so repair\n\
     restores the marked weights exactly and the repaired detector stays\n\
     at 1.00 after the unrepaired one collapses; deletions also remove\n\
     certificate copies, so recovery degrades only when all %d replica\n\
     hosts of a group die together.\n"
    Recovery.default_options.Recovery.redundancy


(* ------------------------------------------------------------------ *)
(* E27 — multi-recipient fingerprinting (DESIGN.md 5.13): one prepared
   scheme serves every recipient.  A planted-leak trace scores the whole
   candidate population against one recipient's copy under the
   Sidak-corrected threshold, and the collusion grid (coalition size x
   attack) checks that only coalition members are ever accused.  After
   printing, it raises unless the planted leak alone is accused, every
   grid cell is traced and no cell accuses an innocent. *)

let e27 () =
  header "E27. Multi-recipient fingerprinting: tracing";
  let n = 100_000 and population = 1_000 in
  let master = 0xF1D0 and gen_seed = 0x27 and prep_seed = 27 in
  let leak = "r7" in
  let ws = Random_struct.regular_rings (Prng.create gen_seed) ~n in
  let w = ws.Weighted.weights in
  let qs =
    Query_system.of_custom
      ~params:(List.init (Structure.size ws.Weighted.graph) Tuple.singleton)
      ~result_set:(fun p -> Tuple.Set.singleton p)
      ~weight_arity:1
  in
  let q = Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v" in
  let options =
    { Local_scheme.default_options with seed = prep_seed; rho = Some 1; epsilon = 1.0 }
  in
  let scheme =
    match Local_scheme.prepare ~options ~qs ws q with
    | Ok s -> s
    | Error m -> failwith ("e27 prepare: " ^ m)
  in
  (* production-redundancy geometry (9 interleaved repetitions) when the
     capacity allows it; the scheme's defaults otherwise *)
  let fp =
    match Fingerprint.of_local ~times:9 ~master scheme with
    | Ok f -> f
    | Error _ -> (
        match Fingerprint.of_local ~master scheme with
        | Ok f -> f
        | Error m -> failwith ("e27 fingerprint: " ^ m))
  in
  let planted = Fingerprint.mark_for fp leak w in
  let candidates = List.init population (fun i -> "r" ^ string_of_int i) in
  (* statistics on for the trace alone: fp.tails counts its binomial
     tail evaluations, a host-speed-independent cost figure *)
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let since = Obs.snapshot () in
  let (rep, trace_s), tails =
    Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
        let r =
          secs (fun () -> Fingerprint.trace fp ~original:w ~suspect:planted candidates)
        in
        let d = Obs.diff ~since (Obs.snapshot ()) in
        (r, Option.value ~default:0 (List.assoc_opt "fp.tails" d.Obs.counters)))
  in
  let t = Texttab.create [ "step"; "value" ] in
  Texttab.addf t "instance|%d elements (rings), %d recipients" n population;
  Texttab.addf t "codeword|%d bits x %d repetitions" (Fingerprint.length fp)
    (Fingerprint.times fp);
  Texttab.addf t "trace %d candidates|%.2f s" population trace_s;
  Texttab.addf t "tail evaluations, decided bits|%d, %d" tails
    rep.Fingerprint.decided;
  Texttab.addf t "planted leak %s uniquely accused|%b" leak
    (rep.Fingerprint.accused = [ leak ]);
  Texttab.print t;
  (* -- the collusion grid ------------------------------------------- *)
  let grid_fp =
    match Fingerprint.of_local ~length:256 ~times:3 ~master scheme with
    | Ok f -> f
    | Error _ -> fp
  in
  let report, grid_s =
    secs (fun () ->
        Fingerprint.run_grid ~alpha:0.001 ~recipients:[ population ] grid_fp w)
  in
  print_newline ();
  print_string (Fingerprint.render_grid report);
  Printf.printf "grid: %.2f s\n" grid_s;
  Printf.printf
    "The trace scores all %d candidates against the planted copy under\n\
     the Sidak-corrected threshold.  The grid colludes k copies per cell\n\
     (majority / mix / interleave, per-copy laundering noise) and must\n\
     accuse members only.\n"
    population;
  (* the gate, after the tables so a failure still shows them *)
  if rep.Fingerprint.accused <> [ leak ] then
    failwith
      (Printf.sprintf "e27: the trace accused [%s], not the planted leak %s alone"
         (String.concat "," rep.Fingerprint.accused) leak);
  List.iter
    (fun (o : Fingerprint.outcome) ->
      let cell = Printf.sprintf "k=%d %s" o.Fingerprint.coalition o.Fingerprint.attack in
      if not o.Fingerprint.traced then failwith ("e27: grid cell not traced: " ^ cell);
      if o.Fingerprint.false_accusations > 0 then
        failwith
          (Printf.sprintf "e27: grid cell %s accused %d innocents" cell
             o.Fingerprint.false_accusations))
    report.Fingerprint.rows

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16); ("e17", e17); ("e18", e18);
    ("e19", e19); ("e21", e21); ("e24", e24); ("e27", e27);
  ]

let usage why =
  Printf.eprintf "main.exe: %s\nusage: main.exe [--jobs N] [EXPERIMENT ...]\n\
                  experiments: %s\n"
    why (String.concat " " (List.map fst experiments));
  exit 2

let () =
  let rec parse ids = function
    | [] -> List.rev ids
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 ->
            Par.set_jobs (Some j);
            parse ids rest
        | _ -> usage (Printf.sprintf "--jobs %s: want a positive integer" v))
    | [ "--jobs" ] -> usage "--jobs: missing value"
    | id :: rest ->
        if List.mem_assoc id experiments then parse (id :: ids) rest
        else usage ("unknown experiment " ^ id)
  in
  let ids = parse [] (List.tl (Array.to_list Sys.argv)) in
  let to_run =
    if ids = [] then experiments
    else List.map (fun id -> (id, List.assoc id experiments)) ids
  in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f ()) to_run;
  Printf.printf "\ntotal: %.1f s (wall)\n" (Unix.gettimeofday () -. t0)
