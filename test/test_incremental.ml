(* The incremental-reindex contract: for ANY structure, ANY edit script and
   ANY job count, Neighborhood.reindex over the dirty set the edits report
   is bit-identical — type ids, representatives, ntp — to a from-scratch
   index_universe of the edited structure.  Both paths read the
   process-wide job count; CI runs this suite under the default count and
   again with WMARK_JOBS=2, so every property covers the pooled typing
   phases, and "reindex is job-count independent" compares jobs 1 with
   jobs 2 in one run through [Jobs.with_jobs]. *)

open Wm_util

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* [Neighborhood.reindex] with both Gaifman graphs built from scratch, so
   the contract is checked independently of [Gaifman.refresh]. *)
let reindex ?threshold ~old g ~prev ~dirty =
  Neighborhood.reindex ?threshold ~old ~old_gf:(Gaifman.of_structure old)
    g ~gf:(Gaifman.of_structure g) ~prev ~dirty

let equal_index (a : Neighborhood.index) (b : Neighborhood.index) =
  a.rho = b.rho && a.arity = b.arity
  && a.tuples = b.tuples && a.types = b.types
  && a.representatives = b.representatives

(* --- random structures and edit scripts ------------------------------ *)

let random_graph g =
  let n = 4 + Prng.int g 10 in
  let edges = 1 + Prng.int g (2 * n) in
  (Wm_workload.Random_struct.graph g ~n ~max_degree:4 ~edges).Weighted.graph

(* Generates a well-formed script by replaying each step on a shadow copy,
   so tuple inserts stay in range and removals hit the last element. *)
let random_script g base steps =
  let cur = ref base in
  let script = ref [] in
  for _ = 1 to steps do
    let size = Structure.size !cur in
    let edit =
      match Prng.int g 5 with
      | 0 | 1 ->
          Structure.Insert_tuple
            ("E", Tuple.pair (Prng.int g size) (Prng.int g size))
      | 2 -> (
          match Relation.to_list (Structure.relation !cur "E") with
          | [] ->
              Structure.Insert_tuple
                ("E", Tuple.pair (Prng.int g size) (Prng.int g size))
          | ts -> Structure.Delete_tuple ("E", List.nth ts (Prng.int g (List.length ts))))
      | 3 -> Structure.Add_element None
      | _ ->
          if size > 2 then Structure.Remove_element (size - 1)
          else Structure.Add_element None
    in
    let cur', _ = Structure.apply_edit !cur edit in
    cur := cur';
    script := edit :: !script
  done;
  List.rev !script

let run_case ~threshold seed =
  let g = Prng.create (0x1DC0 + seed) in
  let base = random_graph g in
  let rho = Prng.int g 3 in
  let arity = 1 + Prng.int g 2 in
  let prev = Neighborhood.index_universe base ~rho ~arity in
  let script = random_script g base (1 + Prng.int g 5) in
  let edited, dirty = Structure.apply_edits base script in
  let inc = reindex ?threshold ~old:base edited ~prev ~dirty in
  let full = Neighborhood.index_universe edited ~rho ~arity in
  equal_index inc full

let prop_reindex_incremental =
  (* threshold 2.0 never falls back: this exercises the anchor-and-splice
     path even when the whole universe is affected *)
  QCheck.Test.make ~count:50
    ~name:"reindex (incremental path) == index_universe"
    QCheck.(int_range 0 100_000)
    (run_case ~threshold:(Some 2.0))

let prop_reindex_default =
  QCheck.Test.make ~count:50
    ~name:"reindex (default threshold) == index_universe"
    QCheck.(int_range 0 100_000)
    (run_case ~threshold:None)

let prop_reindex_jobs1 =
  QCheck.Test.make ~count:25 ~name:"reindex is job-count independent"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x0B5 + seed) in
      let base = random_graph g in
      let rho = 1 and arity = 2 in
      let prev = Neighborhood.index_universe base ~rho ~arity in
      let script = random_script g base 3 in
      let edited, dirty = Structure.apply_edits base script in
      let reindex_at jobs =
        Jobs.with_jobs jobs (fun () ->
            reindex ~threshold:2.0 ~old:base edited ~prev ~dirty)
      in
      let a = reindex_at 1 and b = reindex_at 2 in
      equal_index a b)

(* --- deterministic corners ------------------------------------------- *)

let pair_struct () =
  let s = Structure.create Schema.graph 6 in
  Structure.add_pairs s "E" [ (0, 1); (1, 2); (3, 4) ]

let test_noop_edits () =
  let g0 = pair_struct () in
  let prev = Neighborhood.index_universe g0 ~rho:1 ~arity:2 in
  let g1, dirty = Structure.apply_edits g0 [] in
  check (Alcotest.list int) "no dirt" [] dirty;
  let inc = reindex ~old:g0 g1 ~prev ~dirty in
  check bool "identical" true
    (equal_index inc (Neighborhood.index_universe g1 ~rho:1 ~arity:2))

let test_single_edits () =
  let g0 = pair_struct () in
  List.iter
    (fun (label, edit) ->
      let prev = Neighborhood.index_universe g0 ~rho:1 ~arity:2 in
      let g1, dirty = Structure.apply_edit g0 edit in
      let inc = reindex ~threshold:2.0 ~old:g0 g1 ~prev ~dirty in
      let full = Neighborhood.index_universe g1 ~rho:1 ~arity:2 in
      check bool label true (equal_index inc full))
    [
      ("insert", Structure.Insert_tuple ("E", Tuple.pair 2 3));
      ("delete", Structure.Delete_tuple ("E", Tuple.pair 0 1));
      ("delete absent", Structure.Delete_tuple ("E", Tuple.pair 5 5));
      ("add element", Structure.Add_element None);
      ("add named", Structure.Add_element (Some "fresh"));
      ("remove last", Structure.Remove_element 5);
    ]

let test_remove_isolated () =
  (* The removed element is isolated: the dirty set is empty, yet every
     tuple mentioning it must leave the index. *)
  let g0 = pair_struct () in
  let g1, dirty = Structure.apply_edit g0 (Structure.Remove_element 5) in
  check (Alcotest.list int) "no dirt" [] dirty;
  let prev = Neighborhood.index_universe g0 ~rho:1 ~arity:2 in
  let inc = reindex ~threshold:2.0 ~old:g0 g1 ~prev ~dirty in
  check bool "identical" true
    (equal_index inc (Neighborhood.index_universe g1 ~rho:1 ~arity:2));
  check int "universe shrank" 25 (Array.length inc.Neighborhood.types)

let test_remove_nonlast_rejected () =
  let g0 = pair_struct () in
  Alcotest.check_raises "non-last removal"
    (Invalid_argument
       "Structure.apply_edit: can only remove the last element (2, universe \
        has 6)") (fun () ->
      ignore (Structure.apply_edit g0 (Structure.Remove_element 2)))

let test_gaifman_refresh () =
  let g0 = pair_struct () in
  let gf0 = Gaifman.of_structure g0 in
  let g1, dirty =
    Structure.apply_edits g0
      [
        Structure.Insert_tuple ("E", Tuple.pair 2 3);
        Structure.Delete_tuple ("E", Tuple.pair 0 1);
        Structure.Add_element None;
      ]
  in
  let fresh = Gaifman.of_structure g1 in
  let inc = Gaifman.refresh g1 ~prev:gf0 ~dirty in
  check int "size" (Gaifman.size fresh) (Gaifman.size inc);
  for a = 0 to Gaifman.size fresh - 1 do
    check (Alcotest.list int)
      (Printf.sprintf "row %d" a)
      (Gaifman.neighbors fresh a) (Gaifman.neighbors inc a)
  done

let test_affected_elements () =
  let g0 = pair_struct () in
  let g1, dirty = Structure.apply_edit g0 (Structure.Insert_tuple ("E", Tuple.pair 2 3)) in
  let old_gf = Gaifman.of_structure g0 in
  let gf = Gaifman.of_structure g1 in
  check (Alcotest.list int) "rho=0 is the dirty set" [ 2; 3 ]
    (Neighborhood.affected_elements ~old_gf ~gf ~rho:0 ~dirty);
  (* rho=1: 2's old neighbor 1, 3's old neighbor 4, plus the new edge *)
  check (Alcotest.list int) "rho=1 reaches both sides" [ 1; 2; 3; 4 ]
    (Neighborhood.affected_elements ~old_gf ~gf ~rho:1 ~dirty)

(* --- the wired layers ------------------------------------------------ *)

let edge_query =
  Query.make ~params:[ "u" ] ~results:[ "v" ] (Fo.atom "E" [ "u"; "v" ])

(* Membership of (u, v) read off v's 1-ball, not u's: an untouched
   parameter keeps its row only if the refresh re-asks the results near
   the edits.  Its graphs are sparse, so most parameters are untouched
   and an edit often gives an isolated element its first successor. *)
let has_successor_query =
  Query.make ~params:[ "u" ] ~results:[ "v" ] (Fo.exists "w" (Fo.atom "E" [ "v"; "w" ]))

let sparse_graph g =
  let n = 20 + Prng.int g 20 in
  (Wm_workload.Random_struct.graph g ~n ~max_degree:3 ~edges:(Prng.int g 10)).Weighted.graph

let test_query_refresh_matches_fresh () =
  List.iter
    (fun (name, q, graph) ->
      for seed = 0 to 7 do
        let g = Prng.create (0x9F5 + seed) in
        let base = graph g in
        let qs = Wm_watermark.Query_system.of_relational base q in
        let script = random_script g base (1 + Prng.int g 4) in
        let edited, dirty = Structure.apply_edits base script in
        let old_gf = Gaifman.of_structure base in
        let gf = Gaifman.of_structure edited in
        let affected = Neighborhood.affected_elements ~old_gf ~gf ~rho:1 ~dirty in
        let refreshed =
          Wm_watermark.Query_system.refresh_relational qs edited q ~affected
        in
        let fresh = Wm_watermark.Query_system.of_relational edited q in
        List.iter
          (fun a ->
            check bool
              (Printf.sprintf "%s seed %d: result set of param %d" name seed a.(0))
              true
              (Tuple.Set.equal
                 (Wm_watermark.Query_system.result_set refreshed a)
                 (Wm_watermark.Query_system.result_set fresh a)))
          (Wm_watermark.Query_system.params fresh);
        check bool
          (Printf.sprintf "%s seed %d: W and its rows" name seed)
          true
          (Wm_watermark.Query_system.active refreshed
           = Wm_watermark.Query_system.active fresh
          && Wm_watermark.Query_system.rows refreshed
             = Wm_watermark.Query_system.rows fresh)
      done)
    [ ("edge", edge_query, random_graph); ("has-successor", has_successor_query, sparse_graph) ]

(* Remove_element shrinks the universe under the weights; keep these
   scripts growth/churn-only so the weighted structure stays valid. *)
let random_keeping_script g base steps =
  List.map
    (function Structure.Remove_element _ -> Structure.Add_element None | e -> e)
    (random_script g base steps)

let test_local_scheme_update_matches_prepare () =
  let module L = Wm_watermark.Local_scheme in
  for seed = 0 to 5 do
    let g = Prng.create (0x10CA + (seed * 31) + 7) in
    let ws =
      Wm_workload.Random_struct.graph g ~n:(8 + Prng.int g 6) ~max_degree:4
        ~edges:14
    in
    match L.prepare ws edge_query with
    | Error _ -> ()
    | Ok scheme ->
        let script = random_keeping_script g ws.Weighted.graph 3 in
        let edited, dirty = Structure.apply_edits ws.Weighted.graph script in
        let ws' = { ws with Weighted.graph = edited } in
        let incremental =
          L.update scheme ~old:ws ~old_gf:(Gaifman.of_structure ws.Weighted.graph)
            ws' ~gf:(Gaifman.of_structure edited) edge_query ~dirty
        in
        let fresh = L.prepare ws' edge_query in
        (match (incremental, fresh) with
        | Ok u, Ok p ->
            check bool
              (Printf.sprintf "seed %d: same report" seed)
              true
              (L.report u = L.report p);
            check bool
              (Printf.sprintf "seed %d: same pairs" seed)
              true
              (L.pairs u = L.pairs p)
        | Error a, Error b ->
            check Alcotest.string
              (Printf.sprintf "seed %d: same error" seed)
              b a
        | Ok _, Error e ->
            Alcotest.failf "seed %d: update ok but prepare failed: %s" seed e
        | Error e, Ok _ ->
            Alcotest.failf "seed %d: prepare ok but update failed: %s" seed e)
  done

let test_multi_scheme_update_matches_prepare () =
  let module M = Wm_watermark.Multi_scheme in
  let q2 =
    Query.make ~params:[ "u" ] ~results:[ "v" ] (Fo.atom "E" [ "v"; "u" ])
  in
  for seed = 0 to 3 do
    let g = Prng.create (0x3417 + seed) in
    let ws =
      Wm_workload.Random_struct.graph g ~n:(8 + Prng.int g 5) ~max_degree:4
        ~edges:12
    in
    let queries = [ edge_query; q2 ] in
    match M.prepare ws queries with
    | Error _ -> ()
    | Ok scheme ->
        let script = random_keeping_script g ws.Weighted.graph 3 in
        let edited, dirty = Structure.apply_edits ws.Weighted.graph script in
        let ws' = { ws with Weighted.graph = edited } in
        let old_gf = Gaifman.of_structure ws.Weighted.graph in
        let gf = Gaifman.of_structure edited in
        (match
           ( M.update scheme ~old:ws ~old_gf ws' ~gf queries ~dirty,
             M.prepare ws' queries )
         with
        | Ok u, Ok p ->
            check bool
              (Printf.sprintf "seed %d: same report" seed)
              true
              (M.report u = M.report p);
            check bool
              (Printf.sprintf "seed %d: same pairs" seed)
              true
              (M.pairs u = M.pairs p)
        | Error a, Error b ->
            check Alcotest.string
              (Printf.sprintf "seed %d: same error" seed)
              b a
        | Ok _, Error e ->
            Alcotest.failf "seed %d: update ok but prepare failed: %s" seed e
        | Error e, Ok _ ->
            Alcotest.failf "seed %d: prepare ok but update failed: %s" seed e)
  done

(* --- hub-shaped structures ------------------------------------------- *)

(* A star: hub 0 joined to every leaf by E and by ternary T facts, a ring
   of E edges among the leaves, unary U on every third leaf.  At the hub
   the sphere-local tuple search scans E and T; at a leaf it probes E,
   and T too at 70 leaves. *)
let star_struct leaves =
  let schema =
    Schema.make
      [
        { Schema.name = "E"; arity = 2 };
        { Schema.name = "T"; arity = 3 };
        { Schema.name = "U"; arity = 1 };
      ]
  in
  let n = leaves + 1 in
  let s = ref (Structure.create schema n) in
  let add r t = s := Structure.add_tuple !s r t in
  add "E" [| 0; 0 |];
  for i = 1 to leaves do
    let next = (i mod leaves) + 1 in
    if i mod 2 = 0 then add "E" [| 0; i |] else add "E" [| i; 0 |];
    add "E" [| i; next |];
    add "T" [| 0; i; next |];
    if i mod 5 = 0 then add "T" [| i; 0; i |];
    if i mod 3 = 0 then add "U" [| i |]
  done;
  !s

(* of_tuple against the whole-structure materialization it replaces:
   [Structure.induced] over the tuple's elements, then the sphere. *)
let test_star_of_tuple () =
  List.iter
    (fun leaves ->
      let g = star_struct leaves in
      let gf = Gaifman.of_structure g in
      let n = Structure.size g in
      let centers =
        List.init n (fun x -> [| x |])
        @ [ [| 0; 1 |]; [| 2; 0 |]; [| 3; 3 |]; [| 1; 2; 0 |] ]
      in
      List.iter
        (fun rho ->
          List.iter
            (fun c ->
              let nb = Neighborhood.of_tuple g gf ~rho c in
              let sphere = Gaifman.sphere_tuple gf ~rho c in
              let sub, original =
                Structure.induced g (Array.to_list c @ sphere)
              in
              let label =
                Printf.sprintf "%d leaves, rho %d, %s" leaves rho
                  (Tuple.to_string c)
              in
              check bool label true
                (Structure.equal sub nb.Neighborhood.sub
                && original = nb.Neighborhood.original))
            centers)
        [ 0; 1; 2 ])
    [ 12; 70 ]

let test_star_reindex () =
  let g0 = star_struct 70 in
  List.iter
    (fun (label, script) ->
      let g1, dirty = Structure.apply_edits g0 script in
      List.iter
        (fun (rho, arity) ->
          let prev = Neighborhood.index_universe g0 ~rho ~arity in
          let inc = reindex ~threshold:2.0 ~old:g0 g1 ~prev ~dirty in
          check bool
            (Printf.sprintf "%s, rho %d, arity %d" label rho arity)
            true
            (equal_index inc (Neighborhood.index_universe g1 ~rho ~arity)))
        [ (1, 1); (2, 1); (1, 2) ])
    [
      ("hub edge", [ Structure.Delete_tuple ("E", Tuple.pair 0 2) ]);
      ("hub triple", [ Structure.Insert_tuple ("T", [| 4; 0; 4 |]) ]);
      ( "new leaf",
        [
          Structure.Add_element None;
          Structure.Insert_tuple ("T", [| 0; 71; 1 |]);
          Structure.Insert_tuple ("E", Tuple.pair 71 0);
        ] );
      ("leaf ring", [ Structure.Delete_tuple ("E", Tuple.pair 7 8) ]);
    ]

(* Refresh over dirty sets of every size, up to the whole universe. *)
let prop_gaifman_refresh_any_dirty =
  QCheck.Test.make ~count:60 ~name:"Gaifman.refresh == of_structure (any dirty set)"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x6F2E + seed) in
      let base = random_graph g in
      let gf0 = Gaifman.of_structure base in
      let edited, dirty =
        Structure.apply_edits base (random_script g base (Prng.int g 5))
      in
      let n = Structure.size edited in
      let share = Prng.int g 4 in
      let extra = List.filter (fun _ -> Prng.int g 3 < share) (List.init n Fun.id) in
      let fresh = Gaifman.of_structure edited in
      let inc = Gaifman.refresh edited ~prev:gf0 ~dirty:(dirty @ extra) in
      Gaifman.size fresh = Gaifman.size inc
      && List.for_all
           (fun a -> Gaifman.neighbors fresh a = Gaifman.neighbors inc a)
           (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "noop edit script" `Quick test_noop_edits;
    Alcotest.test_case "single edits" `Quick test_single_edits;
    Alcotest.test_case "remove isolated element" `Quick test_remove_isolated;
    Alcotest.test_case "non-last removal rejected" `Quick
      test_remove_nonlast_rejected;
    Alcotest.test_case "gaifman refresh" `Quick test_gaifman_refresh;
    Alcotest.test_case "affected elements" `Quick test_affected_elements;
    QCheck_alcotest.to_alcotest prop_reindex_incremental;
    QCheck_alcotest.to_alcotest prop_reindex_default;
    QCheck_alcotest.to_alcotest prop_reindex_jobs1;
    Alcotest.test_case "query refresh == fresh system" `Quick
      test_query_refresh_matches_fresh;
    Alcotest.test_case "local scheme update == prepare" `Quick
      test_local_scheme_update_matches_prepare;
    Alcotest.test_case "multi scheme update == prepare" `Quick
      test_multi_scheme_update_matches_prepare;
    Alcotest.test_case "hub spheres: of_tuple == induced" `Quick
      test_star_of_tuple;
    Alcotest.test_case "hub edits: reindex == index_universe" `Quick
      test_star_reindex;
    QCheck_alcotest.to_alcotest prop_gaifman_refresh_any_dirty;
  ]
