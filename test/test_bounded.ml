(* Shape groups in neighborhood typing (DESIGN.md 5.14): every sphere of
   at most 62 elements is keyed by its renamed shape, and tuples with an
   equal shape and equal center labels share one leader; larger spheres
   go through the generic prep alone.  The groups must be a pure
   speedup — bit-identical to the frozen Neighborhood_ref pipeline for
   any structure and job count, spheres on both sides of the size limit
   included. *)

open Wm_util

let check = Alcotest.check
let bool = Alcotest.bool

(* [Neighborhood.reindex] with both Gaifman graphs built from scratch, so
   the contract is checked independently of [Gaifman.refresh]. *)
let reindex ?threshold ~old g ~prev ~dirty =
  Neighborhood.reindex ?threshold ~old ~old_gf:(Gaifman.of_structure old)
    g ~gf:(Gaifman.of_structure g) ~prev ~dirty

let equal_index (a : Neighborhood.index) (b : Neighborhood.index) =
  a.rho = b.rho && a.arity = b.arity
  && a.tuples = b.tuples && a.types = b.types
  && a.representatives = b.representatives

let sparse_graph g =
  let n = 6 + Prng.int g 20 in
  let edges = n + Prng.int g (n / 2 + 1) in
  (Wm_workload.Random_struct.graph g ~n ~max_degree:3 ~edges).Weighted.graph

(* A uniformly random labeled tree as a graph structure: treewidth 1,
   the ideal bounded-path workload. *)
let tree_graph g =
  let n = 4 + Prng.int g 20 in
  let s = Structure.create Schema.graph n in
  let edges = List.init (n - 1) (fun i -> Tuple.pair (Prng.int g (i + 1)) (i + 1)) in
  Structure.set_relation s "E" (Relation.of_list 2 edges)

let grid_graph w h = (Wm_workload.Grid.structure ~w ~h).Weighted.graph

(* A 5-clique (sphere width 4) bridged to a path (sphere width 1). *)
let straddle_graph () =
  let n = 12 in
  let s = Structure.create Schema.graph n in
  let clique = ref [] in
  for a = 0 to 4 do
    for b = a + 1 to 4 do
      clique := Tuple.pair a b :: !clique
    done
  done;
  let path = List.init (n - 5) (fun i -> Tuple.pair (4 + i) (min (n - 1) (5 + i))) in
  Structure.set_relation s "E" (Relation.of_list 2 (!clique @ path))

(* Two stars with [a] and [b] leaves: at rho 1 their hubs have spheres
   of a + 1 and b + 1 elements, every leaf a sphere of 2. *)
let two_stars a b =
  let s = Structure.create Schema.graph (a + b + 2) in
  let star hub k = List.init k (fun i -> Tuple.pair hub (hub + 1 + i)) in
  Structure.set_relation s "E" (Relation.of_list 2 (star 0 a @ star (a + 1) b))

(* [two_stars a b] plus one leaf-leaf chord per star: the hubs' spheres
   keep their a + 1 and b + 1 elements but are no longer trees, so they
   take the shape step instead of the tree path. *)
let chorded_stars a b =
  let s = two_stars a b in
  let hub2 = a + 1 in
  Structure.add_pairs s "E" [ (1, 2); (hub2 + 1, hub2 + 2) ]

let both_jobs f = List.for_all f [ 1; 2 ]

(* --- index == reference, across workloads and job counts -------------- *)

let prop_bounded_matches ~name ~count mk =
  QCheck.Test.make ~count ~name
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0xB0D + seed) in
      let base = mk g in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      let tuples = Neighborhood.all_tuples base ~arity in
      let reference = Neighborhood_ref.index base ~rho tuples in
      both_jobs (fun jobs ->
          equal_index (Jobs.index jobs base ~rho tuples) reference))

let prop_sparse =
  prop_bounded_matches ~count:30
    ~name:"index_bounded == index == ref (random sparse)" sparse_graph

let prop_tree =
  prop_bounded_matches ~count:30
    ~name:"index_bounded == index == ref (random tree)" tree_graph

let prop_grid =
  prop_bounded_matches ~count:10 ~name:"index_bounded == index == ref (grid)"
    (fun g -> grid_graph (2 + Prng.int g 4) (2 + Prng.int g 4))

let prop_cache_off =
  QCheck.Test.make ~count:20 ~name:"bounded path, sphere cache on/off"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x0FF + seed) in
      let base = sparse_graph g in
      let rho = Prng.int g 3 in
      let reference = Neighborhood_ref.index_universe base ~rho ~arity:2 in
      both_jobs (fun jobs ->
          equal_index
            (Jobs.index_universe jobs base ~rho ~arity:2)
            reference))

(* --- the sphere-size boundary ----------------------------------------- *)

let counter_of snap name =
  match List.assoc_opt name snap.Wm_obs.Obs.counters with
  | Some v -> v
  | None -> 0

let with_stats f =
  let was = Wm_obs.Obs.enabled () in
  Wm_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Wm_obs.Obs.set_enabled was) f

let obs_delta f =
  let before = Wm_obs.Obs.snapshot () in
  let r = f () in
  (r, Wm_obs.Obs.diff ~since:before (Wm_obs.Obs.snapshot ()))

(* Hubs of 62 and 63 elements: the first is the largest sphere the shape
   step keys, the second the smallest it leaves to the generic prep.
   Plain star spheres are trees and never reach the shape step, so each
   star carries one chord; the unchorded pair is all tree-typed. *)
let test_straddle () =
  with_stats @@ fun () ->
  let plain = two_stars 61 62 in
  let tuples = Neighborhood.all_tuples plain ~arity:1 in
  let reference = Neighborhood_ref.index plain ~rho:1 tuples in
  List.iter
    (fun jobs ->
      let ix, d = obs_delta (fun () -> Jobs.index jobs plain ~rho:1 tuples) in
      check bool
        (Printf.sprintf "jobs %d: plain stars identical to the reference" jobs)
        true (equal_index ix reference);
      check Alcotest.int
        (Printf.sprintf "jobs %d: plain stars fully tree-typed" jobs)
        (Structure.size plain)
        (counter_of d "nbh.tree.typed"))
    [ 1; 2 ];
  let base = chorded_stars 61 62 in
  let tuples = Neighborhood.all_tuples base ~arity:1 in
  let reference = Neighborhood_ref.index base ~rho:1 tuples in
  List.iter
    (fun jobs ->
      let ix, d = obs_delta (fun () -> Jobs.index jobs base ~rho:1 tuples) in
      check bool
        (Printf.sprintf "jobs %d: identical to the reference" jobs)
        true (equal_index ix reference);
      check Alcotest.int
        (Printf.sprintf "jobs %d: only the 63-element hub falls back" jobs)
        1
        (counter_of d "nbh.bw.width_fallbacks");
      check bool
        (Printf.sprintf "jobs %d: leaf spheres bypass iso" jobs)
        true
        (counter_of d "nbh.bw.iso_bypassed" > 0))
    [ 1; 2 ]

(* A random graph of degree <= 30 on 400 elements: at rho 1 every
   sphere fits the shape step, and no two share a shape. *)
let dense_graph () =
  (Wm_workload.Random_struct.graph (Prng.create 0xD30) ~n:400 ~max_degree:30
     ~edges:6000)
    .Weighted.graph

let test_counters () =
  with_stats @@ fun () ->
  let base = grid_graph 6 6 in
  let reference = Neighborhood_ref.index_universe base ~rho:1 ~arity:2 in
  List.iter
    (fun jobs ->
      let ix, d =
        obs_delta (fun () -> Jobs.index_universe jobs base ~rho:1 ~arity:2)
      in
      check bool "identical to the reference" true (equal_index ix reference);
      (* every one of the 1 296 pairs is a group member or leads one *)
      check Alcotest.int "groups" 377
        (counter_of d "nbh.bw.groups");
      check Alcotest.int "iso bypassed" (1296 - 377)
        (counter_of d "nbh.bw.iso_bypassed");
      check Alcotest.int "no fallbacks" 0
        (counter_of d "nbh.bw.width_fallbacks"))
    [ 1; 2 ];
  let dense = dense_graph () in
  let reference = Neighborhood_ref.index_universe dense ~rho:1 ~arity:1 in
  List.iter
    (fun jobs ->
      check bool
        (Printf.sprintf "degree <= 30, jobs %d: identical to the reference" jobs)
        true
        (equal_index (Jobs.index_universe jobs dense ~rho:1 ~arity:1) reference))
    [ 1; 2 ]

(* --- reindex over edit scripts under the bound ------------------------ *)

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
          | ts ->
              Structure.Delete_tuple
                ("E", List.nth ts (Prng.int g (List.length ts))))
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

let prop_reindex_one_path =
  QCheck.Test.make ~count:30 ~name:"bounded reindex == reference from scratch"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x2E1E + seed) in
      let base = sparse_graph g in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      let script = random_script g base (1 + Prng.int g 5) in
      let edited, dirty = Structure.apply_edits base script in
      let reference = Neighborhood_ref.index_universe edited ~rho ~arity in
      both_jobs (fun jobs ->
          let prev = Jobs.index_universe jobs base ~rho ~arity in
          let inc =
            Jobs.with_jobs jobs (fun () ->
                reindex ~threshold:2.0 ~old:base edited ~prev ~dirty)
          in
          equal_index inc reference))

(* --- dispatch depends only on the input ------------------------------- *)

let bw_counters d =
  List.filter
    (fun (name, _) -> String.starts_with ~prefix:"nbh.bw." name)
    d.Wm_obs.Obs.counters

let test_dispatcher () =
  with_stats @@ fun () ->
  List.iter
    (fun (name, base) ->
      let run jobs =
        obs_delta (fun () -> Jobs.index_universe jobs base ~rho:1 ~arity:1)
      in
      let ix1, d1 = run 1 and ix2, d2 = run 2 in
      check bool (name ^ ": index identical at jobs 1 and 2") true
        (equal_index ix1 ix2);
      check
        Alcotest.(list (pair string int))
        (name ^ ": nbh.bw.* deltas identical at jobs 1 and 2")
        (bw_counters d1) (bw_counters d2))
    [ ("straddle", straddle_graph ()); ("two stars", two_stars 61 62) ]

(* --- tree-shaped balls: rho rounds of exact color refinement -------- *)

let mixed_schema =
  Schema.make
    [
      { Schema.name = "U"; arity = 1 };
      { Schema.name = "E"; arity = 2 };
      { Schema.name = "F"; arity = 2 };
    ]

(* A random forest with one-way and two-way edges over two binary
   relations, self-loops, a unary relation and 0-3 chords: a mix of
   tree and cyclic balls at every rho. *)
let mixed_forest g =
  let n = 2 + Prng.int g 23 in
  let s = ref (Structure.create mixed_schema n) in
  let add rel a b = s := Structure.add_tuple !s rel (Tuple.pair a b) in
  let edge a b =
    let rel = if Prng.int g 4 = 0 then "F" else "E" in
    (match Prng.int g 3 with
    | 0 -> add rel a b
    | 1 -> add rel b a
    | _ ->
        add rel a b;
        add rel b a);
    if Prng.int g 6 = 0 then add (if rel = "E" then "F" else "E") a b
  in
  for i = 1 to n - 1 do
    if Prng.int g 5 > 0 then edge (Prng.int g i) i
  done;
  for _ = 1 to Prng.int g 4 do
    let a = Prng.int g n and b = Prng.int g n in
    if a <> b then edge a b
  done;
  for _ = 1 to Prng.int g 3 do
    let a = Prng.int g n in
    add (if Prng.int g 2 = 0 then "E" else "F") a a
  done;
  for _ = 1 to Prng.int g 4 do
    s := Structure.add_tuple !s "U" (Tuple.singleton (Prng.int g n))
  done;
  !s

let prop_tree_path =
  QCheck.Test.make ~count:60
    ~name:"tree-path index == ref (mixed tree/cycle balls)"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x7EE + seed) in
      let base = mixed_forest g in
      let rho = Prng.int g 4 in
      let tuples = Neighborhood.all_tuples base ~arity:1 in
      let reference = Neighborhood_ref.index base ~rho tuples in
      both_jobs (fun jobs ->
          equal_index (Jobs.index jobs base ~rho tuples) reference))

(* Index [base] at [rho] at jobs 1 and 2, check it against the reference
   and [nbh.tree.typed] against [typed], and return it. *)
let tree_case name base ~rho ~typed =
  with_stats @@ fun () ->
  let tuples = Neighborhood.all_tuples base ~arity:1 in
  let reference = Neighborhood_ref.index base ~rho tuples in
  List.iter
    (fun jobs ->
      let ix, d = obs_delta (fun () -> Jobs.index jobs base ~rho tuples) in
      check bool
        (Printf.sprintf "%s, jobs %d: identical to the reference" name jobs)
        true (equal_index ix reference);
      check Alcotest.int
        (Printf.sprintf "%s, jobs %d: tree-typed elements" name jobs)
        typed
        (counter_of d "nbh.tree.typed"))
    [ 1; 2 ];
  reference

let graph_of n pairs =
  Structure.add_pairs (Structure.create Schema.graph n) "E" pairs

(* Paths 0->1->2 and 4->5->6 at rho 2: the depth-2 endpoint 2 has a
   neighbor outside the ball, 6 has none.  Initial colors carry no
   degree, so 0 and 4 share a type. *)
let test_tree_degree_leak () =
  let base = graph_of 7 [ (0, 1); (1, 2); (2, 3); (4, 5); (5, 6) ] in
  let ix = tree_case "degree leak" base ~rho:2 ~typed:7 in
  check Alcotest.int "0 and 4 share a type" (Neighborhood.type_of ix [| 0 |])
    (Neighborhood.type_of ix [| 4 |])

(* A two-way 5-cycle beside a two-way 7-path at rho 2: every cycle ball
   closes through an edge between two depth-2 elements, so the cycle
   stays on the shape path and does not take the path center's type,
   which two refinement rounds alone would give it. *)
let test_tree_depth_chord () =
  let both (a, b) = [ (a, b); (b, a) ] in
  let cycle = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let path = List.init 6 (fun i -> (5 + i, 6 + i)) in
  let base = graph_of 12 (List.concat_map both (cycle @ path)) in
  let ix = tree_case "depth-rho chord" base ~rho:2 ~typed:7 in
  check bool "cycle element and path center differ" true
    (Neighborhood.type_of ix [| 0 |] <> Neighborhood.type_of ix [| 8 |])

(* 0 joined to 1 by E(0,1) and E(1,0), against 2 with one-way neighbors
   E(2,3) and E(4,2): per-tuple (label, color) entries would agree, the
   per-neighbor labels do not. *)
let test_tree_grouping () =
  let base = graph_of 5 [ (0, 1); (1, 0); (2, 3); (4, 2) ] in
  let ix = tree_case "grouping" base ~rho:1 ~typed:5 in
  check bool "0 and 2 differ" true
    (Neighborhood.type_of ix [| 0 |] <> Neighborhood.type_of ix [| 2 |])

(* The three typing shapes of the retired E28 experiment at rho 2, each
   identical to the reference at jobs 1 and 2.  No grid ball is a tree,
   every grid sphere fits the shape step, and grid tuples skip the
   isomorphism scan through their shape group; random degree <= 3 graphs
   and the biblio-XML element tree (E = parent-child, both ways) are
   mostly trees, so some of their elements take the tree path. *)
let test_rho2_shapes () =
  with_stats @@ fun () ->
  let deltas name base =
    let tuples = Neighborhood.all_tuples base ~arity:1 in
    let reference = Neighborhood_ref.index base ~rho:2 tuples in
    List.map
      (fun jobs ->
        let ix, d = obs_delta (fun () -> Jobs.index jobs base ~rho:2 tuples) in
        check bool
          (Printf.sprintf "%s, jobs %d: identical to the reference" name jobs)
          true (equal_index ix reference);
        (jobs, d))
      [ 1; 2 ]
  in
  (* a shuffled universe renames every sphere differently, so isomorphic
     grid spheres get distinct shapes *)
  let shuffled =
    (Wm_watermark.Adversary.apply_structural (Prng.create 0x5F)
       Wm_watermark.Adversary.Shuffle_universe
       (Wm_workload.Grid.structure ~w:20 ~h:20))
      .Weighted.graph
  in
  List.iter
    (fun (name, base, groups) ->
      List.iter
        (fun (jobs, d) ->
          let what s = Printf.sprintf "%s, jobs %d: %s" name jobs s in
          check Alcotest.int (what "no tree-typed element") 0
            (counter_of d "nbh.tree.typed");
          check Alcotest.int (what "no width fallback") 0
            (counter_of d "nbh.bw.width_fallbacks");
          check Alcotest.int (what "groups") groups (counter_of d "nbh.bw.groups");
          check Alcotest.int (what "iso bypassed")
            (Structure.size base - groups)
            (counter_of d "nbh.bw.iso_bypassed"))
        (deltas name base))
    [ ("grid", grid_graph 12 12, 25); ("shuffled grid", shuffled, 400) ];
  let sparse =
    (Wm_workload.Random_struct.graph (Prng.create 0xE28) ~n:120 ~max_degree:3
       ~edges:180)
      .Weighted.graph
  in
  let biblio =
    let doc = Wm_workload.Biblio_xml.generate (Prng.create 5) ~articles:5 () in
    let n = Wm_xml.Utree.size doc in
    Structure.add_pairs (Structure.create Schema.graph n) "E"
      (List.concat_map
         (fun p ->
           List.concat_map (fun c -> [ (p, c); (c, p) ]) (Wm_xml.Utree.children doc p))
         (List.init n Fun.id))
  in
  List.iter
    (fun (name, base) ->
      List.iter
        (fun (jobs, d) ->
          check bool
            (Printf.sprintf "%s, jobs %d: some element tree-typed" name jobs)
            true
            (counter_of d "nbh.tree.typed" > 0))
        (deltas name base))
    [ ("random d<=3", sparse); ("biblio-xml", biblio) ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sparse;
    QCheck_alcotest.to_alcotest prop_tree;
    QCheck_alcotest.to_alcotest prop_grid;
    QCheck_alcotest.to_alcotest prop_cache_off;
    QCheck_alcotest.to_alcotest prop_reindex_one_path;
    Alcotest.test_case "width-fallback boundary (straddling)" `Quick
      test_straddle;
    Alcotest.test_case "bw counters" `Quick test_counters;
    Alcotest.test_case "dispatcher precedence" `Quick test_dispatcher;
    QCheck_alcotest.to_alcotest prop_tree_path;
    Alcotest.test_case "tree path: no degree leak" `Quick test_tree_degree_leak;
    Alcotest.test_case "tree path: depth-rho chord" `Quick test_tree_depth_chord;
    Alcotest.test_case "tree path: per-neighbor labels" `Quick test_tree_grouping;
    Alcotest.test_case "rho-2 shapes: grid, random d<=3, biblio-xml" `Quick
      test_rho2_shapes;
  ]
