(* The neighborhood fast path (DESIGN.md 5.9): shared sphere cache,
   member-scan dedupe, CSR adjacency and exact partition refinement must
   be pure speedups — bit-identical to the preserved pre-fast-path
   pipeline (Neighborhood_ref) for any structure, tuple set, job count
   and cache setting. *)

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

let random_graph g =
  let n = 4 + Prng.int g 10 in
  let edges = 1 + Prng.int g (2 * n) in
  (Wm_workload.Random_struct.graph g ~n ~max_degree:4 ~edges).Weighted.graph

(* --- fast path == reference, universe and explicit tuple lists ------- *)

let prop_universe_matches_ref =
  QCheck.Test.make ~count:40 ~name:"index_universe == reference pipeline"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x5EED + seed) in
      let base = random_graph g in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      equal_index
        (Neighborhood.index_universe base ~rho ~arity)
        (Neighborhood_ref.index_universe base ~rho ~arity))

let prop_list_matches_ref =
  (* explicit tuple lists, duplicates included: the fast path must dedupe
     and number types exactly like the reference *)
  QCheck.Test.make ~count:40 ~name:"index (tuple list) == reference pipeline"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x715 + seed) in
      let base = random_graph g in
      let n = Structure.size base in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      let tuples =
        List.init
          (1 + Prng.int g (3 * n))
          (fun _ -> Tuple.of_list (List.init arity (fun _ -> Prng.int g n)))
      in
      equal_index
        (Neighborhood.index base ~rho tuples)
        (Neighborhood_ref.index base ~rho tuples))

let prop_cache_off_identity =
  QCheck.Test.make ~count:40 ~name:"sphere cache on/off is bit-identical"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0xCAC4E + seed) in
      let base = random_graph g in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      let reference = Neighborhood_ref.index_universe base ~rho ~arity in
      List.for_all
        (fun jobs ->
          equal_index
            (Jobs.index_universe jobs base ~rho ~arity)
            reference)
        [ 1; 2 ])

let prop_jobs_independent =
  QCheck.Test.make ~count:20 ~name:"fast path is job-count independent"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x90B5 + seed) in
      let base = random_graph g in
      let rho = 1 + Prng.int g 2 in
      equal_index
        (Jobs.index_universe 1 base ~rho ~arity:2)
        (Jobs.index_universe 2 base ~rho ~arity:2))

(* --- reindex over edit scripts == reference from scratch ------------- *)

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

let prop_reindex_matches_ref =
  (* incremental fast path against the reference pipeline from scratch:
     crosses the anchor/splice logic with the old implementation *)
  QCheck.Test.make ~count:30 ~name:"reindex == reference from scratch"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x2E1D + seed) in
      let base = random_graph g in
      let rho = Prng.int g 3 in
      let arity = 1 + Prng.int g 2 in
      let prev = Neighborhood.index_universe base ~rho ~arity in
      let script = random_script g base (1 + Prng.int g 5) in
      let edited, dirty = Structure.apply_edits base script in
      let inc = reindex ~threshold:2.0 ~old:base edited ~prev ~dirty in
      equal_index inc (Neighborhood_ref.index_universe edited ~rho ~arity))


(* The rank-addressed index against the reference, row for row: tuples
   in enumeration order, type ids, representatives and [type_of] on
   every row, at arity 1 and 2 and jobs 1 and 2, from scratch and after
   reindex scripts that end by growing or by shrinking the universe. *)
let prop_rank_addressed_matches_ref =
  QCheck.Test.make ~count:30 ~name:"rank-addressed index == reference, grow/shrink"
    QCheck.(pair (int_range 0 100_000) (int_range 1 2))
    (fun (seed, arity) ->
      let g = Prng.create (0x4A4C + seed) in
      let base = random_graph g in
      let rho = Prng.int g 3 in
      let script = random_script g base (Prng.int g 4) in
      let m = Structure.size (fst (Structure.apply_edits base script)) in
      let grow =
        script
        @ [ Structure.Add_element None;
            Structure.Insert_tuple ("E", Tuple.pair (Prng.int g m) m) ]
      in
      let shrink = script @ [ Structure.Remove_element (m - 1) ] in
      let rows_agree (ix : Neighborhood.index) (ref_ix : Neighborhood.index) =
        equal_index ix ref_ix
        && Array.for_all
             (fun c -> Neighborhood.type_of ix c = Neighborhood.type_of ref_ix c)
             ref_ix.tuples
      in
      List.for_all
        (fun jobs ->
          let prev = Jobs.index_universe jobs base ~rho ~arity in
          rows_agree prev (Neighborhood_ref.index_universe base ~rho ~arity)
          && List.for_all
               (fun edits ->
                 let edited, dirty = Structure.apply_edits base edits in
                 rows_agree
                   (Jobs.with_jobs jobs (fun () ->
                        reindex ~threshold:2.0 ~old:base edited ~prev ~dirty))
                   (Neighborhood_ref.index_universe edited ~rho ~arity))
               [ grow; shrink ])
        [ 1; 2 ])

(* --- certificates ----------------------------------------------------- *)

let prop_certificate_gf_invariant =
  (* supplying the precomputed Gaifman graph (the fast path does) never
     changes the certificate, and preps agree with the one-shot API *)
  QCheck.Test.make ~count:40 ~name:"certificate invariant under ?gf"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0xCE27 + seed) in
      let base = random_graph g in
      let gf = Gaifman.of_structure base in
      let n = Structure.size base in
      let c = Tuple.pair (Prng.int g n) (Prng.int g n) in
      let nb = Neighborhood.of_tuple base gf ~rho:1 c in
      let gf_sub = Gaifman.of_structure nb.Neighborhood.sub in
      let plain = Iso.certificate nb.Neighborhood.sub nb.Neighborhood.center in
      plain = Iso.certificate ~gf:gf_sub nb.Neighborhood.sub nb.Neighborhood.center
      && plain
         = Iso.certificate_of_prep
             (Iso.prep ~gf:gf_sub nb.Neighborhood.sub nb.Neighborhood.center))

(* --- CSR adjacency ---------------------------------------------------- *)

let prop_of_tuples_matches_of_structure =
  QCheck.Test.make ~count:40 ~name:"Gaifman.of_tuples == of_structure"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0xC52 + seed) in
      let base = random_graph g in
      let n = Structure.size base in
      let tuples =
        Structure.fold_relations
          (fun _ r acc -> Relation.fold (fun t acc -> t :: acc) r acc)
          base []
      in
      let a = Gaifman.of_structure base in
      let b = Gaifman.of_tuples ~n tuples in
      Gaifman.size a = Gaifman.size b
      && List.for_all
           (fun x -> Gaifman.neighbors a x = Gaifman.neighbors b x)
           (Structure.universe base))

(* --- streaming enumeration -------------------------------------------- *)

let cons_list_all_tuples n arity =
  (* the original n^arity construction, verbatim *)
  let rec go k acc =
    if k = 0 then acc
    else
      go (k - 1)
        (List.concat_map (fun rest -> List.init n (fun x -> x :: rest)) acc)
  in
  List.map Tuple.of_list (go arity [ [] ])

let test_all_tuples_order () =
  List.iter
    (fun (n, arity) ->
      let g = Structure.create Schema.graph n in
      check bool
        (Printf.sprintf "n=%d arity=%d" n arity)
        true
        (Neighborhood.all_tuples g ~arity = cons_list_all_tuples n arity))
    [ (1, 0); (4, 0); (3, 1); (4, 2); (3, 3); (2, 4) ]

(* --- observability of the fast path ----------------------------------- *)

let counter_of snap name =
  match List.assoc_opt name snap.Wm_obs.Obs.counters with
  | Some v -> v
  | None -> 0

let with_stats f =
  let was = Wm_obs.Obs.enabled () in
  Wm_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Wm_obs.Obs.set_enabled was) f

let test_cache_counters () =
  with_stats @@ fun () ->
  let g = Prng.create 0xFA57 in
  let base =
    (Wm_workload.Random_struct.graph g ~n:24 ~max_degree:4 ~edges:40)
      .Weighted.graph
  in
  let n = Structure.size base in
  let before = Wm_obs.Obs.snapshot () in
  ignore (Neighborhood.index_universe base ~rho:2 ~arity:2);
  let d = Wm_obs.Obs.diff ~since:before (Wm_obs.Obs.snapshot ()) in
  (* every element's sphere is extracted by BFS exactly once ... *)
  check int "spheres = one BFS per element" n (counter_of d "nbh.spheres");
  (* ... every further lookup hits the cache (2 lookups per tuple, n^2
     tuples, n misses) *)
  check int "cache hits" ((2 * n * n) - n) (counter_of d "nbh.sphere_cache_hits");
  check bool "member scans deduped" true (counter_of d "nbh.subs_deduped" > 0);
  check bool "refinement rounds counted" true
    (counter_of d "nbh.refine_rounds" > 0)

let test_iso_checks_no_worse_than_ref () =
  (* satellite (a): deep bucket keys may not do more exact isomorphism
     tests than the reference's Hashtbl.hash keys *)
  with_stats @@ fun () ->
  let g = Prng.create 41 in
  let base =
    (Wm_workload.Random_struct.graph g ~n:80 ~max_degree:5 ~edges:150)
      .Weighted.graph
  in
  let before = Wm_obs.Obs.snapshot () in
  let ix = Neighborhood.index_universe base ~rho:2 ~arity:1 in
  let mid = Wm_obs.Obs.snapshot () in
  let ix_ref = Neighborhood_ref.index_universe base ~rho:2 ~arity:1 in
  let after = Wm_obs.Obs.snapshot () in
  check bool "same result" true (equal_index ix ix_ref);
  let fast = counter_of (Wm_obs.Obs.diff ~since:before mid) "nbh.iso_checks" in
  let slow = counter_of (Wm_obs.Obs.diff ~since:mid after) "nbh.ref.iso_checks" in
  check bool
    (Printf.sprintf "fast %d <= ref %d" fast slow)
    true (fast <= slow)

(* --- scratch walks (DESIGN.md 5.9) ------------------------------------ *)

(* The plain reference ball: [Gaifman.bfs] over a fresh distance array,
   and whether it induces a tree — connected, so iff it has exactly
   |ball| - 1 induced edges. *)
let plain_ball gf ~rho a =
  let dist = Gaifman.bfs gf a ~bound:rho (fun _ _ -> ()) in
  let ball = List.filter (fun x -> dist.(x) >= 0) (List.init (Gaifman.size gf) Fun.id) in
  let edges =
    List.fold_left
      (fun acc x ->
        List.fold_left
          (fun acc y -> if x < y && dist.(y) >= 0 then acc + 1 else acc)
          acc (Gaifman.neighbors gf x))
      0 ball
  in
  (ball, edges = List.length ball - 1)

let prop_sphere_walk_stale_scratch =
  (* walks interleave over a small and a larger graph, so a walk that
     skipped its epoch bump would see the last walk's marks, and one that
     kept a too-small scratch would index past it; whole-universe index
     runs at jobs 1 and 2 in between use the same per-domain scratch *)
  QCheck.Test.make ~count:40 ~name:"sphere_walk == plain ball, interleaved graphs"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x5C2A + seed) in
      let small = random_graph g in
      let large =
        let n = 30 + Prng.int g 40 in
        (Wm_workload.Random_struct.graph g ~n ~max_degree:4 ~edges:(2 * n))
          .Weighted.graph
      in
      let graphs = [| (small, Gaifman.of_structure small); (large, Gaifman.of_structure large) |] in
      let walk_ok k =
        let _, gf = graphs.(k) in
        let a = Prng.int g (Gaifman.size gf) in
        let rho = Prng.int g 4 in
        let tree = Prng.int g 2 = 0 in
        let s, t = Gaifman.sphere_walk gf ~rho ~tree a in
        let ball, is_tree = plain_ball gf ~rho a in
        Array.to_list s = ball && t = (tree && is_tree)
      in
      let index_ok k =
        let st, _ = graphs.(k) in
        let rho = Prng.int g 3 in
        let one = Jobs.index_universe 1 st ~rho ~arity:1 in
        equal_index one (Jobs.index_universe 2 st ~rho ~arity:1)
        && equal_index one (Neighborhood_ref.index_universe st ~rho ~arity:1)
      in
      List.for_all
        (fun step ->
          let k = step land 1 in
          if step mod 5 = 4 then index_ok k else walk_ok k)
        (List.init 30 Fun.id))

let prop_reach_matches_bfs =
  QCheck.Test.make ~count:60 ~name:"Gaifman.reach == union of bfs balls"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0x2EAC + seed) in
      let gf = Gaifman.of_structure (random_graph g) in
      let n = Gaifman.size gf in
      (* out-of-range and repeated sources included *)
      let sources = List.init (Prng.int g 4) (fun _ -> Prng.int g (n + 3) - 1) in
      let bound = Prng.int g 5 - 1 in
      let expected =
        List.sort_uniq compare
          (List.concat_map
             (fun a ->
               if a < 0 || a >= n then []
               else begin
                 let acc = ref [] in
                 ignore (Gaifman.bfs gf a ~bound (fun x _ -> acc := x :: !acc));
                 !acc
               end)
             sources)
      in
      Gaifman.reach gf ~sources ~bound = expected)

(* --- arity-2 typing over long shared sphere prefixes -------------------- *)

let test_pairs_not_quadratic () =
  (* Pairs (755, n-1-i) on a 150x150 grid at rho 2: every tuple sphere
     shares the ball of 755 as its smallest elements.  A sphere table
     hashing only a key's first words put them all in one bucket, and
     8 000 pairs took 3.4-3.6 s on a 2-core x86-64 container; the
     whole-array key takes under 0.1 s there. *)
  let g = (Wm_workload.Grid.structure ~w:150 ~h:150).Weighted.graph in
  let n = Structure.size g in
  let pairs = List.init 8_000 (fun i -> Tuple.pair 755 (n - 1 - i)) in
  let t0 = Unix.gettimeofday () in
  let ix = Jobs.index 1 g ~rho:2 pairs in
  let dt = Unix.gettimeofday () -. t0 in
  check bool (Printf.sprintf "8000 pairs typed in %.3f s <= 1 s" dt) true (dt <= 1.0);
  let prefix = List.filteri (fun i _ -> i < 1_000) pairs in
  let ref_ix = Neighborhood_ref.index g ~rho:2 prefix in
  (* type ids number classes by first occurrence, so a prefix keeps its
     ids and the representatives of the classes it opens *)
  check bool "1000-pair prefix == reference" true
    (List.for_all
       (fun c -> Neighborhood.type_of ix c = Neighborhood.type_of ref_ix c)
       prefix
    && Array.for_all2 ( = ) ref_ix.representatives
         (Array.sub ix.representatives 0 (Array.length ref_ix.representatives)))

(* --- allocation of whole-universe typing -------------------------------- *)

(* Minor words of [f ()] with the observability layer off. *)
let minor_words_of f =
  let was = Wm_obs.Obs.enabled () in
  Wm_obs.Obs.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Wm_obs.Obs.set_enabled was)
    (fun () ->
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (f ()));
      Gc.minor_words () -. w0)

let test_index_allocation () =
  (* Minor words of one arity-1 index of a 60x60 grid at rho 2, with the
     observability layer off.  Spheres, shape keys and shape groups come
     from reused scratch, so the cost is per shape plus the per-slot
     classification, and types are one int array by rank: 560 895 words
     measured with OCaml 5.1.1, against 681 718 when the context swept
     every relation into [heads] lists and the Gaifman rows were sorted
     through per-row copies, 1 244 420 with a [Tuple.Map] of types and
     3 948 583 when every sphere walk built a hash table and every
     sphere a member list and a key.  The bound is 1.25x the measured
     figure. *)
  let g = (Wm_workload.Grid.structure ~w:60 ~h:60).Weighted.graph in
  let words =
    Jobs.with_jobs 1 (fun () ->
        minor_words_of (fun () -> Neighborhood.index_universe g ~rho:2 ~arity:1))
  in
  let bound = 1.25 *. 560_895. in
  check bool (Printf.sprintf "%.0f minor words <= %.0f" words bound) true (words <= bound)

let test_tree_index_allocation () =
  (* Minor words of one arity-1 index of 3 000 ring elements at rho 1,
     observability off, where every ring of four or more elements types
     by color refinement.  Each round interns its signatures from one
     reused buffer, so only a new color's key is copied, and only the
     cyclic balls read [heads]: 128 918 words measured with OCaml 5.1.1,
     against 455 698 when every element's [heads] list was filled up
     front and 994 843 when each round built and sorted one signature
     array per element and types filled a [Tuple.Map].  The bound is
     1.25x the measured figure. *)
  let g =
    (Wm_workload.Random_struct.regular_rings (Prng.create 7) ~n:3000).Weighted.graph
  in
  let words =
    Jobs.with_jobs 1 (fun () ->
        minor_words_of (fun () -> Neighborhood.index_universe g ~rho:1 ~arity:1))
  in
  let bound = 1.25 *. 128_918. in
  check bool (Printf.sprintf "%.0f minor words <= %.0f" words bound) true (words <= bound)

(* --- allocation of traitor tracing ---------------------------------------- *)

let test_trace_allocation () =
  (* Minor words of one [Fingerprint.trace] at one job over 2 000 candidates
     at codeword length 128, observability off, on a leaked copy.  The
     scorer draws the codeword 62 bits at a time from an unboxed
     SplitMix64 state and counts agreements by popcount against the
     packed decided bits, so a candidate costs its generator, its
     agreement count and the report's list cells: 46 296 words (~23 per
     candidate, the carrier read included) measured with OCaml 5.1.1,
     against 52 143 when each candidate's score was an (agreements,
     trials) pair and 1 649 570 (~825 per candidate) when every draw
     boxed an int64 and every candidate built a codeword vector.  The
     bound is 1.25x the measured figure. *)
  let ws = Wm_workload.Random_struct.regular_rings (Prng.create 11) ~n:400 in
  let qs =
    Wm_watermark.Query_system.of_custom
      ~params:(List.init (Structure.size ws.Weighted.graph) Tuple.singleton)
      ~result_set:(fun p -> Tuple.Set.singleton p)
      ~weight_arity:1
  in
  let q = Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v" in
  let fp =
    match Wm_watermark.Local_scheme.prepare ~qs ws q with
    | Error e -> Alcotest.fail e
    | Ok scheme -> (
        match Wm_watermark.Fingerprint.of_local ~length:128 ~master:0xBEEF scheme with
        | Error e -> Alcotest.fail e
        | Ok fp -> fp)
  in
  let w = ws.Weighted.weights in
  let leaked = Wm_watermark.Fingerprint.mark_for fp "r77" w in
  let candidates = List.init 2000 (fun i -> "r" ^ string_of_int i) in
  let was = Wm_obs.Obs.enabled () in
  Wm_obs.Obs.set_enabled false;
  let words, accused =
    Fun.protect
      ~finally:(fun () -> Wm_obs.Obs.set_enabled was)
      (fun () ->
        Jobs.with_jobs 1 @@ fun () ->
        let w0 = Gc.minor_words () in
        let rep =
          Wm_watermark.Fingerprint.trace fp ~original:w ~suspect:leaked
            candidates
        in
        (Gc.minor_words () -. w0, rep.Wm_watermark.Fingerprint.accused))
  in
  check (Alcotest.list Alcotest.string) "the leaker alone" [ "r77" ] accused;
  let bound = 1.25 *. 46_296. in
  check bool (Printf.sprintf "%.0f minor words <= %.0f" words bound) true (words <= bound)

(* --- allocation of the XML pattern compile --------------------------------- *)

let test_compile_allocation () =
  (* Minor words of compiling the bibliography pattern over the abstract
     alphabet of a fixed 200-article document, observability off.  Every
     step of the compile tabulates letter classes, not letters, and
     determinization builds its subsets in a reused buffer: 551 486 words
     measured with OCaml 5.1.1, against 26 151 353 when every product,
     minimize and subset construction ran letter by letter.  The bound is
     1.25x the measured figure. *)
  let doc = Wm_workload.Biblio_xml.generate (Prng.create 1) ~articles:200 () in
  let pattern = Wm_workload.Biblio_xml.pattern in
  let alphabet =
    Wm_xml.Encode.abstract_alphabet ~constants:(Wm_xml.Pattern.constants pattern) doc
  in
  let was = Wm_obs.Obs.enabled () in
  Wm_obs.Obs.set_enabled false;
  let words =
    Fun.protect
      ~finally:(fun () -> Wm_obs.Obs.set_enabled was)
      (fun () ->
        let w0 = Gc.minor_words () in
        ignore (Wm_xml.Pattern.compile pattern ~alphabet);
        Gc.minor_words () -. w0)
  in
  let bound = 1.25 *. 551_486. in
  check bool (Printf.sprintf "%.0f minor words <= %.0f" words bound) true (words <= bound)

(* --- allocation of one carrier read ------------------------------------ *)

let test_detect_weights_allocation () =
  (* Minor words of one 64-bit [Local_scheme.detect_weights] on a
     3 000-element ring identity scheme, observability off, at one job.
     The reader classifies the 64 asked carriers straight from the
     suspect's weights: 777 words measured with OCaml 5.1.1, against
     533 397 when every active weight was first reconstructed into a
     tuple map through an honest server.  The bound is 1.25x the measured
     figure. *)
  let ws = Wm_workload.Random_struct.regular_rings (Prng.create 13) ~n:3000 in
  let qs =
    Wm_watermark.Query_system.of_custom
      ~params:(List.init (Structure.size ws.Weighted.graph) Tuple.singleton)
      ~result_set:(fun p -> Tuple.Set.singleton p)
      ~weight_arity:1
  in
  let q = Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v" in
  let scheme =
    match Wm_watermark.Local_scheme.prepare ~qs ws q with
    | Error e -> Alcotest.fail e
    | Ok scheme -> scheme
  in
  let length = 64 in
  let w = ws.Weighted.weights in
  let message = Codec.random (Prng.create 14) length in
  let marked = Wm_watermark.Local_scheme.mark scheme message w in
  let was = Wm_obs.Obs.enabled () in
  Wm_obs.Obs.set_enabled false;
  let words, decoded =
    Fun.protect
      ~finally:(fun () -> Wm_obs.Obs.set_enabled was)
      (fun () ->
        Jobs.with_jobs 1 @@ fun () ->
        let w0 = Gc.minor_words () in
        let decoded =
          Wm_watermark.Local_scheme.detect_weights scheme ~original:w
            ~suspect:marked ~length
        in
        (Gc.minor_words () -. w0, decoded))
  in
  check bool "message read back" true (Bitvec.equal message decoded);
  let bound = 1.25 *. 777. in
  check bool (Printf.sprintf "%.0f minor words <= %.0f" words bound) true (words <= bound)

(* --- allocation of a prepare ---------------------------------------------- *)

let test_prepare_allocation () =
  (* Minor words of building a 3 000-element ring's identity query system
     and preparing the scheme over it ([Local_scheme.prepare ~qs ~gf ~ix],
     the Gaifman graph and type index built beforehand), observability
     off, at one job.  The query system tabulates every result set once
     and ranks W once, and pairing transposes its rows: 199 804 words
     measured with OCaml 5.1.1, against 223 828 when result sets were
     memoized on demand and pairing re-read and re-ranked them.  The bound
     is 1.25x the measured figure. *)
  let ws = Wm_workload.Random_struct.regular_rings (Prng.create 15) ~n:3000 in
  let g = ws.Weighted.graph in
  let gf = Gaifman.of_structure g in
  let ix = Jobs.index_universe 1 g ~rho:1 ~arity:1 in
  let q = Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v" in
  let options = { Wm_watermark.Local_scheme.default_options with rho = Some 1 } in
  let was = Wm_obs.Obs.enabled () in
  Wm_obs.Obs.set_enabled false;
  let words, capacity =
    Fun.protect
      ~finally:(fun () -> Wm_obs.Obs.set_enabled was)
      (fun () ->
        Jobs.with_jobs 1 @@ fun () ->
        let w0 = Gc.minor_words () in
        let qs =
          Wm_watermark.Query_system.of_custom
            ~params:(List.init (Structure.size g) Tuple.singleton)
            ~result_set:(fun p -> Tuple.Set.singleton p)
            ~weight_arity:1
        in
        match Wm_watermark.Local_scheme.prepare ~options ~qs ~gf ~ix ws q with
        | Error e -> Alcotest.fail e
        | Ok scheme -> (Gc.minor_words () -. w0, Wm_watermark.Local_scheme.capacity scheme))
  in
  check bool "has capacity" true (capacity > 0);
  let bound = 1.25 *. 199_804. in
  check bool (Printf.sprintf "%.0f minor words <= %.0f" words bound) true (words <= bound)

(* --- edited structures: CSR and typing over relation overlays ---------- *)

(* A structure over U/1, E/2 and, half the time, T/3, bulk-built (flat
   relations) and then edited by [steps] random inserts, deletes and
   element additions/removals, so its relations carry add and delete
   overlays.  Cells come from a small range, so tuples repeat elements.
   With [~hubs], a quarter of the universes are larger and make element
   0 a hub, past the 32-entry rows that insertion sort handles. *)
let random_mixed g ~hubs ~steps =
  let ternary = Prng.bool g in
  let syms =
    [ ("U", 1); ("E", 2) ] @ if ternary then [ ("T", 3) ] else []
  in
  let schema =
    Schema.make (List.map (fun (name, arity) -> { Schema.name; arity }) syms)
  in
  let n = if hubs && Prng.int g 4 = 0 then 34 + Prng.int g 20 else 3 + Prng.int g 8 in
  let cells ar size = Array.init ar (fun _ -> Prng.int g size) in
  let bulk (name, ar) =
    let ts = List.init (Prng.int g (2 * n)) (fun _ -> cells ar (min n 8)) in
    let hub =
      if n > 32 && name = "E" then List.init (n - 1) (fun y -> Tuple.pair 0 (y + 1))
      else []
    in
    (name, Relation.of_list ar (ts @ hub))
  in
  let base =
    List.fold_left
      (fun s (name, r) -> Structure.set_relation s name r)
      (Structure.create schema n) (List.map bulk syms)
  in
  let cur = ref base and script = ref [] in
  for _ = 1 to steps do
    let size = Structure.size !cur in
    let name, ar = List.nth syms (Prng.int g (List.length syms)) in
    let edit =
      match Prng.int g 6 with
      | 0 | 1 -> Structure.Insert_tuple (name, cells ar size)
      | 2 | 3 -> (
          match Relation.to_list (Structure.relation !cur name) with
          | [] -> Structure.Insert_tuple (name, cells ar size)
          | ts -> Structure.Delete_tuple (name, List.nth ts (Prng.int g (List.length ts))))
      | 4 -> Structure.Add_element None
      | _ ->
          if size > 3 then Structure.Remove_element (size - 1)
          else Structure.Add_element None
    in
    cur := fst (Structure.apply_edit !cur edit);
    script := edit :: !script
  done;
  (base, List.rev !script)

module Iset = Set.Make (Int)

(* Sorted, deduplicated adjacency rows, straight from the definition. *)
let naive_rows g =
  let rows = Array.make (Structure.size g) Iset.empty in
  Structure.fold_relations
    (fun _ r () ->
      Relation.iter
        (fun t ->
          Array.iter
            (fun x ->
              Array.iter (fun y -> if x <> y then rows.(x) <- Iset.add y rows.(x)) t)
            t)
        r)
    g ();
  Array.map Iset.elements rows

let csr_matches g gf =
  let rows = naive_rows g in
  Gaifman.size gf = Array.length rows
  && Gaifman.edge_slots gf = Array.fold_left (fun acc l -> acc + List.length l) 0 rows
  && Array.for_all Fun.id (Array.mapi (fun x l -> Gaifman.neighbors gf x = l) rows)

let prop_csr_matches_naive =
  QCheck.Test.make ~count:60 ~name:"Gaifman CSR == naive adjacency, refresh included"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Prng.create (0xC5A + seed) in
      let base, script = random_mixed g ~hubs:true ~steps:(Prng.int g 12) in
      let edited, dirty = Structure.apply_edits base script in
      let tuples s =
        Structure.fold_relations (fun _ r acc -> Relation.fold List.cons r acc) s []
      in
      let prev = Gaifman.of_structure base in
      let fresh = Gaifman.of_structure edited in
      csr_matches base prev && csr_matches edited fresh
      && Gaifman.of_tuples ~n:(Structure.size edited) (tuples edited) = fresh
      && Gaifman.refresh edited ~prev ~dirty = fresh)

(* Typing over edited structures, whose relations carry overlays, against
   the reference: [index_universe] and [index] on a tuple list at jobs 1
   and 2, and [reindex] from the pre-edit index. *)
let prop_edited_index_matches_ref =
  QCheck.Test.make ~count:30 ~name:"index over edited relations == reference"
    QCheck.(pair (int_range 0 100_000) (int_range 1 2))
    (fun (seed, arity) ->
      let g = Prng.create (0xED17 + seed) in
      let base, script = random_mixed g ~hubs:(arity = 1) ~steps:(1 + Prng.int g 10) in
      let edited, dirty = Structure.apply_edits base script in
      let rho = Prng.int g 3 in
      let want = Neighborhood_ref.index_universe edited ~rho ~arity in
      let n = Structure.size edited in
      let some =
        List.init (1 + Prng.int g (2 * n)) (fun _ -> Array.init arity (fun _ -> Prng.int g n))
      in
      List.for_all
        (fun jobs ->
          let prev = Jobs.index_universe jobs base ~rho ~arity in
          equal_index (Jobs.index_universe jobs edited ~rho ~arity) want
          && equal_index (Jobs.index jobs edited ~rho some)
               (Neighborhood_ref.index edited ~rho some)
          && equal_index
               (Jobs.with_jobs jobs (fun () ->
                    reindex ~threshold:2.0 ~old:base edited ~prev ~dirty))
               want)
        [ 1; 2 ])

let test_gaifman_allocation () =
  (* Minor words of one [Gaifman.of_structure] on 3 000 ring elements
     (relations built tuple by tuple, so with overlays), observability
     off.  Rows are counting-sorted into one buffer and sorted and
     deduplicated in place, whose arrays are major-heap blocks: 268 words
     measured with OCaml 5.1.1, against 209 865 when every row was
     sorted through its own [Array.sub] and the overlay merge allocated a
     closure per row comparison.  The bound is 1.25x the measured
     figure. *)
  let g =
    (Wm_workload.Random_struct.regular_rings (Prng.create 7) ~n:3000).Weighted.graph
  in
  let words = minor_words_of (fun () -> Gaifman.of_structure g) in
  let bound = 1.25 *. 268. in
  check bool (Printf.sprintf "%.0f minor words <= %.0f" words bound) true (words <= bound)

(* --- the caller's Gaifman graph -------------------------------------- *)

(* [index ~gf] and [index_universe ~gf] type with the graph the caller
   already holds (what [Multi_scheme.prepare] passes) instead of
   building one: types and representatives must equal the reference at
   jobs 1 and 2, on edited, overlay-carrying structures. *)
let prop_given_gaifman_matches_ref =
  QCheck.Test.make ~count:30 ~name:"index with the caller's Gaifman graph == reference"
    QCheck.(pair (int_range 0 100_000) (int_range 1 2))
    (fun (seed, arity) ->
      let g = Prng.create (0x6F6 + seed) in
      let base, script = random_mixed g ~hubs:(arity = 1) ~steps:(Prng.int g 8) in
      let edited, _ = Structure.apply_edits base script in
      let gf = Gaifman.of_structure edited in
      let rho = Prng.int g 3 in
      let n = Structure.size edited in
      let some =
        List.init (1 + Prng.int g (2 * n)) (fun _ -> Array.init arity (fun _ -> Prng.int g n))
      in
      let want_all = Neighborhood_ref.index_universe edited ~rho ~arity in
      let want_some = Neighborhood_ref.index edited ~rho some in
      List.for_all
        (fun jobs ->
          equal_index (Jobs.index_universe jobs ~gf edited ~rho ~arity) want_all
          && equal_index (Jobs.index jobs ~gf edited ~rho some) want_some)
        [ 1; 2 ])

(* --- allocation of the comparison loops ----------------------------------- *)

let test_of_flat_allocation () =
  (* Minor words of [Relation.of_flat] on 60 000 ascending distinct pairs
     (the shape a saved file loads as), observability off.  The
     sortedness and duplicate sweeps compare rows in plain loops: 11
     words measured with OCaml 5.1.1, against 899 996 (15 per row) when
     each row comparison built a local recursive closure.  The bound is
     1.25x the measured figure. *)
  let k = 60_000 in
  let buf = Array.init (2 * k) (fun c -> if c land 1 = 0 then c / 4 else c / 2) in
  let words = minor_words_of (fun () -> Relation.of_flat 2 buf k) in
  let bound = 1.25 *. 11. in
  check bool (Printf.sprintf "%.0f minor words <= %.0f" words bound) true (words <= bound)

let test_tuple_compare_allocation () =
  (* Minor words of 10 000 [Tuple.Set.mem] lookups in a set of 1 024
     pairs (~11 [Tuple.compare] calls each), observability off.  The
     comparison is a plain loop: 5 words measured with OCaml 5.1.1,
     against 561 149 when every call allocated a 6-word closure.  The
     bound is 1.25x the measured figure. *)
  let set =
    Tuple.Set.of_list (List.init 1024 (fun i -> Tuple.pair (i / 32) (i mod 32)))
  in
  let probes = Array.init 10_000 (fun i -> Tuple.pair (i mod 40) (i / 40 mod 40)) in
  let hits = ref 0 in
  let words =
    minor_words_of (fun () ->
        Array.iter (fun t -> if Tuple.Set.mem t set then incr hits) probes)
  in
  check int "hits" 6464 !hits;
  let bound = 1.25 *. 5. in
  check bool (Printf.sprintf "%.0f minor words <= %.0f" words bound) true (words <= bound)

let test_copy_allocation () =
  (* Minor words of one fingerprinted copy of a 3 000-element ring and its
     digest ([Fingerprint.mark_for] then [Fingerprint.digest], codeword
     128 bits x 3), observability off.  The orientation rule is summed
     straight into the copy's value buffer and the digest folds the flat
     buffers: 81 words measured with OCaml 5.1.1, against 4 697 when
     each copy built its (tuple, delta) mark list and a carrier-length
     row array.  The bound is 1.25x the measured figure. *)
  let ws = Wm_workload.Random_struct.regular_rings (Prng.create 19) ~n:3000 in
  let qs =
    Wm_watermark.Query_system.of_custom
      ~params:(List.init (Structure.size ws.Weighted.graph) Tuple.singleton)
      ~result_set:(fun p -> Tuple.Set.singleton p)
      ~weight_arity:1
  in
  let q = Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v" in
  let fp =
    match Wm_watermark.Local_scheme.prepare ~qs ws q with
    | Error e -> Alcotest.fail e
    | Ok scheme -> (
        match
          Wm_watermark.Fingerprint.of_local ~length:128 ~times:3 ~master:0xC0DE scheme
        with
        | Error e -> Alcotest.fail e
        | Ok fp -> fp)
  in
  let w = ws.Weighted.weights in
  let words =
    minor_words_of (fun () ->
        Wm_watermark.Fingerprint.digest (Wm_watermark.Fingerprint.mark_for fp "r5" w))
  in
  let bound = 1.25 *. 81. in
  check bool (Printf.sprintf "%.0f minor words <= %.0f" words bound) true (words <= bound)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_universe_matches_ref;
    QCheck_alcotest.to_alcotest prop_list_matches_ref;
    QCheck_alcotest.to_alcotest prop_cache_off_identity;
    QCheck_alcotest.to_alcotest prop_jobs_independent;
    QCheck_alcotest.to_alcotest prop_reindex_matches_ref;
    QCheck_alcotest.to_alcotest prop_certificate_gf_invariant;
    QCheck_alcotest.to_alcotest prop_of_tuples_matches_of_structure;
    Alcotest.test_case "all_tuples order" `Quick test_all_tuples_order;
    Alcotest.test_case "fast-path cache counters" `Quick test_cache_counters;
    Alcotest.test_case "iso checks <= reference" `Quick
      test_iso_checks_no_worse_than_ref;
    QCheck_alcotest.to_alcotest prop_sphere_walk_stale_scratch;
    QCheck_alcotest.to_alcotest prop_reach_matches_bfs;
    Alcotest.test_case "arity-2 pairs over a shared ball" `Quick
      test_pairs_not_quadratic;
    Alcotest.test_case "index allocation bound" `Quick test_index_allocation;
    Alcotest.test_case "trace allocation bound" `Quick test_trace_allocation;
    Alcotest.test_case "pattern compile allocation bound" `Quick test_compile_allocation;
    Alcotest.test_case "detect_weights allocation bound" `Quick
      test_detect_weights_allocation;
    QCheck_alcotest.to_alcotest prop_rank_addressed_matches_ref;
    Alcotest.test_case "tree-path index allocation bound" `Quick
      test_tree_index_allocation;
    Alcotest.test_case "prepare allocation bound" `Quick test_prepare_allocation;
    QCheck_alcotest.to_alcotest prop_csr_matches_naive;
    QCheck_alcotest.to_alcotest prop_edited_index_matches_ref;
    Alcotest.test_case "Gaifman build allocation bound" `Quick test_gaifman_allocation;
    QCheck_alcotest.to_alcotest prop_given_gaifman_matches_ref;
    Alcotest.test_case "Relation.of_flat allocation bound" `Quick test_of_flat_allocation;
    Alcotest.test_case "Tuple.compare allocation bound" `Quick
      test_tuple_compare_allocation;
    Alcotest.test_case "fingerprint copy allocation bound" `Quick test_copy_allocation;
  ]
