(* Tests for the extension modules: aggregate-preserving distortion, the
   detection-statistics module, the multi-query scheme, k-party collusion,
   and the Textio serialization format. *)

open Wm_watermark
open Wm_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let float = Alcotest.float
let _ = (int, bool, string, float)

let fig = Paper_examples.figure1
let figq = Paper_examples.figure1_query

(* --- aggregates -------------------------------------------------------- *)

let test_aggregates_basic () =
  let qs = Query_system.of_relational fig.Weighted.graph figq in
  let w = fig.Weighted.weights in
  let a = Tuple.singleton 0 in
  (* W_a = {d, e}, both weigh 10. *)
  check (float 1e-9) "sum" 20. (Distortion.f_agg Distortion.Sum qs w a);
  check (float 1e-9) "mean" 10. (Distortion.f_agg Distortion.Mean qs w a);
  check (float 1e-9) "min" 10. (Distortion.f_agg Distortion.Min qs w a);
  check (float 1e-9) "max" 10. (Distortion.f_agg Distortion.Max qs w a)

let test_aggregates_pair_marking () =
  (* The claim of the "note" in Section 1: positive results survive the
     aggregate swap.  A (+1,-1) pair inside a result set moves the mean by
     0 and min/max by at most the local distortion 1. *)
  let qs = Query_system.of_relational fig.Weighted.graph figq in
  let w = fig.Weighted.weights in
  let marks = [ (Tuple.singleton 3, 1); (Tuple.singleton 4, -1) ] in
  let w' = Weighted.apply_marks w marks in
  check bool "mean distortion on W_a = 0" true
    (abs_float
       (Distortion.f_agg Distortion.Mean qs w' (Tuple.singleton 0)
       -. Distortion.f_agg Distortion.Mean qs w (Tuple.singleton 0))
    < 1e-9);
  check bool "global min distortion <= 1" true
    (Distortion.global_agg Distortion.Min qs w w' <= 1.0 +. 1e-9);
  check bool "global max distortion <= 1" true
    (Distortion.global_agg Distortion.Max qs w w' <= 1.0 +. 1e-9)

let prop_aggregate_bounds =
  QCheck.Test.make ~count:25 ~name:"1-local marks move min/max/mean by <= 1"
    QCheck.(int_range 1 300)
    (fun seed ->
      let g = Wm_util.Prng.create seed in
      let ws = Random_struct.regular_rings g ~n:(12 + Wm_util.Prng.int g 30) in
      let qs = Query_system.of_relational ws.Weighted.graph figq in
      let marks =
        List.filter_map
          (fun t ->
            if Wm_util.Prng.bernoulli g 0.3 then Some (t, Wm_util.Prng.pm_one g)
            else None)
          (Query_system.active qs)
      in
      let w' = Weighted.apply_marks ws.Weighted.weights marks in
      List.for_all
        (fun agg ->
          Distortion.global_agg agg qs ws.Weighted.weights w' <= 1.0 +. 1e-9)
        [ Distortion.Mean; Distortion.Min; Distortion.Max ]
      |> fun mins_ok ->
      (* Mean can exceed 1?  No: each weight moves by <= 1, so the mean of
         any set moves by <= 1; min/max likewise. *)
      mins_ok)

(* --- detector statistics ------------------------------------------------ *)

let scheme_of seed n =
  let ws = Random_struct.regular_rings (Wm_util.Prng.create seed) ~n in
  match
    Local_scheme.prepare
      ~options:{ Local_scheme.default_options with rho = Some 1 }
      ws figq
  with
  | Ok s -> (ws, s)
  | Error e -> Alcotest.fail e

let test_detector_clean_copy () =
  let ws, scheme = scheme_of 3 60 in
  let cap = min 8 (Local_scheme.capacity scheme) in
  let message = Wm_util.Codec.random (Wm_util.Prng.create 1) cap in
  let marked = Local_scheme.mark scheme message ws.Weighted.weights in
  let v =
    Detector.read_weights (Local_scheme.pairs scheme)
      ~original:ws.Weighted.weights ~suspect:marked ~length:cap
  in
  check int "all strong" cap v.Detector.strong;
  check (float 1e-9) "confidence 1" 1.0 v.Detector.confidence;
  check bool "marked verdict" true (Detector.is_marked v);
  check bool "p-value tiny" true
    (Detector.match_pvalue ~expected:message v < 0.01)

let test_detector_unrelated_data () =
  let ws, scheme = scheme_of 5 60 in
  let cap = min 8 (Local_scheme.capacity scheme) in
  (* An innocent server: weights identical to the original (a competitor
     with the same public data, never marked). *)
  let v =
    Detector.read_weights (Local_scheme.pairs scheme)
      ~original:ws.Weighted.weights ~suspect:ws.Weighted.weights ~length:cap
  in
  check int "all silent" cap v.Detector.silent;
  check bool "not marked" false (Detector.is_marked v);
  (* And a noisy innocent server: independent +-1 noise. *)
  let g = Wm_util.Prng.create 9 in
  let noisy =
    List.fold_left
      (fun w t -> Weighted.add_delta w t (Wm_util.Prng.int g 3 - 1))
      ws.Weighted.weights
      (Weighted.support ws.Weighted.weights)
  in
  let v' =
    Detector.read_weights (Local_scheme.pairs scheme)
      ~original:ws.Weighted.weights ~suspect:noisy ~length:cap
  in
  (* The decoded bits are coin flips; the p-value against any fixed id
     should not be extreme. *)
  let p = Detector.match_pvalue ~expected:(Wm_util.Codec.random g cap) v' in
  check bool "no confident match" true (p > 0.001)

let test_binomial_tail () =
  check (float 1e-9) "k=0" 1. (Detector.binomial_tail ~trials:10 ~successes:0);
  check (float 1e-9) "k>n" 0. (Detector.binomial_tail ~trials:10 ~successes:11);
  check (float 1e-6) "all heads" (1. /. 1024.)
    (Detector.binomial_tail ~trials:10 ~successes:10);
  (* P[X >= 5 | n=10] > 0.5 (includes the median). *)
  check bool "majority mass" true
    (Detector.binomial_tail ~trials:10 ~successes:5 > 0.5)

let test_binomial_tail_degenerate_p () =
  (* p = 0 / p = 1 used to produce NaN (0 * -inf inside the log-space
     sum); the endpoints are now exact. *)
  check (float 1e-9) "p=0" 0.
    (Detector.binomial_tail_p ~p:0. ~trials:10 ~successes:3);
  check (float 1e-9) "p=1" 1.
    (Detector.binomial_tail_p ~p:1. ~trials:10 ~successes:10);
  check (float 1e-9) "p=1 partial" 1.
    (Detector.binomial_tail_p ~p:1. ~trials:10 ~successes:3);
  check (float 1e-9) "p=0 k=0" 1.
    (Detector.binomial_tail_p ~p:0. ~trials:10 ~successes:0);
  let finite p =
    let x = Detector.binomial_tail_p ~p ~trials:50 ~successes:25 in
    Float.is_finite x && x >= 0. && x <= 1.
  in
  check bool "interior values stay probabilities" true
    (List.for_all finite [ 1e-12; 0.25; 0.5; 0.999999 ]);
  let rejects p =
    match Detector.binomial_tail_p ~p ~trials:10 ~successes:5 with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check bool "p < 0 rejected" true (rejects (-0.1));
  check bool "p > 1 rejected" true (rejects 1.5);
  check bool "nan rejected" true (rejects Float.nan)

(* --- multi-query scheme ------------------------------------------------- *)

let two_away =
  Query.make ~params:[ "u" ] ~results:[ "v" ]
    Fo.(exists "w" (atom "E" [ "u"; "w" ] &&& atom "E" [ "w"; "v" ]))

let test_multi_roundtrip () =
  let ws = Random_struct.regular_rings (Wm_util.Prng.create 8) ~n:60 in
  let options = { Local_scheme.default_options with rho = Some 2 } in
  match Multi_scheme.prepare ~options ws [ figq; two_away ] with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let r = Multi_scheme.report scheme in
      check int "two queries" 2 r.Multi_scheme.queries;
      check bool "capacity >= 1" true (Multi_scheme.capacity scheme >= 1);
      let cap = min 6 (Multi_scheme.capacity scheme) in
      let message = Wm_util.Codec.random (Wm_util.Prng.create 2) cap in
      let marked = Multi_scheme.mark scheme message ws.Weighted.weights in
      (* Both queries' distortions within the budget, simultaneously. *)
      List.iter
        (fun (qi, d) ->
          check bool
            (Printf.sprintf "query %d within budget" qi)
            true
            (d <= r.Multi_scheme.budget))
        (Multi_scheme.distortion scheme ws.Weighted.weights marked);
      let decoded =
        Multi_scheme.detect_weights scheme ~original:ws.Weighted.weights
          ~suspect:marked ~length:cap
      in
      check bool "roundtrip" true (Wm_util.Bitvec.equal decoded message)

let test_multi_rejects_mixed_arity () =
  let ws = Paper_examples.figure1 in
  let pairq =
    Query.make ~params:[ "u" ] ~results:[ "v"; "w" ]
      Fo.(atom "E" [ "u"; "v" ] &&& atom "E" [ "u"; "w" ])
  in
  match Multi_scheme.prepare ws [ figq; pairq ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mixed result arity accepted"

let prop_multi_simultaneous_budget =
  QCheck.Test.make ~count:10 ~name:"multi-scheme bounds every query at once"
    QCheck.(int_range 1 200)
    (fun seed ->
      let ws =
        Random_struct.regular_rings (Wm_util.Prng.create seed)
          ~n:(24 + (seed mod 3 * 12))
      in
      let options = { Local_scheme.default_options with rho = Some 2; seed } in
      match Multi_scheme.prepare ~options ws [ figq; two_away ] with
      | Error _ -> QCheck.assume_fail ()
      | Ok scheme ->
          let cap = Multi_scheme.capacity scheme in
          let message = Wm_util.Codec.random (Wm_util.Prng.create (seed + 1)) cap in
          let marked = Multi_scheme.mark scheme message ws.Weighted.weights in
          List.for_all
            (fun (_, d) -> d <= (Multi_scheme.report scheme).Multi_scheme.budget)
            (Multi_scheme.distortion scheme ws.Weighted.weights marked)
          && Wm_util.Bitvec.equal message
               (Multi_scheme.detect_weights scheme ~original:ws.Weighted.weights
                  ~suspect:marked ~length:cap))

(* --- k-party collusion --------------------------------------------------- *)

let test_average_many_two_matches_average () =
  let w1 = Weighted.of_list 1 [ (Tuple.singleton 0, 10); (Tuple.singleton 1, 21) ] in
  let w2 = Weighted.of_list 1 [ (Tuple.singleton 0, 12); (Tuple.singleton 1, 22) ] in
  let a = Incremental.average w1 w2 in
  let b = Incremental.average_many [ w1; w2 ] in
  check int "elt 0" (Weighted.get_elt a 0) (Weighted.get_elt b 0);
  check int "elt 1" (Weighted.get_elt a 1) (Weighted.get_elt b 1)

let test_collusion_grows_with_k () =
  let ws, scheme = scheme_of 7 80 in
  let cap = min 10 (Local_scheme.capacity scheme) in
  let g = Wm_util.Prng.create 1 in
  let surviving k =
    let copies =
      List.init k (fun _ ->
          Local_scheme.mark scheme (Wm_util.Codec.random g cap) ws.Weighted.weights)
    in
    let avg = Incremental.average_many copies in
    let v =
      Detector.read_weights (Local_scheme.pairs scheme)
        ~original:ws.Weighted.weights ~suspect:avg ~length:cap
    in
    v.Detector.strong
  in
  (* One copy: everything intact.  More colluders: strictly less signal on
     average (random messages disagree on ~half the bits). *)
  check int "k=1 intact" cap (surviving 1);
  check bool "k=4 degrades" true (surviving 4 < cap)

(* --- textio --------------------------------------------------------------- *)

let test_textio_roundtrip_travel () =
  let ws = Paper_examples.travel in
  let ws2 = Wm_relational.Textio.of_string (Wm_relational.Textio.to_string ws) in
  check bool "structures equal" true
    (Structure.equal ws.Weighted.graph ws2.Weighted.graph);
  check bool "weights equal" true
    (Weighted.equal ws.Weighted.weights ws2.Weighted.weights);
  check string "names kept" "India discovery" (Structure.name_of ws2.Weighted.graph 0)

let test_textio_errors () =
  List.iter
    (fun s ->
      match Wm_relational.Textio.of_string s with
      | exception Wm_relational.Textio.Format_error _ -> ()
      | _ -> Alcotest.fail ("should not parse: " ^ s))
    [
      "";
      "size 3";
      "schema E/2";
      "schema E/2\nsize 2\nrel F 0 1";
      "schema E/2\nsize 2\nrel E 0 5";
      "schema E/2\nsize 2\nbogus directive";
      "schema E/x\nsize 2";
    ]

let prop_textio_roundtrip =
  QCheck.Test.make ~count:25 ~name:"textio roundtrips random instances"
    QCheck.(int_range 1 500)
    (fun seed ->
      let g = Wm_util.Prng.create seed in
      let ws =
        Random_struct.travel g ~travels:(2 + Wm_util.Prng.int g 10)
          ~transports:(3 + Wm_util.Prng.int g 20)
      in
      let ws2 = Wm_relational.Textio.of_string (Wm_relational.Textio.to_string ws) in
      Structure.equal ws.Weighted.graph ws2.Weighted.graph
      && Weighted.equal ws.Weighted.weights ws2.Weighted.weights)

(* One query is the case k = 1 of the query-list scheme: whatever the
   selection rule, [Multi_scheme] on [q] selects what [Local_scheme] on
   [q] selects, or fails with the same message. *)
let prop_one_query_list_is_local =
  QCheck.Test.make ~count:16 ~name:"multi-scheme on [q] == local scheme on q"
    (* the two-away query's FO evaluation grows steeply with n, so it
       stops at 60 elements *)
    QCheck.(
      triple (int_range 1 50)
        (oneofl
           [ (30, figq); (60, figq); (200, figq); (30, two_away); (60, two_away) ])
        (int_range 1 2))
    (fun (seed, (n, q), rho) ->
      let ws = Random_struct.regular_rings (Wm_util.Prng.create seed) ~n in
      List.for_all
        (fun selection ->
          let options =
            { Local_scheme.default_options with seed; rho = Some rho; selection }
          in
          Result.map Multi_scheme.pairs (Multi_scheme.prepare ~options ws [ q ])
          = Result.map Local_scheme.pairs (Local_scheme.prepare ~options ws q))
        [ `Greedy; `Random 20 ])

(* A union of one query system is that system: nothing tagged, no
   second memo, and the scheme hands back the caller's own system. *)
let test_one_query_keeps_system () =
  let ws = Random_struct.regular_rings (Wm_util.Prng.create 8) ~n:60 in
  let qs = Query_system.of_relational ws.Weighted.graph figq in
  let options = { Local_scheme.default_options with rho = Some 1 } in
  match Multi_scheme.prepare ~options ~qs:[ qs ] ws [ figq ] with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      check bool "same system" true (Multi_scheme.query_system scheme == qs)

(* A negative rank or a NaN budget is refused before any typing, with
   the message the serve and CLI layers pass on. *)
let test_multi_rejects_bad_options () =
  let ws = Paper_examples.figure1 in
  List.iter
    (fun (options, want) ->
      match Multi_scheme.prepare ~options ws [ figq ] with
      | Error m -> check Alcotest.string "message" want m
      | Ok _ -> Alcotest.failf "accepted %s" want)
    [
      ({ Local_scheme.default_options with rho = Some (-1) },
       "rho must be non-negative");
      ({ Local_scheme.default_options with rho = Some min_int },
       "rho must be non-negative");
      ({ Local_scheme.default_options with epsilon = Float.nan },
       "epsilon must lie in (0, 1]");
      ({ Local_scheme.default_options with epsilon = 0. },
       "epsilon must lie in (0, 1]");
    ]

let suite =
  [
    ("aggregates on figure 1", `Quick, test_aggregates_basic);
    ("aggregates under pair marking", `Quick, test_aggregates_pair_marking);
    QCheck_alcotest.to_alcotest prop_aggregate_bounds;
    ("detector: clean copy", `Quick, test_detector_clean_copy);
    ("detector: innocent servers", `Quick, test_detector_unrelated_data);
    ("detector: binomial tail", `Quick, test_binomial_tail);
    ("detector: binomial tail degenerate p", `Quick, test_binomial_tail_degenerate_p);
    ("multi-query roundtrip", `Quick, test_multi_roundtrip);
    ("multi-query arity guard", `Quick, test_multi_rejects_mixed_arity);
    QCheck_alcotest.to_alcotest prop_multi_simultaneous_budget;
    ("average_many = average for k=2", `Quick, test_average_many_two_matches_average);
    ("collusion grows with k", `Quick, test_collusion_grows_with_k);
    ("textio roundtrip (example 1)", `Quick, test_textio_roundtrip_travel);
    ("textio rejects junk", `Quick, test_textio_errors);
    QCheck_alcotest.to_alcotest prop_textio_roundtrip;
    QCheck_alcotest.to_alcotest prop_one_query_list_is_local;
    ("one query keeps the caller's system", `Quick, test_one_query_keeps_system);
    ("multi-scheme rejects bad options", `Quick, test_multi_rejects_bad_options);
  ]
