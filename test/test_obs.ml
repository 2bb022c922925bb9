(* Unit and property tests for the wm_obs observability layer: counters,
   timers and spans accumulate correctly across domains, and — the load-
   bearing contract — enabling collection never perturbs the computed
   results it observes. *)

module Obs = Wm_obs.Obs
open Wm_watermark
open Wm_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* The enable flag is process-global; every test restores what it found. *)
let with_stats on f =
  let was = Obs.enabled () in
  Obs.set_enabled on;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

let counter_value snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Obs.counters)

let timer_calls snap name =
  match List.assoc_opt name snap.Obs.timers with
  | Some t -> t.Obs.calls
  | None -> 0

(* Handles are created once per name; tests share this pool. *)
let c_test = Obs.counter "test.counter"
let t_test = Obs.timer "test.timer"
let t_span = Obs.timer "test.span"

let test_counter_basics () =
  with_stats true @@ fun () ->
  let since = Obs.snapshot () in
  Obs.incr c_test;
  Obs.add c_test 4;
  let d = Obs.diff ~since (Obs.snapshot ()) in
  check int "accumulated" 5 (counter_value d "test.counter")

let test_disabled_is_noop () =
  with_stats false @@ fun () ->
  let since = Obs.snapshot () in
  Obs.incr c_test;
  Obs.add c_test 100;
  check int "timer returns value" 3 (Obs.time t_test (fun () -> 3));
  check int "span returns value" 7 (Obs.span t_span (fun () -> 7));
  let d = Obs.diff ~since (Obs.snapshot ()) in
  check int "counter untouched" 0 (counter_value d "test.counter");
  check int "timer untouched" 0 (timer_calls d "test.timer");
  check bool "no spans" true
    (not (List.exists (fun e -> e.Obs.sp_name = "test.span") d.Obs.spans))

let test_timer_and_span () =
  with_stats true @@ fun () ->
  let since = Obs.snapshot () in
  check int "timer passthrough" 42 (Obs.time t_test (fun () -> 42));
  let v =
    Obs.span t_span (fun () -> Obs.span ~detail:"inner" t_span (fun () -> 9))
  in
  check int "span passthrough" 9 v;
  let d = Obs.diff ~since (Obs.snapshot ()) in
  check int "timer called once" 1 (timer_calls d "test.timer");
  check int "span timer called twice" 2 (timer_calls d "test.span");
  let events =
    List.filter (fun e -> e.Obs.sp_name = "test.span") d.Obs.spans
  in
  check int "two span events" 2 (List.length events);
  check bool "nesting depths 0 and 1" true
    (List.sort compare (List.map (fun e -> e.Obs.sp_depth) events) = [ 0; 1 ]);
  check bool "detail carried" true
    (List.exists (fun e -> e.Obs.sp_detail = Some "inner") events)

let test_timer_charges_on_raise () =
  with_stats true @@ fun () ->
  let since = Obs.snapshot () in
  (try Obs.time t_test (fun () -> failwith "boom") with Failure _ -> ());
  let d = Obs.diff ~since (Obs.snapshot ()) in
  check int "raising call still counted" 1 (timer_calls d "test.timer")

let test_counter_across_domains () =
  with_stats true @@ fun () ->
  let since = Obs.snapshot () in
  let xs =
    Jobs.with_jobs 4 @@ fun () ->
    Wm_par.Pool.parallel_map
      (fun x ->
        Obs.incr c_test;
        x * x)
      (Array.init 100 Fun.id)
  in
  check int "last square" (99 * 99) xs.(99);
  let d = Obs.diff ~since (Obs.snapshot ()) in
  check int "all domain-local increments merged" 100
    (counter_value d "test.counter")

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_report_rendering () =
  with_stats true @@ fun () ->
  Obs.incr c_test;
  ignore (Obs.span ~detail:"cell" t_span (fun () -> ()));
  let snap = Obs.snapshot () in
  let s = Wm_util.Obs_report.render snap in
  check bool "mentions counter" true (contains s "test.counter");
  check bool "mentions span" true (contains s "test.span");
  let json = Wm_util.Json.to_string (Wm_util.Obs_report.trace_json snap) in
  check bool "trace schema" true (contains json "qpwm-trace/1")

(* --- the transparency contract ---------------------------------------- *)

(* Neighborhood indexing: stats on vs. off, same types, same
   representatives — the instrumented fast-path bookkeeping (bucket
   pre-sizing, iso_avoided arithmetic) must not leak into results. *)
let prop_index_transparent =
  QCheck.Test.make ~count:15 ~name:"obs on/off: neighborhood index identical"
    QCheck.(pair (int_bound 10_000) (int_range 20 60))
    (fun (seed, n) ->
      let ws =
        Random_struct.graph (Prng.create seed) ~n ~max_degree:4 ~edges:(2 * n)
      in
      let g = ws.Weighted.graph in
      let run on =
        with_stats on @@ fun () -> Neighborhood.index_universe g ~rho:1 ~arity:1
      in
      let off = run false and on = run true in
      off.Neighborhood.tuples = on.Neighborhood.tuples
      && off.Neighborhood.types = on.Neighborhood.types
      && off.Neighborhood.representatives = on.Neighborhood.representatives)

(* Detector: a mark embedded and read back under both settings produces
   the same verdict record, field for field. *)
let prop_detector_transparent =
  QCheck.Test.make ~count:10 ~name:"obs on/off: detector verdict identical"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let ws = Random_struct.regular_rings (Prng.create seed) ~n:40 in
      match
        Local_scheme.prepare
          ~options:{ Local_scheme.default_options with rho = Some 1 }
          ws Paper_examples.figure1_query
      with
      | Error e -> QCheck.Test.fail_report e
      | Ok scheme ->
          let cap = min 8 (Local_scheme.capacity scheme) in
          QCheck.assume (cap > 0);
          let message = Codec.random (Prng.create (seed + 1)) cap in
          let marked = Local_scheme.mark scheme message ws.Weighted.weights in
          let read on =
            with_stats on @@ fun () ->
            Detector.read_weights (Local_scheme.pairs scheme)
              ~original:ws.Weighted.weights ~suspect:marked ~length:cap
          in
          read false = read true)

let suite =
  [
    ("counter basics", `Quick, test_counter_basics);
    ("disabled is a no-op", `Quick, test_disabled_is_noop);
    ("timer and span", `Quick, test_timer_and_span);
    ("timer charges on raise", `Quick, test_timer_charges_on_raise);
    ("counters merge across domains", `Quick, test_counter_across_domains);
    ("report rendering", `Quick, test_report_rendering);
    QCheck_alcotest.to_alcotest prop_index_transparent;
    QCheck_alcotest.to_alcotest prop_detector_transparent;
  ]
