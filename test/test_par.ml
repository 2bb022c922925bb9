(* Tests for Wm_par.Pool: the combinators' determinism contract (every
   job count produces the jobs=1 result, bit for bit), exception
   propagation through a batch, pool survival after a failed batch, and
   determinism of every parallelized call site — neighborhood indexing,
   the detectors, the attack grid. *)

open Wm_watermark
open Wm_workload
module Pool = Wm_par.Pool

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let job_counts = [ 1; 2; 4 ]

(* --- combinators ----------------------------------------------------- *)

let prop_map_deterministic =
  QCheck.Test.make ~count:50 ~name:"parallel_map = sequential map, all jobs"
    QCheck.(pair (list small_int) small_int)
    (fun (xs, salt) ->
      let a = Array.of_list xs in
      let f x = (x * 2654435761) lxor salt in
      let expected = Array.map f a in
      List.for_all (fun j -> Pool.parallel_map ~jobs:j f a = expected) job_counts)

let prop_mapi_deterministic =
  QCheck.Test.make ~count:50 ~name:"parallel_mapi sees the right indices"
    QCheck.(list small_int)
    (fun xs ->
      let a = Array.of_list xs in
      let f i x = (i, x, i * x) in
      let expected = Array.mapi f a in
      List.for_all (fun j -> Pool.parallel_mapi ~jobs:j f a = expected) job_counts)

let prop_reduce_ordered =
  (* A non-commutative combine establishes that the reduction runs in
     index order regardless of which domain computed which chunk. *)
  QCheck.Test.make ~count:50 ~name:"parallel_reduce combines in index order"
    QCheck.(list (int_range 0 999))
    (fun xs ->
      let a = Array.of_list xs in
      let map x = string_of_int x in
      let combine acc s = acc ^ "," ^ s in
      let expected = Array.fold_left (fun acc x -> combine acc (map x)) "" a in
      List.for_all
        (fun j -> Pool.parallel_reduce ~jobs:j ~map ~combine ~init:"" a = expected)
        job_counts)

let prop_map_list_order =
  QCheck.Test.make ~count:50 ~name:"map_list preserves list order"
    QCheck.(list small_int)
    (fun xs ->
      let expected = List.map succ xs in
      List.for_all (fun j -> Pool.map_list ~jobs:j succ xs = expected) job_counts)

let test_nested_batches () =
  (* Tasks that themselves submit batches: the caller-helping queue must
     not deadlock, and determinism must hold through the nesting. *)
  let outer =
    Pool.parallel_map ~jobs:4
      (fun row ->
        Pool.parallel_map ~jobs:4 (fun c -> (row * 10) + c) [| 0; 1; 2 |])
      [| 1; 2; 3; 4; 5 |]
  in
  check bool "nested result" true
    (outer = [| [| 10; 11; 12 |]; [| 20; 21; 22 |]; [| 30; 31; 32 |];
                [| 40; 41; 42 |]; [| 50; 51; 52 |] |])

(* --- configuration --------------------------------------------------- *)

let test_set_jobs_roundtrip () =
  let d = Pool.default_jobs () in
  Pool.set_jobs (Some 3);
  check int "override" 3 (Pool.jobs ());
  Pool.set_jobs (Some 0);
  check int "clamped to 1" 1 (Pool.jobs ());
  Pool.set_jobs None;
  check int "back to default" d (Pool.jobs ())

let test_pool_grows_on_demand () =
  (* Warm the pool up small, then ask for more: the missing worker
     domains must be spawned, not silently clamped to the first-call
     size (the E20 strong-scaling bug). *)
  Pool.set_jobs (Some 1);
  ignore (Pool.parallel_map ~jobs:2 (fun x -> x + 1) (Array.init 64 Fun.id));
  let before = Pool.pool_size () in
  let want = max 8 (before + 2) in
  Pool.set_jobs (Some want);
  (* A spin barrier: every task waits until [want] of them run at once,
     which is only possible with [want] runners.  A clamped pool fails
     the reached-check after the bounded spin instead of hanging. *)
  let running = Atomic.make 0 in
  let reached =
    Pool.parallel_map ~jobs:want
      (fun _ ->
        ignore (Atomic.fetch_and_add running 1);
        let budget = ref 2_000_000_000 in
        while Atomic.get running < want && !budget > 0 do
          decr budget;
          Domain.cpu_relax ()
        done;
        Atomic.get running >= want)
      (Array.make want ())
  in
  Pool.set_jobs None;
  check int "pool grew" want (Pool.pool_size ());
  check bool "all runners live concurrently" true
    (Array.for_all Fun.id reached)

let test_concurrent_cache_misses () =
  (* A query system is an immutable table, shared across domains with no
     lock: read one system from many domains at once and compare every
     result set against the evaluator's, asked sequentially. *)
  let ws = Random_struct.travel (Wm_util.Prng.create 11) ~travels:6 ~transports:18 in
  let q = Random_struct.travel_query in
  let g = ws.Weighted.graph in
  let probes =
    Array.of_list (Neighborhood.all_tuples g ~arity:1)
  in
  let reference = Array.map (Query.result_set g q) probes in
  List.iter
    (fun j ->
      let qs = Query_system.of_relational g q in
      (* every domain asks every probe *)
      let got =
        Pool.parallel_map ~jobs:j
          (fun _ -> Array.map (fun a -> Query_system.result_set qs a) probes)
          (Array.make (2 * j) ())
      in
      Array.iter
        (fun per_domain ->
          check bool
            (Printf.sprintf "jobs=%d all result sets agree" j)
            true
            (Array.for_all2 Tuple.Set.equal reference per_domain))
        got)
    job_counts

(* --- exceptions ------------------------------------------------------ *)

exception Boom of int

let test_exception_propagates () =
  let raised =
    try
      ignore
        (Pool.parallel_map ~jobs:4
           (fun i -> if i = 37 then raise (Boom i) else i)
           (Array.init 100 Fun.id));
      None
    with Boom i -> Some i
  in
  check bool "the task's own exception surfaces" true (raised = Some 37)

let test_pool_survives_failure () =
  (try
     ignore (Pool.parallel_map ~jobs:4 (fun _ -> failwith "boom") [| 1; 2; 3 |])
   with Failure _ -> ());
  (* the failed batch must not wedge the queue or leak tasks *)
  let a = Array.init 1000 Fun.id in
  check bool "pool still answers correctly" true
    (Pool.parallel_map ~jobs:4 (fun x -> x + 1) a = Array.map (fun x -> x + 1) a)

(* --- parallelized call sites ----------------------------------------- *)

let prop_index_deterministic =
  QCheck.Test.make ~count:20
    ~name:"Neighborhood.index: same types and reps for all jobs"
    QCheck.(pair (int_range 10 60) (int_range 1 2))
    (fun (n, rho) ->
      let ws =
        Random_struct.graph (Wm_util.Prng.create (n + rho)) ~n ~max_degree:4
          ~edges:(2 * n)
      in
      let g = ws.Weighted.graph in
      let reference = Neighborhood.index_universe ~jobs:1 g ~rho ~arity:1 in
      List.for_all
        (fun j ->
          let ix = Neighborhood.index_universe ~jobs:j g ~rho ~arity:1 in
          reference.Neighborhood.tuples = ix.Neighborhood.tuples
          && reference.Neighborhood.types = ix.Neighborhood.types
          && reference.Neighborhood.representatives
             = ix.Neighborhood.representatives)
        job_counts)

let prop_index_matches_naive =
  (* The bucketed index (cheap invariants + certificates + in-bucket iso)
     against the definition: all-pairs Neighborhood.equivalent with
     first-occurrence numbering. *)
  QCheck.Test.make ~count:15
    ~name:"Neighborhood.index = naive all-pairs classification"
    QCheck.(pair (int_range 5 30) (int_range 1 2))
    (fun (n, rho) ->
      let ws =
        Random_struct.graph (Wm_util.Prng.create (7 * n)) ~n ~max_degree:4
          ~edges:(2 * n)
      in
      let g = ws.Weighted.graph in
      let tuples = Neighborhood.all_tuples g ~arity:1 in
      let gf = Gaifman.of_structure g in
      let reps = ref [] in
      let naive =
        List.map
          (fun c ->
            let rec find = function
              | [] ->
                  reps := !reps @ [ c ];
                  List.length !reps - 1
              | (r, ty) :: rest ->
                  if Neighborhood.equivalent g gf ~rho c r then ty
                  else find rest
            in
            (c, find (List.mapi (fun i r -> (r, i)) !reps)))
          tuples
      in
      let ix = Neighborhood.index g ~rho tuples in
      Neighborhood.ntp ix = List.length !reps
      && List.for_all (fun (c, ty) -> Neighborhood.type_of ix c = ty) naive)

let prop_detector_deterministic =
  QCheck.Test.make ~count:10 ~name:"Detector.read: same verdict for all jobs"
    QCheck.(int_range 40 120)
    (fun n ->
      let ws = Random_struct.regular_rings (Wm_util.Prng.create n) ~n in
      match Local_scheme.prepare ws Wm_workload.Paper_examples.figure1_query with
      | Error _ -> QCheck.assume_fail ()
      | Ok scheme ->
          let cap = Local_scheme.capacity scheme in
          let g = Wm_util.Prng.create (n + 1) in
          let message = Wm_util.Codec.random g cap in
          let marked = Local_scheme.mark scheme message ws.Weighted.weights in
          let noisy =
            Adversary.apply g
              (Adversary.Random_flips { count = n / 10; amplitude = 1 })
              ~active:
                (Query_system.active (Local_scheme.query_system scheme))
              marked
          in
          let read j =
            Detector.read_weights ~jobs:j (Local_scheme.pairs scheme)
              ~original:ws.Weighted.weights ~suspect:noisy ~length:cap
          in
          let reference = read 1 in
          List.for_all (fun j -> read j = reference) job_counts)

let test_attack_suite_deterministic () =
  let ws =
    Random_struct.travel (Wm_util.Prng.create 5) ~travels:30 ~transports:90
  in
  let run j =
    match
      Attack_suite.run ~jobs:j ~seed:5 ~redundancies:[ 1; 2 ] ~message_bits:4
        ws Random_struct.travel_query
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let reference = run 1 in
  check bool "rows non-empty" true (reference.Attack_suite.rows <> []);
  List.iter
    (fun j -> check bool (Printf.sprintf "jobs=%d" j) true (run j = reference))
    [ 2; 4 ]

let test_survivable_deterministic () =
  let ws =
    Random_struct.travel (Wm_util.Prng.create 9) ~travels:30 ~transports:90
  in
  match Local_scheme.prepare ws Random_struct.travel_query with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let times = 2 and bits = 4 in
      let base = Local_scheme.carriers scheme in
      let message = Wm_util.Codec.of_int ~bits 0b1011 in
      let marked = Robust.mark base ~times message ws.Weighted.weights in
      let suspect =
        Adversary.apply_structural
          (Wm_util.Prng.create 10)
          (Adversary.Delete_tuples { fraction = 0.15 })
          { ws with Weighted.weights = marked }
      in
      let detect j =
        Survivable.detect_structure ~jobs:j base ~times ~length:bits
          ~original:ws ~suspect
      in
      let reference = detect 1 in
      List.iter
        (fun j ->
          check bool (Printf.sprintf "jobs=%d" j) true (detect j = reference))
        [ 2; 4 ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_map_deterministic;
    QCheck_alcotest.to_alcotest prop_mapi_deterministic;
    QCheck_alcotest.to_alcotest prop_reduce_ordered;
    QCheck_alcotest.to_alcotest prop_map_list_order;
    ("nested batches do not deadlock", `Quick, test_nested_batches);
    ("set_jobs round-trip", `Quick, test_set_jobs_roundtrip);
    ("pool grows on demand", `Quick, test_pool_grows_on_demand);
    ("concurrent cache misses agree", `Quick, test_concurrent_cache_misses);
    ("a raising task propagates its exception", `Quick, test_exception_propagates);
    ("the pool survives a failed batch", `Quick, test_pool_survives_failure);
    QCheck_alcotest.to_alcotest prop_index_deterministic;
    QCheck_alcotest.to_alcotest prop_index_matches_naive;
    QCheck_alcotest.to_alcotest prop_detector_deterministic;
    ("attack suite identical across jobs", `Quick, test_attack_suite_deterministic);
    ("survivable detection identical across jobs", `Quick, test_survivable_deterministic);
  ]
