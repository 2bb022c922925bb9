(* Tests for Wm_par.Pool: the combinators' determinism contract (every
   job count produces the jobs=1 result, bit for bit), the dispatch rules
   (a nested section runs inline; the serial call sites enqueue
   nothing), exception propagation through a batch, pool survival after
   a failed batch, and determinism of every pooled call site —
   neighborhood indexing, the attack grid.  The pool reads the
   process-wide job count, so each job count is set around the call
   with [Jobs.with_jobs]. *)

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
      List.for_all
        (fun j -> Jobs.with_jobs j (fun () -> Pool.parallel_map f a) = expected)
        job_counts)

let prop_map_list_order =
  QCheck.Test.make ~count:50 ~name:"map_list preserves list order"
    QCheck.(list small_int)
    (fun xs ->
      let expected = List.map succ xs in
      List.for_all
        (fun j -> Jobs.with_jobs j (fun () -> Pool.map_list succ xs) = expected)
        job_counts)

let test_nested_batches () =
  (* Tasks that themselves call a combinator: no deadlock, and
     determinism holds through the nesting. *)
  let outer =
    Jobs.with_jobs 4 @@ fun () ->
    Pool.parallel_map
      (fun row -> Pool.parallel_map (fun c -> (row * 10) + c) [| 0; 1; 2 |])
      [| 1; 2; 3; 4; 5 |]
  in
  check bool "nested result" true
    (outer = [| [| 10; 11; 12 |]; [| 20; 21; 22 |]; [| 30; 31; 32 |];
                [| 40; 41; 42 |]; [| 50; 51; 52 |] |])

(* --- dispatch rules --------------------------------------------------- *)

let counter_of snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Wm_obs.Obs.counters)

(* [pool.tasks_enqueued] during [f ()], collection on. *)
let tasks_enqueued f =
  let was = Wm_obs.Obs.enabled () in
  Wm_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Wm_obs.Obs.set_enabled was) @@ fun () ->
  let since = Wm_obs.Obs.snapshot () in
  let r = f () in
  (r, counter_of (Wm_obs.Obs.diff ~since (Wm_obs.Obs.snapshot ())) "pool.tasks_enqueued")

let test_nested_runs_inline () =
  (* Five outer items at jobs 2 make five outer tasks; each task's inner
     [parallel_map] over 50 items must run as the plain loop and add no
     task of its own. *)
  let inner row = Array.init 50 (fun c -> (row * 100) + c) in
  let outer, enqueued =
    tasks_enqueued @@ fun () ->
    Jobs.with_jobs 2 @@ fun () ->
    Pool.parallel_map
      (fun row -> Pool.parallel_map (fun x -> x * 3) (inner row))
      [| 1; 2; 3; 4; 5 |]
  in
  check int "only the outer tasks are enqueued" 5 enqueued;
  check bool "sequential result" true
    (outer = Array.map (fun row -> Array.map (fun x -> x * 3) (inner row))
               [| 1; 2; 3; 4; 5 |])

let test_raising_task_leaves_no_inline_flag () =
  (* Every task raises; the calling domain helps run them.  Afterwards
     a top-level section must still go to the pool: a flag left set on
     the caller would run it inline and enqueue nothing. *)
  Jobs.with_jobs 2 @@ fun () ->
  (try ignore (Pool.parallel_map (fun _ -> failwith "boom") (Array.make 64 ()))
   with Failure _ -> ());
  let _, enqueued =
    tasks_enqueued (fun () -> Pool.parallel_map succ (Array.init 64 Fun.id))
  in
  check bool "the next section is pooled" true (enqueued > 0)

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
  Jobs.with_jobs 2 (fun () ->
      ignore (Pool.parallel_map (fun x -> x + 1) (Array.init 64 Fun.id)));
  let before = Pool.pool_size () in
  let want = max 8 (before + 2) in
  (* A spin barrier: every task waits until [want] of them run at once,
     which is only possible with [want] runners.  A clamped pool fails
     the reached-check after the bounded spin instead of hanging. *)
  let running = Atomic.make 0 in
  let reached =
    Jobs.with_jobs want @@ fun () ->
    Pool.parallel_map
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
        Jobs.with_jobs j @@ fun () ->
        Pool.parallel_map
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
      Jobs.with_jobs 4 @@ fun () ->
      ignore
        (Pool.parallel_map
           (fun i -> if i = 37 then raise (Boom i) else i)
           (Array.init 100 Fun.id));
      None
    with Boom i -> Some i
  in
  check bool "the task's own exception surfaces" true (raised = Some 37)

let test_pool_survives_failure () =
  Jobs.with_jobs 4 @@ fun () ->
  (try ignore (Pool.parallel_map (fun _ -> failwith "boom") [| 1; 2; 3 |])
   with Failure _ -> ());
  (* the failed batch must not wedge the queue or leak tasks *)
  let a = Array.init 1000 Fun.id in
  check bool "pool still answers correctly" true
    (Pool.parallel_map (fun x -> x + 1) a = Array.map (fun x -> x + 1) a)

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
      let index j = Jobs.index_universe j g ~rho ~arity:1 in
      let reference = index 1 in
      List.for_all
        (fun j ->
          let ix = index j in
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
            Jobs.with_jobs j (fun () ->
                Detector.read_weights (Local_scheme.pairs scheme)
                  ~original:ws.Weighted.weights ~suspect:noisy ~length:cap)
          in
          let reference = read 1 in
          List.for_all (fun j -> read j = reference) job_counts)

let test_attack_suite_deterministic () =
  let ws =
    Random_struct.travel (Wm_util.Prng.create 5) ~travels:30 ~transports:90
  in
  let run j =
    match
      Jobs.with_jobs j @@ fun () ->
      Attack_suite.run ~seed:5 ~redundancies:[ 1; 2 ] ~message_bits:4
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
        Jobs.with_jobs j (fun () ->
            Survivable.detect_structure base ~times ~length:bits
              ~original:ws ~suspect)
      in
      let reference = detect 1 in
      List.iter
        (fun j ->
          check bool (Printf.sprintf "jobs=%d" j) true (detect j = reference))
        [ 2; 4 ]

(* Typing, the carrier readers, endpoint realignment and the serve
   batch scheduler are plain loops (DESIGN.md 5.6): at two jobs none of
   them may enqueue a pool task. *)
let test_serial_sites_enqueue_nothing () =
  let ws =
    Random_struct.travel (Wm_util.Prng.create 9) ~travels:30 ~transports:90
  in
  let g = ws.Weighted.graph in
  match Local_scheme.prepare ws Random_struct.travel_query with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let base = Local_scheme.carriers scheme in
      let pairs = Local_scheme.pairs scheme in
      let length = Local_scheme.capacity scheme in
      let original = ws.Weighted.weights in
      let marked =
        Local_scheme.mark scheme
          (Wm_util.Codec.random (Wm_util.Prng.create 3) length)
          original
      in
      let observed =
        List.fold_left
          (fun m { Pairing.fst; snd } ->
            Tuple.Map.add fst (Weighted.get marked fst)
              (Tuple.Map.add snd (Weighted.get marked snd) m))
          Tuple.Map.empty pairs
      in
      let fp =
        match Fingerprint.of_local ~length:2 ~master:5 scheme with
        | Ok fp -> fp
        | Error e -> Alcotest.fail e
      in
      let suspect =
        Adversary.apply_structural
          (Wm_util.Prng.create 10)
          (Adversary.Delete_tuples { fraction = 0.15 })
          { ws with Weighted.weights = marked }
      in
      let engine = Wm_serve.Engine.create () in
      let send r =
        Wm_serve.Engine.handle engine (Wm_serve.Protocol.encode_request r)
      in
      ignore (send (Wm_serve.Protocol.Gen { id = "d"; n = 200; seed = 4 }));
      ignore
        (send
           (Wm_serve.Protocol.Prepare
              { id = "d"; seed = 1; rho = Some 1; epsilon = 1.0; shard = false;
                qspec = Wm_serve.Protocol.Identity }));
      let detect =
        Wm_serve.Protocol.encode_request
          (Wm_serve.Protocol.Detect { id = "d"; length = 4; shard = false })
      in
      let info = Wm_serve.Protocol.encode_request (Wm_serve.Protocol.Info "d") in
      let sites =
        [
          ("Neighborhood.index_universe", fun () ->
              ignore (Neighborhood.index_universe g ~rho:2 ~arity:1));
          ("Neighborhood.index", fun () ->
              ignore (Neighborhood.index g ~rho:1 (Neighborhood.all_tuples g ~arity:2)));
          ("Detector.read_weights", fun () ->
              ignore (Detector.read_weights pairs ~original ~suspect:marked ~length));
          ("Detector.read", fun () ->
              ignore (Detector.read pairs ~original ~observed ~length));
          ("Fingerprint.read", fun () ->
              ignore (Fingerprint.read fp ~original ~suspect:marked));
          ("Survivable.detect_structure", fun () ->
              ignore
                (Survivable.detect_structure base ~times:1 ~length ~original:ws
                   ~suspect));
          ("serve batch of reads", fun () ->
              let r = send (Wm_serve.Protocol.Batch [ detect; info; detect; info; detect ]) in
              let has needle =
                let n = String.length needle in
                let rec go i =
                  i + n <= String.length r && (String.sub r i n = needle || go (i + 1))
                in
                go 0
              in
              check bool "batch answered without errors" true
                (String.starts_with ~prefix:"ok batch" r
                && has "ok detect" && not (has "err ")));
        ]
      in
      Jobs.with_jobs 2 @@ fun () ->
      List.iter
        (fun (name, f) ->
          let (), enqueued = tasks_enqueued f in
          check int (name ^ ": tasks enqueued") 0 enqueued)
        sites

let suite =
  [
    QCheck_alcotest.to_alcotest prop_map_deterministic;
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
    ("nested sections run inline", `Quick, test_nested_runs_inline);
    ("a raising task leaves no inline flag", `Quick, test_raising_task_leaves_no_inline_flag);
    ("serial call sites enqueue no task", `Quick, test_serial_sites_enqueue_nothing);
  ]
