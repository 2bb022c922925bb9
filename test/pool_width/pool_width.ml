(* The pool spawns exactly the runners the job count asks for: at jobs 2,
   the calling domain and one worker domain; a later, larger job count
   grows it to match.  Runs in its own process, before anything else
   spawns a pool. *)

module Pool = Wm_par.Pool

let section () = ignore (Pool.parallel_map succ (Array.init 64 Fun.id))

let test_width () =
  Alcotest.(check int) "no pool before the first section" 1 (Pool.pool_size ());
  Pool.set_jobs (Some 2);
  section ();
  Alcotest.(check int) "jobs 2: two runners" 2 (Pool.pool_size ());
  Pool.set_jobs (Some 3);
  section ();
  Alcotest.(check int) "jobs 3: grown to three runners" 3 (Pool.pool_size ());
  Pool.set_jobs (Some 2);
  section ();
  Alcotest.(check int) "jobs 2 again: the pool never shrinks" 3
    (Pool.pool_size ())

let () =
  Alcotest.run "pool-width"
    [ ("pool", [ ("spawns the runners asked for", `Quick, test_width) ]) ]
