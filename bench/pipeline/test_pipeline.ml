(* The pipeline benchmark under dune runtest: a smoke run of all five
   workloads at about 1% size (checks only), and compare on fixture
   reports that plant a +30% grid slowdown (exit 1) and a changed output
   digest (exit 2). *)

let exit_code args =
  let argv = Array.of_list ("./pipeline.exe" :: args) in
  let pid = Unix.create_process "./pipeline.exe" argv Unix.stdin Unix.stdout Unix.stderr in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1

let failures = ref 0

let expect what code args =
  let got = exit_code args in
  if got = code then Printf.printf "ok   %s (exit %d)\n%!" what got
  else begin
    incr failures;
    Printf.printf "FAIL %s: exit %d, expected %d\n%!" what got code
  end

let compare base next =
  [ "compare"; "--benchmark"; "../../BENCHMARK.json"; "fixtures/" ^ base; "fixtures/" ^ next ]

let () =
  expect "smoke run of every workload" 0 [ "run"; "--smoke" ];
  expect "compare a report with itself" 0 (compare "base.json" "base.json");
  expect "compare catches +30% grid setup" 1 (compare "base.json" "slow_grid.json");
  expect "compare catches a changed digest" 2 (compare "base.json" "changed_digest.json");
  if !failures > 0 then exit 1
