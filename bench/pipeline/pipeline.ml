(* The pipeline benchmark's command line.

     pipeline.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1|FILE]
                  [--smoke] [--out FILE]
       One workload in this process.  Prints a summary, then as its last
       line one JSON object: correct, attempted, failed and the metrics
       (end-to-end with --trace 0, per-layer when traced).  --trace FILE
       also writes one span per stage call to FILE as JSON lines; --out
       writes the full report.

     pipeline.exe run [--seed N] [--runs N] [--trace FILE] [--smoke] [--out FILE]
       Each workload in a fresh process, run after run, alternating the
       workload order; --trace adds one traced run per workload and prints
       the tracing overhead.

     pipeline.exe compare [--benchmark FILE] BASE.json[,...] NEW.json[,...]
       See compare.ml. *)

open Qpwm

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("pipeline: " ^ m); exit 2) fmt

(* --- arguments ------------------------------------------------------ *)

let parse_args ~allowed args =
  let rec go opts pos = function
    | "--smoke" :: rest -> go (("smoke", "1") :: opts) pos rest
    | k :: rest when String.starts_with ~prefix:"--" k -> (
        let key = String.sub k 2 (String.length k - 2) in
        if not (List.mem key allowed) then die "unknown option %s" k;
        match rest with
        | v :: rest -> go ((key, v) :: opts) pos rest
        | [] -> die "%s needs a value" k)
    | p :: rest -> go opts (p :: pos) rest
    | [] -> (opts, List.rev pos)
  in
  go [] [] args

let opt opts k default = Option.value ~default (List.assoc_opt k opts)

let int_opt opts k default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with Some i -> i | None -> die "--%s expects an integer" k)

(* Workloads must not see the program's WMARK_* switches (job count,
   statistics, typing path): a run with any of them set re-executes itself
   without them. *)
let clean_env () =
  List.filter
    (fun kv -> not (String.starts_with ~prefix:"WMARK_" kv))
    (Array.to_list (Unix.environment ()))
  |> Array.of_list

(* BENCHMARK.json's run_seconds *)
let default_seconds = 15

let tmp_dir = ".pipeline_tmp"

let ensure_tmp () = if not (Sys.file_exists tmp_dir) then Sys.mkdir tmp_dir 0o755

let remove_tmp_dir () =
  try if Sys.readdir tmp_dir = [||] then Sys.rmdir tmp_dir with Sys_error _ -> ()

let remove_file f = try Sys.remove f with Sys_error _ -> ()

(* --- one workload ---------------------------------------------------- *)

let metric_json (name, value, unit) =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

let report (r : Workloads.result) ~seed ~seconds ~traced ~smoke =
  let failures = Workloads.all_failures r in
  Json.Obj
    [
      ("format", Json.String "qpwm-pipeline/1");
      ("workload", Json.String r.workload.name);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("jobs", Json.Int r.workload.jobs);
      ("traced", Json.Bool traced);
      ("smoke", Json.Bool smoke);
      ("correct", Json.Bool (failures = []));
      ("attempted", Json.Int (Workloads.attempted r));
      ("failed", Json.Int (List.length failures));
      ("failures", Json.List (List.map (fun f -> Json.String f) failures));
      ("digest", Json.String (String.concat "," (Workloads.digests r)));
      ("calib_ms", Json.List [ Json.Float (fst r.calib_ms); Json.Float (snd r.calib_ms) ]);
      ("stage_cover", Json.Float (Workloads.stage_cover r));
      ( "passes",
        Json.List
          (List.map
             (fun (p : Workloads.pass) ->
               Json.Obj
                 [
                   ("wall_s", Json.Float p.wall);
                   ("setup_wall_s", Json.Float p.out.setup);
                   ("kernel_ms", Json.Float p.kernel_ms);
                   ("scale", Json.Float p.scale);
                   ("digest", Json.String p.out.digest);
                 ])
             r.passes) );
      ("metrics", Json.Obj (List.map metric_json (Workloads.metrics r)));
    ]

let workload_main args =
  let opts, pos =
    parse_args ~allowed:[ "workload"; "seed"; "seconds"; "trace"; "out" ] args
  in
  if pos <> [] then die "unexpected argument %s" (List.hd pos);
  let env = Unix.environment () in
  if Array.length (clean_env ()) <> Array.length env then
    Unix.execve Sys.executable_name Sys.argv (clean_env ());
  let smoke = List.mem_assoc "smoke" opts in
  let name = opt opts "workload" "" in
  let w =
    match Workloads.find ~smoke name with
    | Some w -> w
    | None ->
        die "unknown workload %S (one of %s)" name
          (String.concat ", " (List.map (fun w -> w.Workloads.name) (Workloads.all ~smoke)))
  in
  let seed = int_opt opts "seed" 1 in
  let seconds = float_of_int (int_opt opts "seconds" default_seconds) in
  let trace = opt opts "trace" "0" in
  let traced = trace <> "0" in
  ensure_tmp ();
  let save_path = Filename.concat tmp_dir (Printf.sprintf "%s-%d.qpwm" name (Unix.getpid ())) in
  let r =
    Fun.protect
      ~finally:(fun () -> remove_file save_path)
      (fun () -> Workloads.run w ~seed ~seconds ~traced ~smoke ~save_path)
  in
  if trace <> "0" && trace <> "1" then Measure.write_spans r.recorder ~workload:name trace;
  let full = report r ~seed ~seconds ~traced ~smoke in
  Option.iter (fun path -> Json.to_file path full) (List.assoc_opt "out" opts);
  remove_tmp_dir ();
  let failures = Workloads.all_failures r in
  let shown =
    List.filter
      (fun (n, _, _) -> traced <> List.mem_assoc n Workloads.end_to_end)
      (Workloads.metrics r)
  in
  Printf.printf "workload %s: seed %d, %d passes, jobs %d, stage cover %.3f, calib %.2f/%.2f ms\n"
    name seed (List.length r.passes) w.jobs (Workloads.stage_cover r) (fst r.calib_ms)
    (snd r.calib_ms);
  Printf.printf "digest %s\n" (String.concat "," (Workloads.digests r));
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) failures;
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %14.6g %s\n" n v u) shown;
  print_endline
    (Json.to_string ~pretty:false
       (Json.Obj
          [
            ("correct", Json.Bool (failures = []));
            ("attempted", Json.Int (Workloads.attempted r));
            ("failed", Json.Int (List.length failures));
            ("metrics", Json.Obj (List.map metric_json shown));
          ]));
  exit (if failures = [] then 0 else 1)

(* --- run: every workload in a fresh process ---------------------------- *)

let spawn args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid =
    Unix.create_process_env Sys.executable_name argv (clean_env ()) Unix.stdin Unix.stderr
      Unix.stderr
  in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 255

(* Runs one workload process and returns its report, if it wrote one. *)
let child ~name ~seed ~seconds ~smoke ~trace =
  let out = Filename.concat tmp_dir (Printf.sprintf "%s-%d.json" name (Unix.getpid ())) in
  let code =
    spawn
      ([ "--workload"; name; "--seed"; string_of_int seed; "--seconds";
         string_of_int seconds; "--trace"; trace; "--out"; out ]
      @ if smoke then [ "--smoke" ] else [])
  in
  let r = if Sys.file_exists out then Some (Jsonr.of_file out) else None in
  remove_file out;
  (code, r)

let value r k = Jsonr.to_float (Jsonr.member "value" (Jsonr.member k (Jsonr.member "metrics" r)))

let run_main args =
  let opts, pos =
    parse_args ~allowed:[ "seed"; "runs"; "trace"; "out" ] args
  in
  if pos <> [] then die "unexpected argument %s" (List.hd pos);
  let smoke = List.mem_assoc "smoke" opts in
  let seed = int_opt opts "seed" 1 in
  let nruns = int_opt opts "runs" 1 in
  let seconds = default_seconds in
  let names = List.map (fun w -> w.Workloads.name) (Workloads.all ~smoke) in
  ensure_tmp ();
  let failed = ref false in
  let collect ~name ~trace =
    let code, r = child ~name ~seed ~seconds ~smoke ~trace in
    if code <> 0 then begin
      failed := true;
      Printf.eprintf "pipeline: workload %s exited with %d\n%!" name code
    end;
    r
  in
  let runs =
    List.concat
      (List.init nruns (fun i ->
           let order = if i mod 2 = 0 then names else List.rev names in
           List.filter_map (fun name -> collect ~name ~trace:"0") order))
  in
  let traced =
    match List.assoc_opt "trace" opts with
    | None -> []
    | Some file ->
        let oc = open_out file in
        Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
        List.filter_map
          (fun name ->
            let spans = Filename.concat tmp_dir (Printf.sprintf "%s-%d.spans" name (Unix.getpid ())) in
            let r = collect ~name ~trace:spans in
            if Sys.file_exists spans then begin
              let ic = open_in_bin spans in
              output_string oc (really_input_string ic (in_channel_length ic));
              close_in ic;
              remove_file spans
            end;
            r)
          names
  in
  remove_tmp_dir ();
  let of_workload name rs = List.filter (fun r -> Compare.workload r = name) rs in
  List.iter
    (fun name ->
      let rs = of_workload name runs in
      Printf.printf "\n%s (%d runs, seed %d)\n" name (List.length rs) seed;
      List.iter
        (fun (m, unit) ->
          let vs = List.map (fun r -> value r m) rs in
          let q1, q3 = Measure.quartiles vs in
          Printf.printf "  %-12s %12.6g %-3s [q1 %.6g, q3 %.6g]\n" m (Measure.median vs) unit q1 q3)
        Workloads.end_to_end;
      let digests = List.sort_uniq compare (List.map (fun r -> Jsonr.to_str (Jsonr.member "digest" r)) rs) in
      Printf.printf "  digest %s\n" (String.concat " " digests);
      if List.length digests > 1 then begin
        failed := true;
        print_endline "  FAILED: output digests differ across runs"
      end;
      List.iter
        (fun t ->
          let untraced = Measure.median (List.map (fun r -> value r "pipeline_s") rs) in
          Printf.printf "  traced: pipeline_s %.6g s, overhead %+.1f%%, stage cover %.3f\n"
            (value t "pipeline_s")
            (100.0 *. ((value t "pipeline_s" /. untraced) -. 1.0))
            (Jsonr.to_float (Jsonr.member "stage_cover" t)))
        (of_workload name traced))
    names;
  Option.iter
    (fun path ->
      Json.to_file path
        (Json.Obj
           [
             ("format", Json.String "qpwm-pipeline-run/1");
             ("seed", Json.Int seed);
             ("seconds", Json.Int seconds);
             ("runs", Json.List runs);
             ("traced", Json.List traced);
           ]))
    (List.assoc_opt "out" opts);
  exit (if !failed then 1 else 0)

let compare_main args =
  let opts, pos = parse_args ~allowed:[ "benchmark" ] args in
  match pos with
  | [ base; next ] -> (
      try exit (Compare.run ~benchmark:(opt opts "benchmark" "BENCHMARK.json") base next)
      with Jsonr.Error m | Sys_error m -> die "%s" m)
  | _ -> die "usage: compare [--benchmark FILE] BASE.json[,...] NEW.json[,...]"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_main args
  | "compare" :: args -> compare_main args
  | args -> workload_main args
