(* Driver-side load generator for [wmark serve] (DESIGN.md 5.11).

     dune exec bench/loadgen.exe -- --requests 200
     dune exec bench/loadgen.exe -- --server _build/default/bin/wmark.exe

   Spawns the server as a child process speaking qpwm-serve/1 over
   stdin/stdout, runs a seeded mixed workload (detect / mark / setw /
   info / batch) against a prepared dataset, and fails — nonzero exit —
   on any [err] response, undecodable frame, or unclean server exit.
   CI uses it as the serve smoke test; locally it doubles as a quick
   throughput probe.

   Requests still carry the [shard] operand of [prepare] and [detect]:
   the server validates it as 0/1 and ignores it, since there is one
   index path and one detector.  The serve suite (test/test_serve.ml)
   pins that the operand changes no response. *)

open Qpwm

let default_server =
  Filename.concat
    (Filename.concat (Filename.concat "_build" "default") "bin")
    "wmark.exe"

let usage () =
  prerr_endline
    "usage: loadgen [--server PATH] [--requests N] [--n N] [--seed N]";
  exit 2

let rec parse_args server requests n seed = function
  | [] -> (server, requests, n, seed)
  | "--server" :: v :: rest -> parse_args v requests n seed rest
  | "--requests" :: v :: rest -> (
      match int_of_string_opt v with
      | Some r when r > 0 -> parse_args server r n seed rest
      | _ -> usage ())
  | "--n" :: v :: rest -> (
      match int_of_string_opt v with
      | Some x when x >= 10 -> parse_args server requests x seed rest
      | _ -> usage ())
  | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s -> parse_args server requests n s rest
      | _ -> usage ())
  | _ -> usage ()

let () =
  let server, requests, n, seed =
    parse_args default_server 200 2_000 7
      (List.tl (Array.to_list Sys.argv))
  in
  if not (Sys.file_exists server) then begin
    Printf.eprintf "loadgen: server executable not found: %s\n" server;
    exit 2
  end;
  let ic, oc =
    Unix.open_process_args server [| server; "serve" |]
  in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  let at = ref 0 in
  let failures = ref 0 in
  let sent = ref 0 in
  let answered = ref 0 in
  (* One round trip; returns the decoded response or counts a failure. *)
  let call req =
    let payload = Serve_protocol.encode_request req in
    Frame.write oc payload;
    incr sent;
    match Frame.read ic ~at:!at with
    | Error e ->
        Printf.eprintf "loadgen: frame error: %s\n" (Frame.error_to_string e);
        incr failures;
        None
    | Ok None ->
        Printf.eprintf "loadgen: server closed the stream mid-session\n";
        incr failures;
        None
    | Ok (Some (resp, at')) -> (
        at := at';
        match Serve_protocol.decode_response resp with
        | Error m ->
            Printf.eprintf "loadgen: undecodable response: %s\n" m;
            incr failures;
            None
        | Ok r ->
            (match r.Serve_protocol.status with
            | `Ok _ -> incr answered
            | `Err m ->
                Printf.eprintf "loadgen: err response to %s: %s\n"
                  (Serve_protocol.op_name req) m;
                incr failures);
            Some r)
  in
  let must req =
    match call req with
    | Some r when (match r.Serve_protocol.status with `Ok _ -> true | _ -> false)
      -> r
    | _ ->
        Printf.eprintf "loadgen: setup request %s failed\n"
          (Serve_protocol.op_name req);
        exit 1
  in
  (* setup: one dataset, a prepared scheme, a mark to detect *)
  let _ = must Serve_protocol.Ping in
  let _ = must (Serve_protocol.Gen { id = "d"; n; seed }) in
  let _ =
    must
      (Serve_protocol.Prepare
         {
           id = "d";
           seed = 11;
           rho = Some 1;
           epsilon = 1.0;
           shard = true;
           qspec = Serve_protocol.Identity;
         })
  in
  let _ = must (Serve_protocol.Mark ("d", "1011001")) in
  (* seeded mixed workload *)
  let g = Prng.create (0x10AD + seed) in
  let t0 = Unix.gettimeofday () in
  for i = 1 to requests do
    let req =
      let r = Prng.int g 100 in
      if r < 45 then
        Serve_protocol.Detect
          { id = "d"; length = 1 + Prng.int g 7; shard = Prng.bool g }
      else if r < 60 then
        Serve_protocol.Batch
          (List.init
             (1 + Prng.int g 8)
             (fun _ ->
               Serve_protocol.encode_request
                 (Serve_protocol.Detect
                    { id = "d"; length = 1 + Prng.int g 7; shard = Prng.bool g })))
      else if r < 75 then
        Serve_protocol.Mark
          ( "d",
            String.init (1 + Prng.int g 7) (fun _ ->
                if Prng.bool g then '1' else '0') )
      else if r < 90 then
        Serve_protocol.Setw
          { id = "d"; value = 100 + Prng.int g 900; elt = [ Prng.int g n ] }
      else if r < 95 then Serve_protocol.Info "d"
      else Serve_protocol.Ping
    in
    ignore (call req);
    ignore i
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* stats must answer with a report body *)
  (match call Serve_protocol.Stats with
  | Some r when r.Serve_protocol.body <> None -> ()
  | _ ->
      prerr_endline "loadgen: stats returned no report body";
      incr failures);
  let _ = call Serve_protocol.Shutdown in
  close_out oc;
  (match Unix.close_process (ic, oc) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c ->
      Printf.eprintf "loadgen: server exited with %d\n" c;
      incr failures
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Printf.eprintf "loadgen: server killed by signal %d\n" s;
      incr failures);
  Printf.printf "loadgen: %d requests (%d answered ok) in %.3f s — %.0f req/s, %d failures\n"
    !sent !answered elapsed
    (float_of_int requests /. Float.max elapsed 1e-9)
    !failures;
  exit (if !failures = 0 then 0 else 1)
