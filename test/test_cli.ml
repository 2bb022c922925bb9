(* End-to-end tests of the wmark binary, driven through the shell.  The
   binary sits in the same _build tree as this test; skip gracefully when
   it is missing (e.g. partial builds). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let _ = (int, bool)

let wmark_path =
  List.find_opt Sys.file_exists
    [ "../bin/wmark.exe"; "_build/default/bin/wmark.exe"; "bin/wmark.exe" ]

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("qpwm_cli_" ^ name)

let run_cli args =
  match wmark_path with
  | None -> None
  | Some bin ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>&1" (Filename.quote bin) args
          (Filename.quote (tmp "out"))
      in
      let code = Sys.command cmd in
      let ic = open_in (tmp "out") in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some (code, text)

let skip_or f =
  match wmark_path with
  | None -> () (* binary not built in this configuration *)
  | Some _ -> f ()

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_cli_relational_cycle () =
  skip_or @@ fun () ->
  let db = tmp "db.txt" and marked = tmp "marked.txt" in
  (match run_cli (Printf.sprintf "gen-travel --travels 25 --transports 60 --seed 5 -o %s" db) with
  | Some (0, _) -> ()
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "gen-travel exit %d: %s" c out)
  | None -> ());
  (match run_cli (Printf.sprintf "mark %s -q \"Route(u,v)\" -m 9 --bits 4 -o %s" db marked) with
  | Some (0, _) -> ()
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "mark exit %d: %s" c out)
  | None -> ());
  match run_cli (Printf.sprintf "detect %s %s -q \"Route(u,v)\" --bits 4" db marked) with
  | Some (0, out) -> check bool "decoded 9" true (contains out "decoded: 9")
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "detect exit %d: %s" c out)
  | None -> ()

let test_cli_info_and_vc () =
  skip_or @@ fun () ->
  let db = tmp "db2.txt" in
  ignore (run_cli (Printf.sprintf "gen-travel --travels 12 --transports 10 --seed 6 -o %s" db));
  (match run_cli (Printf.sprintf "info %s -q \"Route(u,v)\"" db) with
  | Some (0, out) -> check bool "has capacity line" true (contains out "capacity")
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "info exit %d: %s" c out)
  | None -> ());
  match run_cli (Printf.sprintf "vc %s -q \"Route(u,v)\"" db) with
  | Some (0, out) -> check bool "has VC line" true (contains out "VC dimension")
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "vc exit %d: %s" c out)
  | None -> ()

(* [wmark info] on a conjunctive query whose CQ rank is 2 (the chain's
   middle variable is two atoms from either end), pinned byte for byte:
   without [--rho] the types are taken at rank 1, the documented
   default, not at the formula's own bound. *)
let test_cli_info_rho_default () =
  skip_or @@ fun () ->
  let db = tmp "db_rho.txt" in
  let q = "exists w z y. (Route(u,w) & Route(z,w) & Route(z,y) & Route(v,y))" in
  check (Alcotest.option int) "CQ rank" (Some 2) (Locality.cq_rank (Parser.fo_of_string q));
  ignore (run_cli (Printf.sprintf "gen-travel --travels 12 --transports 10 --seed 6 -o %s" db));
  let report ~rho ~ntp ~max_split =
    String.concat ""
      [
        "gaifman degree : 13\n";
        Printf.sprintf "locality rank  : %d\n" rho;
        Printf.sprintf "types (ntp)    : %d\n" ntp;
        "active |W|     : 12\n";
        "pairs          : 5 available, 5 selected\n";
        "capacity       : 5 bits\n";
        Printf.sprintf "budget         : 1 (certified max distortion %d)\n" max_split;
        "treewidth      : <= 9 (min-degree heuristic)\n";
      ]
  in
  List.iter
    (fun (flag, expected) ->
      match run_cli (Printf.sprintf "info %s -q %s%s" db (Filename.quote q) flag) with
      | Some (0, out) -> check Alcotest.string ("info" ^ flag) expected out
      | Some (c, out) -> Alcotest.fail (Printf.sprintf "info exit %d: %s" c out)
      | None -> ())
    [
      ("", report ~rho:1 ~ntp:15 ~max_split:1);
      (" --rho 2", report ~rho:2 ~ntp:28 ~max_split:0);
    ]

let test_cli_xml_cycle () =
  skip_or @@ fun () ->
  let doc = tmp "school.xml" and marked = tmp "schoolm.xml" in
  ignore (run_cli (Printf.sprintf "gen-school --students 60 --seed 7 -o %s" doc));
  (match
     run_cli
       (Printf.sprintf
          "xml-mark %s -p 'school/student[firstname=$a]/exam' -m 3 --bits 2 -o %s"
          doc marked)
   with
  | Some (0, _) -> ()
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "xml-mark exit %d: %s" c out)
  | None -> ());
  match
    run_cli
      (Printf.sprintf
         "xml-detect %s %s -p 'school/student[firstname=$a]/exam' --bits 2" doc
         marked)
  with
  | Some (0, out) -> check bool "decoded 3" true (contains out "decoded: 3")
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "xml-detect exit %d: %s" c out)
  | None -> ()

let test_cli_bad_input () =
  skip_or @@ fun () ->
  let bogus = tmp "bogus.txt" in
  let oc = open_out bogus in
  output_string oc "not a structure\n";
  close_out oc;
  match run_cli (Printf.sprintf "info %s -q \"Route(u,v)\"" bogus) with
  | Some (code, out) ->
      check bool "nonzero exit" true (code <> 0);
      check bool "diagnostic" true (contains out "wmark:")
  | None -> ()

(* A 36-byte file declaring 10^18 elements is a line-numbered input
   error (exit 1), not an allocation failure. *)
let test_cli_oversized_size () =
  skip_or @@ fun () ->
  let big = tmp "big.txt" in
  let oc = open_out big in
  output_string oc "schema E/2\nsize 1234567890123456789\n";
  close_out oc;
  match run_cli (Printf.sprintf "info %s -q 'E(u,v)'" big) with
  | Some (code, out) ->
      check int "exit 1" 1 code;
      check Alcotest.string "diagnostic"
        "wmark: bad input file: line 2: size 1234567890123456789 exceeds the \
         limit of 16777216 elements\n"
        out
  | None -> ()

let test_cli_jobs_zero () =
  skip_or @@ fun () ->
  let db = tmp "db3.txt" in
  ignore (run_cli (Printf.sprintf "gen-travel --travels 12 --transports 10 --seed 6 -o %s" db));
  match run_cli (Printf.sprintf "info %s -q \"Route(u,v)\" --jobs 0" db) with
  | Some (code, out) ->
      check bool "nonzero exit" true (code <> 0);
      check bool "names the bad value" true (contains out "--jobs 0")
  | None -> ()

let test_cli_update () =
  skip_or @@ fun () ->
  let db = tmp "db4.txt" and script = tmp "edits.txt" and out_db = tmp "db4e.txt" in
  ignore (run_cli (Printf.sprintf "gen-travel --travels 20 --transports 50 --seed 5 -o %s" db));
  let oc = open_out script in
  output_string oc "# grow the instance a little\ninsert Route 3 4\nadd fresh\n";
  close_out oc;
  (match
     run_cli
       (Printf.sprintf "update %s --edits %s -q \"Route(u,v)\" -o %s" db script
          out_db)
   with
  | Some (0, out) ->
      check bool "reports a decision" true (contains out "decision");
      check bool "wrote the edited copy" true (Sys.file_exists out_db)
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "update exit %d: %s" c out)
  | None -> ());
  (* a malformed script is a diagnostic, not a crash *)
  let oc = open_out script in
  output_string oc "frobnicate 1 2\n";
  close_out oc;
  match run_cli (Printf.sprintf "update %s --edits %s -q \"Route(u,v)\"" db script) with
  | Some (code, out) ->
      check bool "nonzero exit" true (code <> 0);
      check bool "diagnostic" true (contains out "wmark:")
  | None -> ()

(* -q repeats: mark and detect preserve both queries at once. *)
let test_cli_two_queries () =
  skip_or @@ fun () ->
  let db = tmp "db5.txt" and marked = tmp "marked5.txt" in
  let qs = "-q \"Route(u,v)\" -q \"Route(v,u)\"" in
  ignore (run_cli (Printf.sprintf "gen-travel --travels 25 --transports 60 --seed 5 -o %s" db));
  (match run_cli (Printf.sprintf "mark %s %s -m 5 --bits 3 -o %s" db qs marked) with
  | Some (0, _) -> ()
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "mark exit %d: %s" c out)
  | None -> ());
  match run_cli (Printf.sprintf "detect %s %s %s --bits 3" db marked qs) with
  | Some (0, out) -> check bool "decoded 5" true (contains out "decoded: 5")
  | Some (c, out) -> Alcotest.fail (Printf.sprintf "detect exit %d: %s" c out)
  | None -> ()

(* Bad scheme options are a diagnostic, not a report or a marked file. *)
let test_cli_bad_options () =
  skip_or @@ fun () ->
  let db = tmp "db6.txt" and marked = tmp "marked6.txt" in
  ignore (run_cli (Printf.sprintf "gen-travel --travels 12 --transports 10 --seed 6 -o %s" db));
  List.iter
    (fun (args, diagnostic) ->
      match run_cli args with
      | Some (code, out) ->
          check bool (args ^ ": nonzero exit") true (code <> 0);
          check bool (args ^ ": diagnostic") true (contains out diagnostic)
      | None -> ())
    [
      (Printf.sprintf "info %s -q \"Route(u,v)\" --rho=-2" db,
       "rho must be non-negative");
      (Printf.sprintf "mark %s -q \"Route(u,v)\" --rho=-1 -m 1 --bits 1 -o %s" db marked,
       "rho must be non-negative");
      (Printf.sprintf "info %s -q \"Route(u,v)\" --epsilon nan" db,
       "epsilon must lie in (0, 1]");
    ]

let suite =
  [
    ("cli relational cycle", `Slow, test_cli_relational_cycle);
    ("cli info and vc", `Slow, test_cli_info_and_vc);
    ("cli xml cycle", `Slow, test_cli_xml_cycle);
    ("cli rejects bad input", `Slow, test_cli_bad_input);
    ("cli rejects --jobs 0", `Slow, test_cli_jobs_zero);
    ("cli update subcommand", `Slow, test_cli_update);
    ("cli marks two queries", `Slow, test_cli_two_queries);
    ("cli rejects bad scheme options", `Slow, test_cli_bad_options);
    ("cli info rho default", `Slow, test_cli_info_rho_default);
    ("cli rejects an oversized size", `Slow, test_cli_oversized_size);
  ]
