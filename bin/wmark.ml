(* wmark — query-preserving watermarking from the command line.

   Relational instances travel in the Textio format (see
   lib/relational/textio.mli); XML documents as plain XML.  Queries are
   written in the formula syntax of Wm_logic.Parser, XML patterns in the
   Wm_xml.Pattern syntax.

     wmark gen-travel --travels 50 --transports 120 -o db.txt
     wmark info db.txt -q "Route(u,v)"
     wmark mark db.txt -q "Route(u,v)" --message 11 --bits 5 -o marked.txt
     wmark detect db.txt marked.txt -q "Route(u,v)" --bits 5
     wmark mark db.txt -q "Route(u,v)" -q "Route(v,u)" --message 3 --bits 2 -o m2.txt
     wmark update db.txt --edits script.txt -q "Route(u,v)" -o edited.txt
     wmark perturb marked.txt -q "Route(u,v)" --kind flips --count 5 -o att.txt
     wmark perturb marked.txt -q "Route(u,v)" --kind delete --fraction 0.2 -o att.txt
     wmark attack db.txt -q "Route(u,v)" --bits 4 --redundancy 5 --csv grid.csv
     wmark attack --jobs 4 --json grid.json   # generated workload, 4 domains
     wmark attack --stats --trace-json trace.json   # counters + trace spans
     wmark capacity small.txt -q "E(u,v)" --cond le --d 1
     wmark gen-school --students 40 -o school.xml
     wmark xml-mark school.xml -p "school/student[firstname=$a]/exam" \
       --message 5 --bits 4 -o marked.xml
     wmark xml-detect school.xml marked.xml -p "..." --bits 4 *)

open Qpwm
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments *)

let query_term =
  let doc = "Parametric query formula, e.g. 'Route(u,v)'." in
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"FORMULA" ~doc)

let queries_term =
  let doc =
    "Parametric query formula, e.g. 'Route(u,v)'; repeatable to preserve \
     several queries at once (all share $(b,--params) and $(b,--results))."
  in
  Arg.(non_empty & opt_all string [] & info [ "q"; "query" ] ~docv:"FORMULA" ~doc)

let params_term =
  let doc = "Comma-separated parameter variables." in
  Arg.(value & opt string "u" & info [ "params" ] ~docv:"VARS" ~doc)

let results_term =
  let doc = "Comma-separated result variables." in
  Arg.(value & opt string "v" & info [ "results" ] ~docv:"VARS" ~doc)

let rho_term =
  let doc =
    "Locality rank of the neighborhood types (default: 1, whatever the \
     formula's own locality bound)."
  in
  Arg.(value & opt (some int) (Some 1) & info [ "rho" ] ~docv:"RHO" ~doc)

let epsilon_term =
  let doc = "Distortion parameter: global budget is ceil(1/epsilon)." in
  Arg.(value & opt float 1.0 & info [ "epsilon" ] ~docv:"EPS" ~doc)

let seed_term =
  let doc = "PRNG seed (scheme preparation is deterministic per seed)." in
  Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_term =
  let doc =
    "Job count for the pooled sections (the attack grid, trace scoring, \
     recovery audits, serve fingerprint copies): the calling domain plus \
     N-1 worker domains.  Default: $(b,WMARK_JOBS) or the machine's \
     recommended domain count; 1 runs everything sequentially.  Results \
     are identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let set_jobs = function
  | Some j when j < 1 ->
      failwith (Printf.sprintf "--jobs %d: must be a positive worker count" j)
  | Some _ as j -> Par.set_jobs j
  | None -> ()

let stats_term =
  let doc =
    "Collect counters/timers while running and print the table afterwards \
     (same as setting $(b,WMARK_STATS=1))."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let trace_term =
  let doc =
    "Write the full observability snapshot — counters, timers and trace \
     spans — as qpwm-trace/1 JSON to $(docv).  Implies collection."
  in
  Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE" ~doc)

(* Run [f] with collection on when requested; report afterwards even if
   [f] raises, so a failing run still shows where the time went. *)
let with_obs ~stats ~trace f =
  if stats || trace <> None then Obs.set_enabled true;
  let report () =
    if stats || trace <> None then begin
      let snap = Obs.snapshot () in
      if stats then print_string (Obs_report.render snap);
      match trace with
      | None -> ()
      | Some out ->
          Json.to_file out (Obs_report.trace_json snap);
          Printf.printf "wrote %s\n" out
    end
  in
  Fun.protect ~finally:report f

let out_term =
  let doc = "Output file." in
  Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let bits_term =
  let doc = "Message length in bits." in
  Arg.(required & opt (some int) None & info [ "bits" ] ~docv:"N" ~doc)

let message_term =
  let doc = "Message as a non-negative integer." in
  Arg.(required & opt (some int) None & info [ "m"; "message" ] ~docv:"N" ~doc)

let pattern_term =
  let doc = "XML pattern, e.g. 'school/student[firstname=\\$a]/exam'." in
  Arg.(required & opt (some string) None & info [ "p"; "pattern" ] ~docv:"PATTERN" ~doc)

let split_commas s = String.split_on_char ',' s |> List.map String.trim

let parse_query ~query ~params ~results =
  Parser.query_of_string ~params:(split_commas params)
    ~results:(split_commas results) query

let prepare_scheme file ~queries ~params ~results ~rho ~epsilon ~seed =
  let ws = Textio.load file in
  let qs = List.map (fun query -> parse_query ~query ~params ~results) queries in
  let options = { Multi_scheme.seed; rho; epsilon; selection = `Greedy } in
  match Multi_scheme.prepare ~options ws qs with
  | Ok scheme -> (ws, qs, scheme)
  | Error e -> failwith ("prepare: " ^ e)

let handle f =
  try f (); 0
  with
  | Failure m | Invalid_argument m | Sys_error m ->
      Printf.eprintf "wmark: %s\n" m;
      1
  | Wm_relational.Textio.Format_error m ->
      Printf.eprintf "wmark: bad input file: %s\n" m;
      1
  | Wm_logic.Parser.Error m ->
      Printf.eprintf "wmark: bad formula: %s\n" m;
      1
  | Wm_xml.Pattern.Parse_error m ->
      Printf.eprintf "wmark: bad pattern: %s\n" m;
      1
  | Wm_xml.Xml.Parse_error m ->
      Printf.eprintf "wmark: bad XML: %s\n" m;
      1
  | Not_found ->
      Printf.eprintf "wmark: internal lookup failed (malformed input?)\n";
      1
  | e ->
      Printf.eprintf "wmark: %s\n" (Printexc.to_string e);
      1

(* ------------------------------------------------------------------ *)
(* info *)

let info_cmd =
  let run file queries params results rho epsilon seed jobs stats trace =
    handle @@ fun () ->
    set_jobs jobs;
    with_obs ~stats ~trace @@ fun () ->
    let ws, _, scheme =
      prepare_scheme file ~queries ~params ~results ~rho ~epsilon ~seed
    in
    let r = Multi_scheme.report scheme in
    (* per-query figures, comma-separated in query order *)
    let each l = String.concat ", " (List.map string_of_int l) in
    Printf.printf "gaifman degree : %d\n" r.Multi_scheme.degree;
    Printf.printf "locality rank  : %s\n" (each r.Multi_scheme.rho);
    Printf.printf "types (ntp)    : %s\n" (each r.Multi_scheme.ntp);
    Printf.printf "active |W|     : %d\n" r.Multi_scheme.active;
    Printf.printf "pairs          : %d available, %d selected\n"
      r.Multi_scheme.pairs_available r.Multi_scheme.pairs_selected;
    Printf.printf "capacity       : %d bits\n" r.Multi_scheme.pairs_selected;
    Printf.printf "budget         : %d (certified max distortion %d)\n"
      r.Multi_scheme.budget r.Multi_scheme.max_split;
    Printf.printf "treewidth      : <= %d (min-degree heuristic)\n"
      (Treewidth.heuristic_width ws.Weighted.graph)
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "info" ~doc:"Report a scheme's capacity and certificates.")
    Term.(
      const run $ file $ queries_term $ params_term $ results_term $ rho_term
      $ epsilon_term $ seed_term $ jobs_term $ stats_term
      $ trace_term)

(* mark *)

let mark_cmd =
  let run file queries params results rho epsilon seed jobs stats trace
      message bits out =
    handle @@ fun () ->
    set_jobs jobs;
    with_obs ~stats ~trace @@ fun () ->
    let ws, _, scheme =
      prepare_scheme file ~queries ~params ~results ~rho ~epsilon ~seed
    in
    if bits > Multi_scheme.capacity scheme then
      failwith
        (Printf.sprintf "message needs %d bits, capacity is %d" bits
           (Multi_scheme.capacity scheme));
    let m = Codec.of_int ~bits message in
    let marked = Multi_scheme.mark scheme m ws.Weighted.weights in
    Textio.save out { ws with Weighted.weights = marked };
    Printf.printf "embedded %d (%d bits) into %s\n" message bits out
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "mark"
       ~doc:
         "Embed a message into a weighted structure, preserving every \
          given query.")
    Term.(
      const run $ file $ queries_term $ params_term $ results_term $ rho_term
      $ epsilon_term $ seed_term $ jobs_term $ stats_term
      $ trace_term $ message_term $ bits_term $ out_term)

(* detect *)

let detect_cmd =
  let run original suspect queries params results rho epsilon seed jobs
      stats trace bits =
    handle @@ fun () ->
    set_jobs jobs;
    with_obs ~stats ~trace @@ fun () ->
    let ws, _, scheme =
      prepare_scheme original ~queries ~params ~results ~rho ~epsilon ~seed
    in
    let sus = Textio.load suspect in
    let decoded =
      Multi_scheme.detect_weights scheme ~original:ws.Weighted.weights
        ~suspect:sus.Weighted.weights ~length:bits
    in
    Printf.printf "decoded: %d (bits %s)\n" (Codec.to_int decoded)
      (Format.asprintf "%a" Bitvec.pp decoded)
  in
  let original = Arg.(required & pos 0 (some file) None & info [] ~docv:"ORIGINAL") in
  let suspect = Arg.(required & pos 1 (some file) None & info [] ~docv:"SUSPECT") in
  Cmd.v
    (Cmd.info "detect"
       ~doc:"Read a mark back from a suspect copy (same queries as mark).")
    Term.(
      const run $ original $ suspect $ queries_term $ params_term $ results_term
      $ rho_term $ epsilon_term $ seed_term $ jobs_term
      $ stats_term $ trace_term $ bits_term)

(* update — apply an edit script, reindex incrementally, report the
   Theorem 7/8 keep-vs-remark decision *)

let update_cmd =
  let run file edits_path query params results rho epsilon seed jobs
      stats trace out =
    handle @@ fun () ->
    set_jobs jobs;
    with_obs ~stats ~trace @@ fun () ->
    let ws, queries, scheme =
      prepare_scheme file ~queries:[ query ] ~params ~results ~rho ~epsilon
        ~seed
    in
    let edits =
      let ic = open_in edits_path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Textio.edits_of_string
            (really_input_string ic (in_channel_length ic)))
    in
    let edited, dirty = Structure.apply_edits ws.Weighted.graph edits in
    let n' = Structure.size edited in
    (* weights of removed elements disappear with them *)
    let ws' =
      Weighted.make edited (Weighted.restrict (fun x -> x < n') ws.Weighted.weights)
    in
    let old_gf = Gaifman.of_structure ws.Weighted.graph in
    let gf = Gaifman.refresh edited ~prev:old_gf ~dirty in
    match Multi_scheme.update scheme ~old:ws ~old_gf ws' ~gf queries ~dirty with
    | Error e -> failwith ("update: " ^ e)
    | Ok scheme' ->
        let decision =
          Incremental.update_decision_ix ~old_graph:ws.Weighted.graph ~old_gf
            ~old_index:(Local_scheme.index scheme) ~new_graph:edited ~gf
            ~new_index:(Local_scheme.index scheme') ~dirty
        in
        Printf.printf "edits          : %d (%d dirty elements)\n"
          (List.length edits) (List.length dirty);
        Printf.printf "universe       : %d -> %d elements\n"
          (Structure.size ws.Weighted.graph)
          n';
        Printf.printf "types (ntp)    : %d -> %d\n"
          (Local_scheme.report scheme).Local_scheme.ntp
          (Local_scheme.report scheme').Local_scheme.ntp;
        Printf.printf "capacity       : %d -> %d bits\n"
          (Multi_scheme.capacity scheme)
          (Multi_scheme.capacity scheme');
        Printf.printf "decision       : %s\n"
          (match decision with
          | `Keep_mark ->
              "keep mark (type-preserving update, Theorem 7: marks propagate)"
          | `Remark_required ->
              "re-mark required (a neighborhood type appeared or vanished, \
               Theorem 8)");
        match out with
        | None -> ()
        | Some o ->
            Textio.save o ws';
            Printf.printf "wrote %s\n" o
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let edits =
    let doc = "Edit script (see the Textio edit-script format)." in
    Arg.(required & opt (some file) None & info [ "edits" ] ~docv:"SCRIPT" ~doc)
  in
  let out =
    let doc = "Write the edited weighted structure to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Apply an edit script to a prepared instance, maintain the \
          neighborhood index incrementally (Gaifman locality), and report \
          whether the mark survives (Theorem 7) or a re-mark is needed \
          (Theorem 8).")
    Term.(
      const run $ file $ edits $ query_term $ params_term $ results_term
      $ rho_term $ epsilon_term $ seed_term $ jobs_term
      $ stats_term $ trace_term $ out)

(* capacity *)

let capacity_cmd =
  let run file query params results cond d =
    handle @@ fun () ->
    let ws = Textio.load file in
    let q = parse_query ~query ~params ~results in
    let qs = Query_system.of_relational ws.Weighted.graph q in
    let condition =
      match cond with
      | "le" -> Capacity.Max_le d
      | "eq" -> Capacity.Max_eq d
      | "alleq" -> Capacity.All_eq d
      | c -> failwith ("unknown condition " ^ c)
    in
    Printf.printf "#Mark(%s %d) = %d\n" cond d (Capacity.count qs condition)
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let cond =
    Arg.(value & opt string "le" & info [ "cond" ] ~docv:"le|eq|alleq")
  in
  let d = Arg.(value & opt int 1 & info [ "d" ] ~docv:"D") in
  Cmd.v
    (Cmd.info "capacity"
       ~doc:"Count exact watermarking capacity (#P-hard; small inputs).")
    Term.(const run $ file $ query_term $ params_term $ results_term $ cond $ d)

(* perturb — apply one attack, weight-level or structural, to a copy *)

let perturb_cmd =
  let run file query params results kind amplitude count fraction seed out =
    handle @@ fun () ->
    let ws = Textio.load file in
    let g = Prng.create seed in
    let weights a =
      let q = parse_query ~query ~params ~results in
      let qs = Query_system.of_relational ws.Weighted.graph q in
      let attacked =
        Adversary.apply g a ~active:(Query_system.active qs)
          ws.Weighted.weights
      in
      Textio.save out { ws with Weighted.weights = attacked };
      Printf.printf "%s: spent global budget %d, wrote %s\n"
        (Adversary.describe a)
        (Distortion.global qs ws.Weighted.weights attacked)
        out
    in
    let structural a =
      let attacked = Adversary.apply_structural g a ws in
      Textio.save out attacked;
      Printf.printf "%s: %d -> %d elements, wrote %s\n"
        (Adversary.describe_structural a)
        (Structure.size ws.Weighted.graph)
        (Structure.size attacked.Weighted.graph)
        out
    in
    match kind with
    | "noise" -> weights (Adversary.Uniform_noise { amplitude })
    | "flips" -> weights (Adversary.Random_flips { count; amplitude })
    | "rounding" -> weights (Adversary.Rounding { multiple = max 1 amplitude })
    | "offset" -> weights (Adversary.Constant_offset { delta = amplitude })
    | "delete" -> structural (Adversary.Delete_tuples { fraction })
    | "sample" -> structural (Adversary.Subset_sample { keep = fraction })
    | "insert" -> structural (Adversary.Insert_noise_tuples { count; amplitude })
    | "shuffle" -> structural Adversary.Shuffle_universe
    | k -> failwith ("unknown attack " ^ k)
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let kind =
    Arg.(
      value & opt string "flips"
      & info [ "kind" ]
          ~docv:"noise|flips|rounding|offset|delete|sample|insert|shuffle")
  in
  let amplitude = Arg.(value & opt int 1 & info [ "amplitude" ] ~docv:"A") in
  let count = Arg.(value & opt int 5 & info [ "count" ] ~docv:"N") in
  let fraction =
    Arg.(value & opt float 0.2 & info [ "fraction" ] ~docv:"F")
  in
  Cmd.v
    (Cmd.info "perturb"
       ~doc:
         "Apply one adversarial distortion — weight-level or structural — \
          to a copy.")
    Term.(
      const run $ file $ query_term $ params_term $ results_term $ kind
      $ amplitude $ count $ fraction $ seed_term $ out_term)

(* attack — the full survivability grid *)

let attack_cmd =
  let run file query params results rho epsilon seed jobs stats trace
      bits redundancies csv json only =
    handle @@ fun () ->
    set_jobs jobs;
    with_obs ~stats ~trace @@ fun () ->
    let ws, workload =
      match file with
      | Some f -> (Textio.load f, f)
      | None ->
          ( Random_struct.travel (Prng.create seed) ~travels:100 ~transports:400,
            "generated travel database (100 travels, 400 transports)" )
    in
    let q = parse_query ~query ~params ~results in
    let options = { Multi_scheme.seed; rho; epsilon; selection = `Greedy } in
    let redundancies = if redundancies = [] then [ 1; 3; 5 ] else redundancies in
    let only = if only = [] then None else Some only in
    match
      Attack_suite.run ~options ~seed ~redundancies ~message_bits:bits ?only
        ~workload ws q
    with
    | Error e -> failwith e
    | Ok report ->
        print_string (Attack_suite.render report);
        (match csv with
        | None -> ()
        | Some out ->
            let oc = open_out out in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc (Attack_suite.to_csv report));
            Printf.printf "wrote %s\n" out);
        (match json with
        | None -> ()
        | Some out ->
            Json.to_file out (Attack_suite.to_json report);
            Printf.printf "wrote %s\n" out)
  in
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE") in
  let query_dflt =
    let doc = "Query to preserve (default the travel workload's Route)." in
    Arg.(value & opt string "Route(u,v)" & info [ "q"; "query" ] ~docv:"FORMULA" ~doc)
  in
  let bits = Arg.(value & opt int 4 & info [ "bits" ] ~docv:"N") in
  let redundancies =
    let doc = "Redundancy factor; repeatable (default 1, 3 and 5)." in
    Arg.(value & opt_all int [] & info [ "redundancy" ] ~docv:"R" ~doc)
  in
  let csv =
    let doc = "Also write the grid as CSV to $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let json =
    let doc = "Also write the grid as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let only =
    let doc =
      "Replay only the listed grid cell index; repeatable.  Cells keep \
       the PRNG of their grid position (reported as grid_index/cell_seed \
       in the CSV, JSON and trace spans), so the replayed numbers are \
       identical to the full sweep's."
    in
    Arg.(value & opt_all int [] & info [ "only" ] ~docv:"INDEX" ~doc)
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:
         "Run the deterministic attack-survivability grid: mark, attack \
          (weight-level and structural), realign, detect, repair, \
          re-detect.")
    Term.(
      const run $ file $ query_dflt $ params_term $ results_term $ rho_term
      $ epsilon_term $ seed_term $ jobs_term $ stats_term
      $ trace_term $ bits $ redundancies $ csv $ json $ only)

(* ------------------------------------------------------------------ *)
(* fingerprint / trace — multi-recipient marking and traitor tracing *)

let master_term =
  let doc = "Master fingerprinting key; per-recipient keys derive from it." in
  Arg.(value & opt int 0xF1D0 & info [ "master" ] ~docv:"KEY" ~doc)

let fp_length_term =
  let doc = "Codeword length in bits (default min 128 capacity)." in
  Arg.(value & opt (some int) None & info [ "length" ] ~docv:"N" ~doc)

let fp_times_term =
  let doc = "Codeword repetitions (default the largest odd fit)." in
  Arg.(value & opt (some int) None & info [ "times" ] ~docv:"R" ~doc)

let fingerprint_of_scheme ?length ?times ~master scheme =
  match Fingerprint.of_local ?length ?times ~master scheme with
  | Ok fp -> fp
  | Error e -> failwith e

let fingerprint_cmd =
  let run file query params results rho epsilon seed jobs stats trace master
      length times recipient out =
    handle @@ fun () ->
    set_jobs jobs;
    with_obs ~stats ~trace @@ fun () ->
    let ws, _, scheme =
      prepare_scheme file ~queries:[ query ] ~params ~results ~rho ~epsilon
        ~seed
    in
    let fp = fingerprint_of_scheme ?length ?times ~master scheme in
    let marked = Fingerprint.mark_for fp recipient ws.Weighted.weights in
    Textio.save out { ws with Weighted.weights = marked };
    Printf.printf
      "fingerprinted for %s: %d-bit codeword x %d, digest %x, into %s\n"
      recipient (Fingerprint.length fp) (Fingerprint.times fp)
      (Fingerprint.digest marked) out
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let recipient =
    let doc = "Recipient id the copy is fingerprinted for." in
    Arg.(
      required
      & opt (some string) None
      & info [ "recipient" ] ~docv:"RID" ~doc)
  in
  Cmd.v
    (Cmd.info "fingerprint"
       ~doc:
         "Generate one recipient's fingerprinted copy: the recipient's \
          key derives from the master key, its codeword is embedded \
          through the same query-preserving scheme.")
    Term.(
      const run $ file $ query_term $ params_term $ results_term $ rho_term
      $ epsilon_term $ seed_term $ jobs_term $ stats_term $ trace_term
      $ master_term $ fp_length_term $ fp_times_term $ recipient $ out_term)

let trace_cmd =
  let run original suspect query params results rho epsilon seed jobs stats
      trace master length times count prefix alpha =
    handle @@ fun () ->
    set_jobs jobs;
    with_obs ~stats ~trace @@ fun () ->
    let ws, _, scheme =
      prepare_scheme original ~queries:[ query ] ~params ~results ~rho
        ~epsilon ~seed
    in
    let fp = fingerprint_of_scheme ?length ?times ~master scheme in
    let sus = Textio.load suspect in
    let rep =
      Fingerprint.trace ~alpha fp ~original:ws.Weighted.weights
        ~suspect:sus.Weighted.weights
        (List.init count (fun i -> prefix ^ string_of_int i))
    in
    Printf.printf
      "candidates %d, decided bits %d/%d, threshold %.3g (Sidak, alpha %g)\n"
      rep.Fingerprint.candidates rep.Fingerprint.decided
      (Fingerprint.length fp) rep.Fingerprint.threshold
      rep.Fingerprint.alpha;
    (match rep.Fingerprint.accused with
    | [] -> print_endline "no recipient accused"
    | accused ->
        List.iter
          (fun (s : Fingerprint.score) ->
            if s.Fingerprint.accused then
              Printf.printf "ACCUSED %s: %d/%d bits agree, p = %.3g\n"
                s.Fingerprint.rid s.Fingerprint.agreements
                s.Fingerprint.trials s.Fingerprint.pvalue)
          rep.Fingerprint.scores;
        Printf.printf "accused: %s\n" (String.concat ", " accused))
  in
  let original =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"ORIGINAL")
  in
  let suspect =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"SUSPECT")
  in
  let count =
    let doc = "Number of candidate recipients (ids prefix0..prefixN-1)." in
    Arg.(value & opt int 1000 & info [ "count" ] ~docv:"N" ~doc)
  in
  let prefix =
    let doc = "Recipient id prefix." in
    Arg.(value & opt string "r" & info [ "prefix" ] ~docv:"P" ~doc)
  in
  let alpha =
    let doc =
      "Family-wise false-accusation level; the per-candidate threshold is \
       Sidak-corrected over all candidates."
    in
    Arg.(value & opt float 0.01 & info [ "alpha" ] ~docv:"A" ~doc)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Score every candidate recipient against a suspect copy and \
          accuse below the multiple-testing-corrected threshold.")
    Term.(
      const run $ original $ suspect $ query_term $ params_term
      $ results_term $ rho_term $ epsilon_term $ seed_term $ jobs_term
      $ stats_term $ trace_term $ master_term $ fp_length_term
      $ fp_times_term $ count $ prefix $ alpha)

(* ------------------------------------------------------------------ *)
(* audit / repair — tamper localization and detect-and-recover *)

let key_term =
  let doc = "Certificate key (must match between protect and audit)." in
  Arg.(
    value
    & opt int Recovery.default_options.Recovery.key
    & info [ "key" ] ~docv:"KEY" ~doc)

let copies_term =
  let doc = "Certificate copies per group (redundant replication)." in
  Arg.(
    value
    & opt int
        Recovery.default_options.Recovery.redundancy
    & info [ "copies" ] ~docv:"N" ~doc)

let group_size_term =
  let doc = "Maximum elements per Gaifman-local group." in
  Arg.(
    value
    & opt int
        Recovery.default_options.Recovery.group_size
    & info [ "group-size" ] ~docv:"N" ~doc)

let recovery_options ~key ~copies ~group_size =
  { Recovery.key; redundancy = copies; group_size }

let audit_cmd =
  let run marked suspect key copies group_size jobs stats trace json =
    handle @@ fun () ->
    set_jobs jobs;
    with_obs ~stats ~trace @@ fun () ->
    let mws = Textio.load marked in
    let sus = Textio.load suspect in
    let cap =
      Recovery.protect ~options:(recovery_options ~key ~copies ~group_size) mws
    in
    let a = Recovery.audit cap ~suspect:sus in
    print_string (Recovery.render_audit cap a);
    match json with
    | None -> ()
    | Some out ->
        Json.to_file out (Recovery.audit_json cap a);
        Printf.printf "wrote %s\n" out
  in
  let marked = Arg.(required & pos 0 (some file) None & info [] ~docv:"MARKED") in
  let suspect = Arg.(required & pos 1 (some file) None & info [] ~docv:"SUSPECT") in
  let json =
    let doc = "Also write the tamper map as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Localize tampering: partition the marked copy into Gaifman-local \
          groups, verify each group of the suspect against its keyed \
          certificate, print the intact/distorted/erased/blind map.")
    Term.(
      const run $ marked $ suspect $ key_term $ copies_term $ group_size_term
      $ jobs_term $ stats_term $ trace_term $ json)

let repair_cmd =
  let run marked suspect key copies group_size jobs stats trace out json =
    handle @@ fun () ->
    set_jobs jobs;
    with_obs ~stats ~trace @@ fun () ->
    let mws = Textio.load marked in
    let sus = Textio.load suspect in
    let cap =
      Recovery.protect ~options:(recovery_options ~key ~copies ~group_size) mws
    in
    let repaired, report = Recovery.repair cap ~suspect:sus in
    Textio.save out repaired;
    print_string (Recovery.render_audit cap report.Recovery.findings);
    Printf.printf
      "repaired %d/%d damaged groups (%d unrepairable); restored %d \
       weights, %d elements, %d tuples; confidence %.2f\nwrote %s\n"
      report.Recovery.repaired
      (report.Recovery.repaired + report.Recovery.unrepairable)
      report.Recovery.unrepairable report.Recovery.restored_weights
      report.Recovery.restored_elements report.Recovery.restored_tuples
      report.Recovery.confidence out;
    match json with
    | None -> ()
    | Some jout ->
        Json.to_file jout (Recovery.repair_json report);
        Printf.printf "wrote %s\n" jout
  in
  let marked = Arg.(required & pos 0 (some file) None & info [] ~docv:"MARKED") in
  let suspect = Arg.(required & pos 1 (some file) None & info [] ~docv:"SUSPECT") in
  let json =
    let doc = "Also write the repair report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Best-effort restoration of a tampered copy from its surviving \
          keyed certificates; run wmark detect against the repaired output \
          for the repair-then-detect pipeline.")
    Term.(
      const run $ marked $ suspect $ key_term $ copies_term $ group_size_term
      $ jobs_term $ stats_term $ trace_term $ out_term $ json)

(* vc *)

let vc_cmd =
  let run file query params results =
    handle @@ fun () ->
    let ws = Textio.load file in
    let q = parse_query ~query ~params ~results in
    let ix = Query_vc.of_query ws.Weighted.graph q in
    let universe = Setfam.universe_size ix.Query_vc.fam in
    if universe > 24 then
      failwith
        (Printf.sprintf "active set too large for exact VC computation (%d)"
           universe);
    let d = Vc.dimension ix.Query_vc.fam in
    Printf.printf "active |W|      : %d\n" universe;
    Printf.printf "distinct W_a    : %d\n" (Setfam.cardinal ix.Query_vc.fam);
    Printf.printf "VC dimension    : %d\n" d;
    Printf.printf "maximal (VC=|W|): %s\n"
      (if Query_vc.maximal_on ws.Weighted.graph q then
         "yes - Theorem 2 forbids a watermarking scheme here"
       else "no");
    Printf.printf "sauer-shelah    : |C| = %d <= %d\n"
      (Setfam.cardinal ix.Query_vc.fam)
      (Vc.sauer_shelah ~d ~n:universe)
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "vc"
       ~doc:
         "Compute the VC-dimension of the query's definable family — the \
          owner's watermarkability estimate (Theorem 2 / Section 2).")
    Term.(const run $ file $ query_term $ params_term $ results_term)

(* generators *)

let gen_travel_cmd =
  let run travels transports seed out =
    handle @@ fun () ->
    Textio.save out (Random_struct.travel (Prng.create seed) ~travels ~transports);
    Printf.printf "wrote %s\n" out
  in
  let travels = Arg.(value & opt int 50 & info [ "travels" ] ~docv:"N") in
  let transports = Arg.(value & opt int 120 & info [ "transports" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "gen-travel" ~doc:"Generate a random travel database.")
    Term.(const run $ travels $ transports $ seed_term $ out_term)

let gen_school_cmd =
  let run students seed out =
    handle @@ fun () ->
    let doc = School_xml.generate (Prng.create seed) ~students () in
    let oc = open_out out in
    output_string oc (Xml.to_string (Utree.to_xml doc));
    close_out oc;
    Printf.printf "wrote %s\n" out
  in
  let students = Arg.(value & opt int 30 & info [ "students" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "gen-school" ~doc:"Generate a random school XML document.")
    Term.(const run $ students $ seed_term $ out_term)

let gen_biblio_cmd =
  let run articles seed out =
    handle @@ fun () ->
    let doc = Biblio_xml.generate (Prng.create seed) ~articles () in
    let oc = open_out out in
    output_string oc (Xml.to_string (Utree.to_xml doc));
    close_out oc;
    Printf.printf "wrote %s (pattern: %s)\n" out
      (Pattern.to_string Biblio_xml.pattern)
  in
  let articles = Arg.(value & opt int 40 & info [ "articles" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "gen-biblio"
       ~doc:"Generate a random bibliography XML document (descendant-axis demo).")
    Term.(const run $ articles $ seed_term $ out_term)

(* XML mark/detect *)

let block_term =
  let doc =
    "Block size for the tree scheme (default 2m, m = automaton states).  \
     Smaller blocks raise capacity; the distortion certificate is \
     unaffected, only the chance of finding behavioral twins."
  in
  Arg.(value & opt (some int) None & info [ "block" ] ~docv:"N" ~doc)

let load_xml path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Utree.of_xml (Xml.parse (really_input_string ic (in_channel_length ic))))

let xml_mark_cmd =
  let run file pattern message bits seed block out =
    handle @@ fun () ->
    let doc = load_xml file in
    let p = Pattern.parse pattern in
    let options = { Tree_scheme.default_options with seed; block_size = block } in
    match Pipeline.prepare_xml ~options doc p with
    | Error e -> failwith e
    | Ok xs ->
        if bits > Tree_scheme.capacity xs.Pipeline.scheme then
          failwith
            (Printf.sprintf "message needs %d bits, capacity is %d" bits
               (Tree_scheme.capacity xs.Pipeline.scheme));
        let marked = Pipeline.mark_xml xs ~message:(Codec.of_int ~bits message) doc in
        let oc = open_out out in
        output_string oc (Xml.to_string (Utree.to_xml marked));
        close_out oc;
        Printf.printf "embedded %d (%d bits) into %s\n" message bits out
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  Cmd.v
    (Cmd.info "xml-mark" ~doc:"Embed a message into an XML document.")
    Term.(const run $ file $ pattern_term $ message_term $ bits_term $ seed_term $ block_term $ out_term)

let xml_detect_cmd =
  let run original suspect pattern bits seed block =
    handle @@ fun () ->
    let doc = load_xml original in
    let sus = load_xml suspect in
    let p = Pattern.parse pattern in
    let options = { Tree_scheme.default_options with seed; block_size = block } in
    match Pipeline.prepare_xml ~options doc p with
    | Error e -> failwith e
    | Ok xs ->
        let decoded = Pipeline.detect_xml xs ~original:doc ~suspect:sus ~length:bits in
        Printf.printf "decoded: %d (bits %s)\n" (Codec.to_int decoded)
          (Format.asprintf "%a" Bitvec.pp decoded)
  in
  let original = Arg.(required & pos 0 (some file) None & info [] ~docv:"ORIGINAL") in
  let suspect = Arg.(required & pos 1 (some file) None & info [] ~docv:"SUSPECT") in
  Cmd.v
    (Cmd.info "xml-detect" ~doc:"Read a mark back from a suspect XML document.")
    Term.(const run $ original $ suspect $ pattern_term $ bits_term $ seed_term $ block_term)

(* serve — watermarking as a service over length-prefixed frames.

   Requests arrive as qpwm-serve/1 frames (4-byte big-endian length +
   text payload, see lib/serve/protocol.mli) on stdin or on a Unix
   socket; one response frame per request.  The loop stops cleanly at
   EOF or after answering a [shutdown] request. *)

let serve_loop engine ic oc =
  let rec go at =
    match Frame.read ic ~at with
    | Ok None -> `Eof
    | Error e ->
        (* A framing error poisons the byte stream — answer once and
           stop rather than resynchronize on garbage. *)
        Frame.write oc (Serve_protocol.err_payload (Frame.error_to_string e));
        `Eof
    | Ok (Some (payload, at')) ->
        Frame.write oc (Serve_engine.handle engine payload);
        if Serve_engine.stopped engine then `Shutdown else go at'
  in
  go 0

let serve_cmd =
  let run dir socket jobs stats trace =
    handle @@ fun () ->
    set_jobs jobs;
    (* The stats endpoint and the per-endpoint serve.lat.* histograms
       only exist while collection is on; a server always collects. *)
    Obs.set_enabled true;
    with_obs ~stats ~trace @@ fun () ->
    (match dir with
    | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
    | _ -> ());
    let engine = Serve_engine.create ?dir () in
    match socket with
    | None ->
        set_binary_mode_in stdin true;
        set_binary_mode_out stdout true;
        ignore (serve_loop engine stdin stdout)
    | Some path ->
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        if Sys.file_exists path then Unix.unlink path;
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock 16;
        Printf.eprintf "wmark serve: listening on %s\n%!" path;
        let rec accept_loop () =
          let fd, _ = Unix.accept sock in
          let ic = Unix.in_channel_of_descr fd
          and oc = Unix.out_channel_of_descr fd in
          set_binary_mode_in ic true;
          set_binary_mode_out oc true;
          let outcome = serve_loop engine ic oc in
          (try flush oc with Sys_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          if outcome = `Shutdown then ()
          else accept_loop ()
        in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close sock with Unix.Unix_error _ -> ());
            if Sys.file_exists path then Unix.unlink path)
          accept_loop
  in
  let dir =
    let doc =
      "Store directory for $(b,load)/$(b,snapshot) persistence (created if \
       missing)."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let socket =
    let doc =
      "Listen on a Unix domain socket instead of stdin/stdout; connections \
       are served one at a time."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve mark/detect/update/audit requests over length-prefixed \
          frames (qpwm-serve/1).")
    Term.(
      const run $ dir $ socket $ jobs_term $ stats_term
      $ trace_term)

let main =
  let doc = "query-preserving watermarking of relational databases and XML" in
  Cmd.group
    (Cmd.info "wmark" ~version:"1.0.0" ~doc)
    [
      info_cmd; mark_cmd; detect_cmd; update_cmd; capacity_cmd; vc_cmd;
      perturb_cmd; attack_cmd; fingerprint_cmd; trace_cmd; audit_cmd;
      repair_cmd; serve_cmd; gen_travel_cmd; gen_school_cmd; gen_biblio_cmd;
      xml_mark_cmd; xml_detect_cmd;
    ]

let () = exit (Cmd.eval' main)
