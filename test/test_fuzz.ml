(* Fuzzing the total input APIs: Textio.of_string_result and
   Xml.parse_result must map EVERY input — truncated, bit-flipped, spliced
   — to Ok or Error, never to an escaping exception.  Plus the name
   round-trip guarantee of the Textio escaping. *)

let check = Alcotest.check
let bool = Alcotest.bool
let string = Alcotest.string
let int = Alcotest.int
let _ = (bool, string, int)

(* --- deterministic mutation of a valid input ------------------------- *)

let mutate g s =
  let n = String.length s in
  match Prng.int g 5 with
  | 0 -> String.sub s 0 (Prng.int g (n + 1)) (* truncate *)
  | 1 ->
      (* flip one byte to a random printable-ish character *)
      if n = 0 then s
      else begin
        let b = Bytes.of_string s in
        Bytes.set b (Prng.int g n) (Char.chr (32 + Prng.int g 96));
        Bytes.to_string b
      end
  | 2 ->
      (* splice a chunk of the input into itself *)
      if n < 2 then s
      else
        let i = Prng.int g n and j = Prng.int g n in
        String.sub s 0 i ^ String.sub s j (n - j)
  | 3 ->
      (* insert junk *)
      let i = Prng.int g (n + 1) in
      let junk =
        [| "\x00"; "%"; "&badent;"; "<"; "schema"; "-999999999999999999999";
           "rel X"; "</"; "9 9 9 9"; "\xff\xfe" |]
      in
      String.sub s 0 i ^ Prng.choose g junk ^ String.sub s i (n - i)
  | _ ->
      (* duplicate a line *)
      let lines = String.split_on_char '\n' s in
      let k = List.length lines in
      if k = 0 then s
      else
        let d = Prng.int g k in
        String.concat "\n"
          (List.concat (List.mapi (fun i l -> if i = d then [ l; l ] else [ l ]) lines))

(* --- Textio ---------------------------------------------------------- *)

let valid_textio =
  lazy
    (Textio.to_string
       (Wm_workload.Random_struct.travel (Prng.create 1) ~travels:8
          ~transports:20))

let test_textio_fuzz () =
  let g = Prng.create 0xF022 in
  let base = Lazy.force valid_textio in
  for _ = 1 to 60 do
    let input = mutate g base in
    match Textio.of_string_result input with
    | Ok _ | Error _ -> ()
    (* any exception escaping of_string_result fails the test run *)
  done

let malformed_textio =
  [
    "";
    "schema";
    "schema Route";
    "schema Route/x";
    "schema Route/2\nsize -5";
    "schema Route/2\nsize 3\nrel Route 0";
    "schema Route/2\nsize 3\nrel Route 0 9";
    "schema Route/2\nsize 3\nrel Nope 0 1";
    "schema Route/2\nsize 3\nweight";
    "schema Route/2\nsize 3\nweight 0 x";
    "schema Route/2\nsize 3\nname 99 far away";
    "schema Route/2\nsize 3\nbogus directive";
    "size 3";
    "schema Route/2";
    "schema Route/2\nweight_arity 0\nsize 3";
  ]

let test_textio_malformed_are_errors () =
  List.iter
    (fun input ->
      match Textio.of_string_result input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input %S" input)
    malformed_textio

let test_textio_error_lines () =
  (* The error points at the offending line. *)
  match Textio.of_string_result "schema Route/2\nsize 3\nrel Route 0 9\n" with
  | Error e -> check int "line of the bad tuple" 3 e.Textio.line
  | Ok _ -> Alcotest.fail "accepted an out-of-range tuple"

let test_textio_exception_api_delegates () =
  match Textio.of_string "schema Route/2\nsize 3\nrel Route 0 9\n" with
  | exception Textio.Format_error m ->
      check bool "message carries the line" true
        (String.length m >= 6 && String.sub m 0 6 = "line 3")
  | _ -> Alcotest.fail "expected Format_error"

(* Names that exercise every escape: '#', '%', tabs, newlines, leading/
   trailing/doubled spaces — all must survive a write/parse cycle. *)
let test_textio_name_roundtrip () =
  let names =
    [| "plain"; "with#hash"; " lead"; "trail "; "two  spaces"; "pct%20";
       "tab\there"; "new\nline"; "%"; " "; "a # b % c" |]
  in
  let schema = Schema.make ~weight_arity:1 [ { Schema.name = "E"; arity = 2 } ] in
  let g = Structure.create ~names schema (Array.length names) in
  let g = Structure.add_tuple g "E" (Tuple.of_list [ 0; 1 ]) in
  let w =
    List.fold_left
      (fun w x -> Weighted.set w (Tuple.singleton x) (10 + x))
      (Weighted.create 1)
      (Structure.universe g)
  in
  let ws = Weighted.make g w in
  match Textio.of_string_result (Textio.to_string ws) with
  | Error e -> Alcotest.failf "round-trip rejected: %s" (Textio.error_to_string e)
  | Ok ws' ->
      Array.iteri
        (fun x n ->
          check string
            (Printf.sprintf "name %d" x)
            n
            (Structure.name_of ws'.Weighted.graph x))
        names;
      check bool "weights survive" true
        (Weighted.equal ws.Weighted.weights ws'.Weighted.weights)

(* A valid file still parses after a to_string/of_string/to_string cycle:
   the fuzz mutations above must not be the only guarantee. *)
let test_textio_roundtrip_stable () =
  let base = Lazy.force valid_textio in
  match Textio.of_string_result base with
  | Error e -> Alcotest.failf "valid input rejected: %s" (Textio.error_to_string e)
  | Ok ws -> check string "fixpoint" base (Textio.to_string ws)

(* --- edit scripts ----------------------------------------------------- *)

let test_edit_script_roundtrip () =
  let script =
    [
      Structure.Insert_tuple ("Route", Tuple.of_list [ 0; 3 ]);
      Structure.Delete_tuple ("Timetable", Tuple.of_list [ 3; 9; 10; 15 ]);
      Structure.Add_element None;
      Structure.Add_element (Some "with#hash and  spaces ");
      Structure.Remove_element 17;
    ]
  in
  match Textio.edits_of_string_result (Textio.edits_to_string script) with
  | Error e -> Alcotest.failf "round-trip rejected: %s" (Textio.error_to_string e)
  | Ok script' -> check bool "identical" true (script = script')

let test_edit_script_malformed () =
  (match Textio.edits_of_string_result "insert Route 0 1\nfrobnicate 2\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> check int "line" 2 e.Textio.line);
  (match Textio.edits_of_string_result "remove not_an_int\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ());
  (* insert/delete with no elements are malformed, not nullary tuples *)
  match Textio.edits_of_string_result "insert Route\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ()

(* --- frames (serve wire protocol) ------------------------------------ *)

(* Frame.decode is total: any byte string, any position, any max_len maps
   to Ok/Error — truncations and oversized declarations are positioned
   errors, never exceptions. *)
let test_frame_fuzz () =
  let g = Prng.create 0xF044 in
  let stream =
    String.concat ""
      (List.map Frame.encode
         [ "ping"; ""; "detect d 5 1"; String.make 300 'x'; "\x00\x01\xff" ])
  in
  for _ = 1 to 120 do
    let input = mutate g stream in
    let pos = Prng.int g (String.length input + 1) in
    let max_len = 1 + Prng.int g 512 in
    match Frame.decode ~max_len input ~pos with Ok _ | Error _ -> ()
  done

let test_frame_roundtrip () =
  let payloads =
    [ ""; "a"; "ok detect\nmessage 101"; String.make 4096 '\x00';
      "\x01\x02\x03\xfe\xff"; String.init 256 Char.chr ]
  in
  let stream = String.concat "" (List.map Frame.encode payloads) in
  let rec walk pos acc =
    match Frame.decode stream ~pos with
    | Ok None -> List.rev acc
    | Ok (Some (payload, next)) -> walk next (payload :: acc)
    | Error e -> Alcotest.failf "decode: %s" (Frame.error_to_string e)
  in
  check bool "payloads survive framing" true (walk 0 [] = payloads)

let test_frame_truncation_positions () =
  let f = Frame.encode "hello" in
  (* every strict prefix is a positioned truncation error, except the
     empty stream (a clean end between frames) *)
  for cut = 1 to String.length f - 1 do
    match Frame.decode (String.sub f 0 cut) ~pos:0 with
    | Error e ->
        check int (Printf.sprintf "cut at %d points at first missing byte" cut)
          cut e.Frame.at
    | Ok _ -> Alcotest.failf "prefix of length %d accepted" cut
  done;
  (match Frame.decode "" ~pos:0 with
  | Ok None -> ()
  | _ -> Alcotest.fail "empty stream should be a clean end");
  (* an oversized declaration points at the frame start, not its body *)
  let big = Frame.encode (String.make 100 'z') in
  match Frame.decode ~max_len:10 (Frame.encode "ok" ^ big) ~pos:0 with
  | Ok (Some ("ok", next)) -> (
      match Frame.decode ~max_len:10 (Frame.encode "ok" ^ big) ~pos:next with
      | Error e -> check int "oversize error at frame start" next e.Frame.at
      | Ok _ -> Alcotest.fail "oversized frame accepted")
  | _ -> Alcotest.fail "first frame should decode"

(* The serve request/response decoders are total too: they sit directly
   behind the socket, so no byte sequence may raise. *)
let test_protocol_decode_fuzz () =
  let module P = Wm_serve.Protocol in
  let g = Prng.create 0xF055 in
  let bases =
    [ P.encode_request (P.Gen { id = "d"; n = 30; seed = 7 });
      P.encode_request
        (P.Prepare
           { id = "d"; seed = 1; rho = None; epsilon = 1.0; shard = true;
             qspec = P.Fo { params = [ "u" ]; results = [ "v" ]; formula = "u = v" } });
      P.encode_request (P.Batch [ "ping"; "info d" ]);
      P.ok_payload "detect" [ ("message", "101") ] ~body:"x";
      P.err_payload "boom % \x01";
    ]
  in
  for _ = 1 to 150 do
    let input = mutate g (Prng.choose g (Array.of_list bases)) in
    (match P.decode_request input with Ok _ | Error _ -> ());
    match P.decode_response input with Ok _ | Error _ -> ()
  done

(* Control bytes below 0x20 must survive a name round-trip — the wire
   protocol reuses this escaping for single-line error text. *)
let test_textio_control_byte_roundtrip () =
  for c = 0 to 255 do
    let s = Printf.sprintf "a%cb" (Char.chr c) in
    check string
      (Printf.sprintf "byte 0x%02x" c)
      s
      (Textio.unescape_name (Textio.escape_name s));
    let e = Textio.escape_name s in
    check bool
      (Printf.sprintf "escaped 0x%02x is one clean line" c)
      true
      (not (String.exists (fun ch -> ch < ' ') e))
  done

(* --- XML ------------------------------------------------------------- *)

let valid_xml =
  lazy
    (Wm_xml.Xml.to_string
       (Wm_xml.Utree.to_xml
          (Wm_workload.School_xml.generate (Prng.create 2) ~students:6 ())))

let test_xml_fuzz () =
  let g = Prng.create 0xF033 in
  let base = Lazy.force valid_xml in
  for _ = 1 to 60 do
    let input = mutate g base in
    match Wm_xml.Xml.parse_result input with Ok _ | Error _ -> ()
  done

let malformed_xml =
  [
    "";
    "just text";
    "<";
    "<a";
    "<a>";
    "</a>";
    "<a></b>";
    "<a><b></a></b>";
    "<a b=></a>";
    "<a b='x></a>";
    "<a>&bogus;</a>";
    "<a>&unterminated</a>";
    "<a/><b/>";
    "<!-- unterminated";
    "<?pi unterminated";
    "<a>text</a> trailing";
  ]

let test_xml_malformed_are_errors () =
  List.iter
    (fun input ->
      match Wm_xml.Xml.parse_result input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed XML %S" input)
    malformed_xml

let test_xml_error_positions () =
  match Wm_xml.Xml.parse_result "<a>\n  <b>\n</a>" with
  | Error e ->
      check bool "line past the opening tag" true (e.Wm_xml.Xml.line >= 2)
  | Ok _ -> Alcotest.fail "accepted a mismatched closing tag"

let test_xml_exception_api_delegates () =
  match Wm_xml.Xml.parse "<a><b></a>" with
  | exception Wm_xml.Xml.Parse_error m ->
      check bool "message has a position" true
        (String.length m > 0 && String.sub m 0 4 = "line")
  | _ -> Alcotest.fail "expected Parse_error"

let test_xml_valid_roundtrip () =
  let base = Lazy.force valid_xml in
  match Wm_xml.Xml.parse_result base with
  | Error e ->
      Alcotest.failf "valid XML rejected: %s" (Wm_xml.Xml.error_to_string e)
  | Ok doc -> check string "fixpoint" base (Wm_xml.Xml.to_string doc)

(* --- the one-pass codec against the frozen line-splitting one --------- *)

(* Valid files to start from: unnamed rings, the travel schema, and a
   named structure with weights on pairs. *)
let named_pairs =
  lazy
    (let names = [| "a"; "with#hash"; " lead"; "two  spaces"; "5"; "pct%" |] in
     let schema =
       Schema.make ~weight_arity:2
         [ { Schema.name = "E"; arity = 2 }; { Schema.name = "P"; arity = 1 } ]
     in
     let g = Structure.create ~names schema 6 in
     let g =
       List.fold_left
         (fun g (r, t) -> Structure.add_tuple g r (Tuple.of_list t))
         g
         [ ("E", [ 3; 1 ]); ("E", [ 0; 5 ]); ("P", [ 4 ]); ("E", [ 1; 3 ]); ("P", [ 0 ]) ]
     in
     let w =
       List.fold_left
         (fun w (t, v) -> Weighted.set w (Tuple.of_list t) v)
         (Weighted.create 2)
         [ ([ 5; 0 ], 7); ([ 0; 1 ], -3); ([ 2; 2 ], max_int); ([ 1; 4 ], min_int);
           ([ 0; 1 ], 12) ]
     in
     Weighted.make g w)

let codec_bases =
  lazy
    [
      Textio.to_string (Wm_workload.Random_struct.regular_rings (Prng.create 3) ~n:24);
      Lazy.force valid_textio;
      Textio.to_string (Lazy.force named_pairs);
    ]

let splice_tokens =
  [| "\t"; "#"; "%"; "%23"; "-"; "+4"; "0x1"; "1_0"; "-0"; "007"; "0b11";
     "1234567890123456789"; "-4611686018427387904"; "4611686018427387904";
     "99999999999999999999"; "rel"; "weight"; "name"; "size"; "schema"; "\r";
     "  "; "x"; "E"; "Route" |]

let splice_lines =
  [| "rel"; "weight"; "rel E"; "rel E 0"; "rel E 0 1 2"; "rel E 0 99999";
     "rel E -1 0"; "rel Nope 0 1"; "rel Route 1 0"; "rel Timetable 0 1 2 3";
     "weight 0"; "weight 0 1"; "weight 0 1 2"; "weight 99999 5"; "weight 0 x y";
     "weight x 1 y"; "weight 1 0x10"; "schema E/2"; "schema E/2 P/1";
     "schema Route/2 Timetable/4"; "schema E/2 E/2"; "schema E/0"; "schema E";
     "size 3"; "size 100"; "size -1"; "size 0"; "name 0 again"; "name 999 far";
     "name -1 x"; "name 1"; "weight_arity 2"; "weight_arity 0"; "weight_arity x";
     "bogus"; "# comment"; "\t"; "" |]

let edit_tokens =
  [| "insert"; "delete"; "add"; "remove"; "insert E"; "insert E 0 x"; "delete E 1 2";
     "remove 3"; "remove x"; "add x  y"; "add %20"; "add"; "frobnicate 2" |]

(* One to three edits: splice a token into a line, replace a word,
   insert a directive line, duplicate, swap or delete lines. *)
let splice g ~tokens ~lines:extra text =
  let lines = ref (Array.of_list (String.split_on_char '\n' text)) in
  for _ = 0 to Prng.int g 3 do
    let a = !lines in
    let n = Array.length a in
    let i = Prng.int g n in
    let sep () = if Prng.bool g then " " else "" in
    match Prng.int g 6 with
    | 0 ->
        let l = a.(i) in
        let p = Prng.int g (String.length l + 1) in
        a.(i) <-
          String.sub l 0 p ^ sep () ^ Prng.choose g tokens ^ sep ()
          ^ String.sub l p (String.length l - p)
    | 1 ->
        let ws = String.split_on_char ' ' a.(i) in
        let j = Prng.int g (List.length ws) in
        a.(i) <-
          String.concat " "
            (List.mapi (fun k w -> if k = j then Prng.choose g tokens else w) ws)
    | 2 ->
        lines :=
          Array.concat
            [ Array.sub a 0 i; [| Prng.choose g extra |]; Array.sub a i (n - i) ]
    | 3 -> lines := Array.concat [ Array.sub a 0 i; [| a.(i) |]; Array.sub a i (n - i) ]
    | 4 ->
        let j = Prng.int g n in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
    | _ -> lines := Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (n - i - 1))
  done;
  String.concat "\n" (Array.to_list !lines)

let same_error input (a : Textio.error) (b : Textio_ref.error) =
  if (a.Textio.line, a.Textio.message) <> (b.Textio_ref.line, b.Textio_ref.message)
  then
    Alcotest.failf "error %S vs reference %S on %S" (Textio.error_to_string a)
      (Textio_ref.error_to_string b) input

(* Every spliced (or byte-mutated) file parses to the same structure as
   the reference parser (same relations, weights and printed bytes) or fails with the
   same {line; message}. *)
let test_textio_differential () =
  let g = Prng.create 0xC0DEC in
  let oks = ref 0 and errors = ref 0 in
  List.iter
    (fun base ->
      for _ = 1 to 1500 do
        let input =
          if Prng.int g 4 = 0 then mutate g base
          else splice g ~tokens:splice_tokens ~lines:splice_lines base
        in
        match (Textio.of_string_result input, Textio_ref.of_string_result input) with
        | Ok a, Ok b ->
            incr oks;
            (* The reference printer walks the whole universe, so a
               spliced "size 1234567890123456789" is compared through
               the one-pass printer, checked against it below. *)
            let small = Structure.size b.Weighted.graph <= 100_000 in
            if
              not
                (Structure.equal a.Weighted.graph b.Weighted.graph
                && Weighted.equal a.Weighted.weights b.Weighted.weights
                && Textio.to_string a
                   = if small then Textio_ref.to_string b else Textio.to_string b)
            then Alcotest.failf "different structures from %S" input
        | Error a, Error b ->
            incr errors;
            same_error input a b
        | Ok _, Error b ->
            Alcotest.failf "accepted %S, reference: %s" input
              (Textio_ref.error_to_string b)
        | Error a, Ok _ ->
            Alcotest.failf "rejected %S (%s), reference accepts" input
              (Textio.error_to_string a)
      done)
    (Lazy.force codec_bases);
  check bool "both outcomes exercised" true (!oks > 100 && !errors > 100)

let test_edits_differential () =
  let g = Prng.create 0xED17 in
  let base =
    Textio.edits_to_string
      [
        Structure.Insert_tuple ("E", Tuple.of_list [ 0; 3 ]);
        Structure.Delete_tuple ("Timetable", Tuple.of_list [ 3; 9; 10; 15 ]);
        Structure.Add_element None;
        Structure.Add_element (Some "with#hash and  spaces ");
        Structure.Remove_element 17;
      ]
  in
  let oks = ref 0 and errors = ref 0 in
  for _ = 1 to 1500 do
    let input = splice g ~tokens:splice_tokens ~lines:edit_tokens base in
    match (Textio.edits_of_string_result input, Textio_ref.edits_of_string_result input) with
    | Ok a, Ok b ->
        incr oks;
        if a <> b then Alcotest.failf "different edits from %S" input
    | Error a, Error b ->
        incr errors;
        same_error input a b
    | Ok _, Error _ | Error _, Ok _ -> Alcotest.failf "outcomes differ on %S" input
  done;
  check bool "both outcomes exercised" true (!oks > 100 && !errors > 100)

(* Printing is byte-identical to the reference printer, with and without
   a names array, on flat and overlaid weights, at the int extremes. *)
let test_textio_print_reference () =
  let rings = Wm_workload.Random_struct.regular_rings (Prng.create 5) ~n:60 in
  let travel = Wm_workload.Random_struct.travel (Prng.create 2) ~travels:6 ~transports:15 in
  let named = Lazy.force named_pairs in
  let default_named =
    { rings with Weighted.graph = Structure.with_default_names rings.Weighted.graph }
  in
  let overlaid =
    {
      rings with
      Weighted.weights =
        List.fold_left
          (fun w x -> Weighted.set_elt w x (if x mod 2 = 0 then -x else x * 1000))
          rings.Weighted.weights [ 59; 3; 0; 17 ];
    }
  in
  List.iteri
    (fun i ws ->
      check string (Printf.sprintf "structure %d" i) (Textio_ref.to_string ws)
        (Textio.to_string ws))
    [ rings; travel; named; default_named; overlaid ]

let suite =
  [
    ("textio fuzz (60 mutants)", `Quick, test_textio_fuzz);
    ("textio malformed inputs", `Quick, test_textio_malformed_are_errors);
    ("textio error line numbers", `Quick, test_textio_error_lines);
    ("textio exception API delegates", `Quick, test_textio_exception_api_delegates);
    ("textio name round-trip", `Quick, test_textio_name_roundtrip);
    ("textio serialization fixpoint", `Quick, test_textio_roundtrip_stable);
    ("edit script round-trip", `Quick, test_edit_script_roundtrip);
    ("edit script malformed inputs", `Quick, test_edit_script_malformed);
    ("frame fuzz (120 mutants)", `Quick, test_frame_fuzz);
    ("frame stream round-trip", `Quick, test_frame_roundtrip);
    ("frame truncation positions", `Quick, test_frame_truncation_positions);
    ("protocol decode fuzz (150 mutants)", `Quick, test_protocol_decode_fuzz);
    ("textio control-byte round-trip", `Quick, test_textio_control_byte_roundtrip);
    ("xml fuzz (60 mutants)", `Quick, test_xml_fuzz);
    ("xml malformed inputs", `Quick, test_xml_malformed_are_errors);
    ("xml error positions", `Quick, test_xml_error_positions);
    ("xml exception API delegates", `Quick, test_xml_exception_api_delegates);
    ("xml serialization fixpoint", `Quick, test_xml_valid_roundtrip);
    ("textio == reference (4500 spliced files)", `Quick, test_textio_differential);
    ("edit scripts == reference (1500 spliced)", `Quick, test_edits_differential);
    ("textio printing == reference", `Quick, test_textio_print_reference);
  ]
