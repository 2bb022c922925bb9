(* End-to-end scenarios chaining several subsystems, as a user would:
   serialization in the loop, attacks between marking and detection,
   updates between distribution and detection. *)

open Wm_watermark
open Wm_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let _ = (int, bool)

module Prng = Wm_util.Prng
module Codec = Wm_util.Codec
module Bitvec = Wm_util.Bitvec

(* 1. The 3-tier relational story, with files in the loop. *)
let test_relational_three_tier () =
  let owner_db = Random_struct.travel (Prng.create 77) ~travels:60 ~transports:150 in
  let query = Random_struct.travel_query in
  (* The owner's database lives on disk (Textio), as the CLI would have
     it. *)
  let owner_db =
    Wm_relational.Textio.of_string (Wm_relational.Textio.to_string owner_db)
  in
  (* Default options: rho comes from the CQ rank (0 for the atomic Route
     query). *)
  let scheme =
    match Local_scheme.prepare owner_db query with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  check int "tight default rho" 0 (Local_scheme.report scheme).Local_scheme.rho;
  let bits = 3 in
  check bool "capacity for 8 servers" true (Local_scheme.capacity scheme >= bits);
  let base = Local_scheme.carriers scheme in
  let times = Robust.redundancy_for base ~message_length:bits in
  let copies =
    List.init 8 (fun i ->
        let m = Codec.of_int ~bits i in
        (i, Robust.mark base ~times m owner_db.Weighted.weights))
  in
  (* Server 5 leaks; before re-selling it adds noise and a price hike. *)
  let _, leaked = List.nth copies 5 in
  let leaked =
    Wm_relational.Textio.of_string
      (Wm_relational.Textio.to_string { owner_db with Weighted.weights = leaked })
  in
  let qs = Local_scheme.query_system scheme in
  let attacked =
    Adversary.apply (Prng.create 3)
      (Adversary.Constant_offset { delta = 5 })
      ~active:(Query_system.active qs) leaked.Weighted.weights
  in
  let attacked =
    Adversary.apply (Prng.create 4)
      (Adversary.Random_flips { count = 4; amplitude = 1 })
      ~active:(Query_system.active qs) attacked
  in
  let decoded =
    Robust.detect base ~times ~length:bits ~original:owner_db.Weighted.weights
      ~suspect:attacked
  in
  check int "server 5 convicted" 5 (Codec.to_int decoded)

(* 2. The XML story with serialization and the descendant axis. *)
let test_xml_nested_story () =
  let open Wm_xml in
  (* A school with two levels of nesting. *)
  let student f l e =
    Xml.element "student"
      [
        Xml.element "firstname" [ Xml.text f ];
        Xml.element "lastname" [ Xml.text l ];
        Xml.element "exam" [ Xml.int_text e ];
      ]
  in
  let g = Prng.create 21 in
  let names = [| "John"; "Robert"; "Alice"; "Mary" |] in
  let cls i =
    Xml.element "class"
      (List.init 8 (fun j ->
           student (Prng.choose g names)
             (Printf.sprintf "N%d_%d" i j)
             (Prng.int g 21)))
  in
  let doc = Utree.of_xml (Xml.element "school" (List.init 8 cls)) in
  let pattern = Pattern.parse "school//student[firstname=$a]/exam" in
  match Pipeline.prepare_xml doc pattern with
  | Error e -> Alcotest.fail e
  | Ok xs ->
      let cap = min 4 (Tree_scheme.capacity xs.Pipeline.scheme) in
      check bool "has capacity" true (cap >= 1);
      let message = Codec.random g cap in
      let marked = Pipeline.mark_xml xs ~message doc in
      (* Ship as text; the suspect re-serves it. *)
      let suspect =
        Utree.of_xml (Xml.parse (Xml.to_string (Utree.to_xml marked)))
      in
      let decoded = Pipeline.detect_xml xs ~original:doc ~suspect ~length:cap in
      check bool "mark survives the document cycle" true
        (Bitvec.equal decoded message);
      (* Every nested student's exam total moved by at most 1. *)
      List.iter
        (fun a ->
          let s d =
            List.fold_left
              (fun acc v -> acc + Option.value ~default:0 (Utree.value_of d v))
              0 (Pattern.eval_node pattern d a)
          in
          check bool "node distortion <= 1" true (abs (s suspect - s doc) <= 1))
        (Pattern.structural_params pattern doc)

(* 3. Multi-query marking surviving a weights-only update. *)
let test_multi_query_update () =
  let ws = Random_struct.regular_rings (Prng.create 31) ~n:48 in
  let adjacency = Paper_examples.figure1_query in
  let two_away =
    Query.make ~params:[ "u" ] ~results:[ "v" ]
      Fo.(exists "w" (atom "E" [ "u"; "w" ] &&& atom "E" [ "w"; "v" ]))
  in
  match Multi_scheme.prepare ws [ adjacency; two_away ] with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let cap = min 4 (Multi_scheme.capacity scheme) in
      let message = Codec.random (Prng.create 1) cap in
      let marked = Multi_scheme.mark scheme message ws.Weighted.weights in
      (* Owner bumps all weights by 10 (weights-only update). *)
      let updated =
        List.fold_left
          (fun w t -> Weighted.add_delta w t 10)
          ws.Weighted.weights
          (Weighted.support ws.Weighted.weights)
      in
      let propagated =
        Incremental.propagate ~original:ws.Weighted.weights ~marked ~updated
      in
      let decoded =
        Multi_scheme.detect_weights scheme ~original:updated
          ~suspect:propagated ~length:cap
      in
      check bool "multi-query mark survives update" true
        (Bitvec.equal decoded message)

(* 4. Clique-width marking with a statistically justified accusation. *)
let test_cliquewidth_verdict () =
  let open Wm_cliquewidth in
  (* Big enough that the carrier count can reject the no-mark null at the
     default alpha = 0.01 (a 3-bit mark cannot: 0.25^3 > 0.01 — honest
     statistics, not a defect). *)
  let labels = 2 in
  let term = Cw_term.clique 120 in
  let tree = Cw_parse.to_tree ~labels term in
  let q = Cw_adjacency.query ~labels in
  match Tree_scheme.prepare tree q with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      let n = Cw_term.vertex_count term in
      let gw =
        Weighted.of_list 1 (List.init n (fun i -> (Tuple.singleton i, 500 + i)))
      in
      let tw = Cw_parse.vertex_weights tree gw in
      let cap = Tree_scheme.capacity scheme in
      let message = Codec.random (Prng.create 5) cap in
      let marked = Tree_scheme.mark scheme message tw in
      let verdict_marked =
        Detector.read_weights (Tree_scheme.pairs scheme) ~original:tw
          ~suspect:marked ~length:cap
      in
      check bool "marked flagged" true (Detector.is_marked verdict_marked);
      check bool "id matches" true
        (Detector.match_pvalue ~expected:message verdict_marked < 0.05);
      let verdict_innocent =
        Detector.read_weights (Tree_scheme.pairs scheme) ~original:tw
          ~suspect:tw ~length:cap
      in
      check bool "innocent cleared" false (Detector.is_marked verdict_innocent)

let suite =
  [
    ("three-tier relational story", `Slow, test_relational_three_tier);
    ("nested XML story", `Slow, test_xml_nested_story);
    ("multi-query + update", `Slow, test_multi_query_update);
    ("clique-width + verdict", `Slow, test_cliquewidth_verdict);
  ]
