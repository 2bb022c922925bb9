(* Tests for Wm_watermark.Survivable and the structural half of
   Wm_watermark.Adversary: alignment by names / path signatures, erasure
   accounting in the detector, erasure-aware redundant decoding, and the
   headline contrast — under structural attacks the survivable detector
   recovers the message while the id-keyed aligned detector loses it. *)

open Wm_watermark
open Wm_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let _ = (int, bool, string)

(* One shared workload: the Example 1 travel database, large enough for a
   4-bit message at redundancy 5 (capacity 25 with default options). *)

let bits = 4
let times = 5
let message = Codec.of_int ~bits 0b1011

let prepared =
  lazy
    (let ws = Random_struct.travel (Prng.create 19) ~travels:100 ~transports:400 in
     let q = Random_struct.travel_query in
     match Local_scheme.prepare ws q with
     | Error e -> failwith ("test_survivable: " ^ e)
     | Ok scheme ->
         let base = Local_scheme.carriers scheme in
         let marked = Robust.mark base ~times message ws.Weighted.weights in
         (ws, scheme, base, { ws with Weighted.weights = marked }))

(* The aligned (id-keyed) detection path the paper's model gives us: read
   the suspect's weights at the original carriers' ids. *)
let aligned_detect ws base (suspect : Weighted.structure) =
  Robust.detect base ~times ~length:bits ~original:ws.Weighted.weights
    ~suspect:suspect.Weighted.weights

let survivable_detect ws scheme (suspect : Weighted.structure) =
  Survivable.detect_structure (Local_scheme.carriers scheme) ~times
    ~length:bits ~original:ws ~suspect

(* --- the acceptance contrast ----------------------------------------- *)

let test_delete20_survivable_recovers () =
  let ws, scheme, base, marked = Lazy.force prepared in
  let attacked =
    Adversary.apply_structural (Prng.create 7)
      (Adversary.Delete_tuples { fraction = 0.2 })
      marked
  in
  (* The attack really removed rows. *)
  check bool "universe shrank" true
    (Structure.size attacked.Weighted.graph < Structure.size ws.Weighted.graph);
  let rv, alignment = survivable_detect ws scheme attacked in
  check bool "survivable recovers the message" true
    (Bitvec.equal message rv.Robust.message);
  let p = Survivable.match_pvalue ~expected:message rv in
  check bool "significant (p < 0.01)" true (p < 0.01);
  check bool "some carriers were lost" true (alignment.Survivable.missing > 0);
  (* The aligned detector reads renumbered ids as garbage and fails. *)
  let naive = aligned_detect ws base attacked in
  check bool "aligned detector loses the message" false
    (Bitvec.equal message naive)

let test_subset_sample_recovers () =
  let ws, scheme, _, marked = Lazy.force prepared in
  let attacked =
    Adversary.apply_structural (Prng.create 11)
      (Adversary.Subset_sample { keep = 0.5 })
      marked
  in
  let rv, _ = survivable_detect ws scheme attacked in
  check bool "recovered from a 50% sample" true
    (Bitvec.equal message rv.Robust.message);
  check bool "significant" true (Survivable.match_pvalue ~expected:message rv < 0.01)

let test_insert_noise_recovers () =
  let ws, scheme, _, marked = Lazy.force prepared in
  let attacked =
    Adversary.apply_structural (Prng.create 13)
      (Adversary.Insert_noise_tuples { count = 50; amplitude = 999 })
      marked
  in
  check bool "universe grew" true
    (Structure.size attacked.Weighted.graph > Structure.size ws.Weighted.graph);
  let rv, alignment = survivable_detect ws scheme attacked in
  check bool "recovered after noise insertion" true
    (Bitvec.equal message rv.Robust.message);
  (* Insertions add new rows but delete none: every carrier survives. *)
  check int "no carriers lost" 0 alignment.Survivable.missing

let test_shuffle_recovers () =
  let ws, scheme, base, marked = Lazy.force prepared in
  let attacked =
    Adversary.apply_structural (Prng.create 17) Adversary.Shuffle_universe marked
  in
  check int "same size" (Structure.size ws.Weighted.graph)
    (Structure.size attacked.Weighted.graph);
  let rv, alignment = survivable_detect ws scheme attacked in
  check int "every carrier realigned" 0 alignment.Survivable.missing;
  check bool "recovered after renumbering" true
    (Bitvec.equal message rv.Robust.message);
  check bool "aligned detector loses the message" false
    (Bitvec.equal message (aligned_detect ws base attacked))

(* --- erasure accounting ---------------------------------------------- *)

let test_erasure_partition () =
  let ws, scheme, _, marked = Lazy.force prepared in
  let attacked =
    Adversary.apply_structural (Prng.create 23)
      (Adversary.Delete_tuples { fraction = 0.4 })
      marked
  in
  let rv, _ = survivable_detect ws scheme attacked in
  let v = rv.Robust.carriers in
  (* Every carrier is exactly one of strong / weak / silent / erased. *)
  check int "partition of the carriers" (times * bits)
    (v.Detector.strong + v.Detector.weak + v.Detector.silent + v.Detector.erased);
  check int "erasure bits match the count" v.Detector.erased
    (List.length
       (List.filter
          (fun i -> Bitvec.get v.Detector.erasure i)
          (List.init (Bitvec.length v.Detector.erasure) Fun.id)))

let test_identity_alignment_is_total () =
  let ws, scheme, _, marked = Lazy.force prepared in
  let rv, alignment = survivable_detect ws scheme marked in
  check int "nothing missing" 0 alignment.Survivable.missing;
  check int "nothing erased" 0 rv.Robust.carriers.Detector.erased;
  check bool "exact read" true (Bitvec.equal message rv.Robust.message)

(* On total wipe-out every bit is an erasure, not a confident zero. *)
let test_all_erased () =
  let ws, scheme, _, _ = Lazy.force prepared in
  let empty =
    Adversary.apply_structural (Prng.create 3)
      (Adversary.Subset_sample { keep = 0.0 })
      ws
  in
  let rv, _ = survivable_detect ws scheme empty in
  check int "all message bits erased" bits rv.Robust.erased_bits;
  check bool "all_erased verdict is explicit" true rv.Robust.all_erased;
  check bool "no significance claimed" true
    (Survivable.match_pvalue ~expected:message rv >= 0.5);
  (* a partial attack must NOT raise the flag *)
  let partial =
    Adversary.apply_structural (Prng.create 3)
      (Adversary.Subset_sample { keep = 0.5 })
      (let _, _, _, marked = Lazy.force prepared in marked)
  in
  let rv', _ = survivable_detect ws scheme partial in
  check bool "partial survival is not all_erased" false rv'.Robust.all_erased

(* Regression pin: the zero-trials binomial is the uninformative 1.0 —
   the value the all-erasures verdict bottoms out on — never an
   exception or a confident 0. *)
let test_binomial_zero_trials () =
  check bool "p(0 trials, 0 successes) = 1" true
    (Detector.binomial_tail ~trials:0 ~successes:0 = 1.0);
  check bool "p(0 trials, any p) = 1" true
    (Detector.binomial_tail_p ~p:0.25 ~trials:0 ~successes:0 = 1.0);
  check bool "successes beyond trials impossible" true
    (Detector.binomial_tail ~trials:0 ~successes:1 = 0.0)

(* --- XML ------------------------------------------------------------- *)

let xml_prepared =
  lazy
    (let doc = School_xml.generate (Prng.create 20) ~students:300 () in
     match Pipeline.prepare_xml doc School_xml.example4_pattern with
     | Error e -> failwith ("test_survivable xml: " ^ e)
     | Ok xs ->
         let base = Tree_scheme.carriers xs.Pipeline.scheme in
         let r = Robust.redundancy_for base ~message_length:bits in
         let marked =
           Wm_xml.Utree.with_weights doc
             (Robust.mark base ~times:r message (Wm_xml.Utree.weights doc))
         in
         (doc, xs, r, marked))

let xml_detect doc xs r suspect =
  Survivable.detect_tree (Tree_scheme.carriers xs.Pipeline.scheme)
    ~times:r ~length:bits ~original:doc suspect

let test_xml_identity_alignment () =
  let doc, _, _, marked = Lazy.force xml_prepared in
  let a = Survivable.align_trees ~original:doc ~suspect:marked in
  check int "every value node aligned" 0 a.Survivable.missing;
  check int "total = value nodes" (List.length (Wm_xml.Utree.value_nodes doc))
    a.Survivable.total

let test_xml_delete_subtrees () =
  let doc, xs, r, marked = Lazy.force xml_prepared in
  let attacked =
    Adversary.apply_tree (Prng.create 31)
      (Adversary.Delete_subtrees { fraction = 0.2 })
      marked
  in
  check bool "tree shrank" true (Wm_xml.Utree.size attacked < Wm_xml.Utree.size marked);
  let rv, _ = xml_detect doc xs r attacked in
  check bool "recovered after subtree deletion" true
    (Bitvec.equal message rv.Robust.message);
  check bool "significant" true
    (Survivable.match_pvalue ~expected:message rv < 0.01)

let test_xml_reorder_siblings () =
  let doc, xs, r, marked = Lazy.force xml_prepared in
  let attacked =
    Adversary.apply_tree (Prng.create 37) Adversary.Reorder_siblings marked
  in
  check int "same size" (Wm_xml.Utree.size marked) (Wm_xml.Utree.size attacked);
  let rv, _ = xml_detect doc xs r attacked in
  check bool "recovered after reordering" true
    (Bitvec.equal message rv.Robust.message)

(* --- determinism: same seed, same perturbed output -------------------- *)

let test_weight_attacks_deterministic () =
  let ws, scheme, _, marked = Lazy.force prepared in
  let qs = Local_scheme.query_system scheme in
  let active = Query_system.active qs in
  ignore ws;
  List.iter
    (fun a ->
      let run () =
        Adversary.apply (Prng.create 99) a ~active marked.Weighted.weights
      in
      check bool (Adversary.describe a) true (Weighted.equal (run ()) (run ())))
    [
      Adversary.Uniform_noise { amplitude = 2 };
      Adversary.Random_flips { count = 7; amplitude = 2 };
      Adversary.Rounding { multiple = 4 };
      Adversary.Constant_offset { delta = 3 };
    ]

let test_structural_attacks_deterministic () =
  let _, _, _, marked = Lazy.force prepared in
  List.iter
    (fun a ->
      let run () =
        Textio.to_string (Adversary.apply_structural (Prng.create 99) a marked)
      in
      check string (Adversary.describe_structural a) (run ()) (run ()))
    [
      Adversary.Delete_tuples { fraction = 0.3 };
      Adversary.Subset_sample { keep = 0.5 };
      Adversary.Insert_noise_tuples { count = 5; amplitude = 9 };
      Adversary.Shuffle_universe;
    ]

let test_tree_attacks_deterministic () =
  let _, _, _, marked = Lazy.force xml_prepared in
  List.iter
    (fun a ->
      let run () =
        Wm_xml.Xml.to_string
          (Wm_xml.Utree.to_xml (Adversary.apply_tree (Prng.create 99) a marked))
      in
      check string (Adversary.describe_tree a) (run ()) (run ()))
    [
      Adversary.Delete_subtrees { fraction = 0.3 };
      Adversary.Reorder_siblings;
      Adversary.Strip_values { fraction = 0.5 };
    ]

(* The attack suite itself is a pure function of its seed, and its CSV
   is pinned across commits: a change that moves any grid cell fails
   here. *)
let test_attack_suite_deterministic () =
  let ws = Random_struct.travel (Prng.create 5) ~travels:60 ~transports:200 in
  let run () =
    match
      Attack_suite.run ~seed:42 ~redundancies:[ 1; 3 ] ~message_bits:4 ws
        Random_struct.travel_query
    with
    | Ok r -> Attack_suite.to_csv r
    | Error e -> failwith e
  in
  let csv = run () in
  check string "identical CSV" csv (run ());
  check string "pinned CSV digest" "14bffaf8a06835cc3e17c5efd63a8cb8"
    (Digest.to_hex (Digest.string csv))

(* Robust.vote on a hand-built verdict: erased copies abstain instead of
   voting 0, so a bit whose only surviving copy reads 1 decodes to 1. *)
let test_vote_erasures_abstain () =
  let times = 3 and length = 2 in
  (* carrier t * length + i votes for bit i; only carrier 4 survives *)
  let erasure = Bitvec.create (times * length) in
  List.iter (fun j -> Bitvec.set erasure j true) [ 0; 1; 2; 3; 5 ];
  let decoded = Bitvec.create (times * length) in
  Bitvec.set decoded 4 true;
  let carriers =
    {
      Detector.decoded;
      erasure;
      strong = 1;
      weak = 0;
      silent = 0;
      erased = 5;
      confidence = 1.;
    }
  in
  let v = Robust.vote ~times ~length carriers in
  check (Alcotest.list bool) "lone survivor decides bit 0" [ true; false ]
    (Codec.to_bool_list v.Robust.message);
  check int "bit 1 lost every copy" 1 v.Robust.erased_bits;
  check bool "not all erased" false v.Robust.all_erased

(* The two abstention rules of the one repetition vote, on one hand-built
   read of 3 x 2 carriers: bit 0 has one strong 1 and two silent
   carriers, bit 1 one strong 0, one erasure and one silent carrier.
   {!Robust.vote} counts a silent carrier as the 0 it reads, so bit 0
   decodes 0; {!Fingerprint.decode} lets it abstain, so bit 0 decodes 1.
   Flipping either rule changes one of the two answers. *)
let test_vote_silent_carriers () =
  let times = 3 and length = 2 in
  let cells =
    Detector.
      [|
        Cell (true, `Strong); Cell (false, `Strong);
        Cell (false, `Silent); Erased;
        Cell (false, `Silent); Cell (false, `Silent);
      |]
  in
  let bits f = Bitvec.of_bools (Array.map f cells) in
  let count f = Array.fold_left (fun n c -> if f c then n + 1 else n) 0 cells in
  let verdict =
    {
      Detector.decoded = bits (function Detector.Cell (b, _) -> b | Erased -> false);
      erasure = bits (( = ) Detector.Erased);
      strong = count (function Detector.Cell (_, `Strong) -> true | _ -> false);
      weak = 0;
      silent = count (function Detector.Cell (_, `Silent) -> true | _ -> false);
      erased = count (( = ) Detector.Erased);
      confidence = 0.4;
    }
  in
  let v = Robust.vote ~times ~length verdict in
  check (Alcotest.list bool) "Robust.vote: silent carriers vote 0" [ false; false ]
    (Codec.to_bool_list v.Robust.message);
  let _, scheme, _, _ = Lazy.force prepared in
  match Fingerprint.of_local ~length ~times ~master:0x51 scheme with
  | Error e -> Alcotest.fail e
  | Ok fp ->
      check
        (Alcotest.array (Alcotest.option bool))
        "Fingerprint.decode: silent carriers abstain"
        [| Some true; Some false |]
        (Fingerprint.decode fp cells)

let suite =
  [
    ("delete 20%: survivable vs aligned", `Slow, test_delete20_survivable_recovers);
    ("subset sample 50%", `Slow, test_subset_sample_recovers);
    ("insert noise rows", `Slow, test_insert_noise_recovers);
    ("shuffle the numbering", `Slow, test_shuffle_recovers);
    ("erasures partition the carriers", `Slow, test_erasure_partition);
    ("identity alignment is total", `Slow, test_identity_alignment_is_total);
    ("total wipe-out is all erasures", `Slow, test_all_erased);
    ("zero-trials binomial pins at 1", `Quick, test_binomial_zero_trials);
    ("xml identity alignment", `Slow, test_xml_identity_alignment);
    ("xml subtree deletion", `Slow, test_xml_delete_subtrees);
    ("xml sibling reordering", `Slow, test_xml_reorder_siblings);
    ("weight attacks deterministic", `Slow, test_weight_attacks_deterministic);
    ("structural attacks deterministic", `Slow, test_structural_attacks_deterministic);
    ("tree attacks deterministic", `Slow, test_tree_attacks_deterministic);
    ("attack suite deterministic", `Slow, test_attack_suite_deterministic);
    ("repetition vote: erasures abstain", `Quick, test_vote_erasures_abstain);
    ("repetition vote: silent carriers", `Slow, test_vote_silent_carriers);
  ]
