(* The flat-memory core (DESIGN.md 5.12): columnar [Relation] and
   [Weighted] must be bit-identical to the frozen pre-flat
   representations ([Relation_ref], [Weighted_ref]) on random op
   sequences — including sequences long enough to cross the overlay
   compaction threshold — and the Structure universe/name fast paths
   must agree with the list/scan semantics they replaced.  Also pins
   the PR 8 semantic bugfix: [Weighted.local_distance] accounts for
   differing defaults off-support. *)

open Wm_util

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let rand_tuple g ar range = Tuple.of_list (List.init ar (fun _ -> Prng.int g range))

let rand_tuples g ~count ar range = List.init count (fun _ -> rand_tuple g ar range)

(* --- Relation == Relation_ref ---------------------------------------- *)

let same_relation (r : Relation.t) (rr : Relation_ref.t) =
  Relation.arity r = Relation_ref.arity rr
  && Relation.cardinal r = Relation_ref.cardinal rr
  && Relation.to_list r = Relation_ref.to_list rr

let prop_relation_ops =
  QCheck.Test.make ~count:120 ~name:"Relation op sequences == Relation_ref"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Prng.create (0xF1A7 + seed) in
      let ar = 1 + Prng.int g 3 in
      let range = 2 + Prng.int g 8 in
      (* sometimes start from a bulk build big enough that add/remove
         sequences cross the compaction threshold *)
      let init =
        if Prng.bernoulli g 0.5 then rand_tuples g ~count:(Prng.int g 300) ar range
        else []
      in
      let r = ref (Relation.of_list ar init)
      and rr = ref (Relation_ref.of_list ar init) in
      let ok = ref (same_relation !r !rr) in
      let steps = 1 + Prng.int g 150 in
      for _ = 1 to steps do
        (match Prng.int g 8 with
        | 0 | 1 | 2 ->
            let t = rand_tuple g ar range in
            r := Relation.add t !r;
            rr := Relation_ref.add t !rr
        | 3 | 4 ->
            let t = rand_tuple g ar range in
            r := Relation.remove t !r;
            rr := Relation_ref.remove t !rr
        | 5 ->
            let parity = Prng.int g 2 in
            let p t = Array.fold_left ( + ) 0 t mod 2 = parity in
            r := Relation.filter p !r;
            rr := Relation_ref.filter p !rr
        | 6 ->
            let m = 1 + Prng.int g range in
            let f x = x mod m in
            r := Relation.rename f !r;
            rr := Relation_ref.rename f !rr
        | _ ->
            let other = rand_tuples g ~count:(Prng.int g 40) ar range in
            r := Relation.union !r (Relation.of_list ar other);
            rr := Relation_ref.union !rr (Relation_ref.of_list ar other));
        ok := !ok && same_relation !r !rr
      done;
      (* membership probes, including wrong-arity tuples (false, no
         error — the Tuple.Set length-first compare contract) *)
      for _ = 1 to 30 do
        let t = rand_tuple g (1 + Prng.int g 4) range in
        ok := !ok && Relation.mem t !r = Relation_ref.mem t !rr
      done;
      ok := !ok && Relation.max_elt !r = Relation_ref.max_elt !rr;
      ok :=
        !ok
        && Relation.restrict (fun x -> x mod 2 = 0) !r |> Relation.to_list
           = (Relation_ref.restrict (fun x -> x mod 2 = 0) !rr
             |> Relation_ref.to_list);
      !ok)

let prop_relation_iter_flat =
  QCheck.Test.make ~count:80
    ~name:"Relation.iter_flat/iter/fold/equal agree with to_list"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Prng.create (0xF2B8 + seed) in
      let ar = 1 + Prng.int g 3 in
      let range = 2 + Prng.int g 9 in
      let r0 = Relation.of_list ar (rand_tuples g ~count:(Prng.int g 200) ar range) in
      (* push a few edits through so the overlay path is exercised too *)
      let r =
        List.fold_left
          (fun r t -> if Prng.bernoulli g 0.5 then Relation.add t r else Relation.remove t r)
          r0
          (rand_tuples g ~count:(Prng.int g 20) ar range)
      in
      let viaflat = ref [] in
      Relation.iter_flat
        (fun buf off -> viaflat := Array.sub buf off ar :: !viaflat)
        r;
      let viaflat = List.rev !viaflat in
      viaflat = Relation.to_list r
      && Relation.fold (fun t acc -> t :: acc) r [] = List.rev (Relation.to_list r)
      && Relation.equal r (Relation.flatten r)
      && Relation.equal r (Relation.of_list ar (Relation.to_list r))
      && Relation.cardinal (Relation.flatten r) = Relation.cardinal r)

(* --- Weighted == Weighted_ref ---------------------------------------- *)

let same_weighted (w : Weighted.t) (wr : Weighted_ref.t) =
  Weighted.arity w = Weighted_ref.arity wr
  && Weighted.default w = Weighted_ref.default wr
  && Weighted.bindings w = Weighted_ref.bindings wr

let prop_weighted_ops =
  QCheck.Test.make ~count:120 ~name:"Weighted op sequences == Weighted_ref"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Prng.create (0x3E16 + seed) in
      let ar = 1 + Prng.int g 2 in
      let range = 2 + Prng.int g 8 in
      let dflt = Prng.int g 5 in
      let init =
        List.init (Prng.int g 200) (fun _ -> (rand_tuple g ar range, Prng.int g 100))
      in
      let w = ref (Weighted.of_list ~default:dflt ar init)
      and wr = ref (Weighted_ref.of_list ~default:dflt ar init) in
      let ok = ref (same_weighted !w !wr) in
      let steps = 1 + Prng.int g 120 in
      for _ = 1 to steps do
        (match Prng.int g 4 with
        | 0 | 1 ->
            let t = rand_tuple g ar range and v = Prng.int g 100 in
            w := Weighted.set !w t v;
            wr := Weighted_ref.set !wr t v
        | 2 ->
            let t = rand_tuple g ar range and d = Prng.int g 5 - 2 in
            w := Weighted.add_delta !w t d;
            wr := Weighted_ref.add_delta !wr t d
        | _ ->
            let marks =
              List.init (Prng.int g 10) (fun _ ->
                  (rand_tuple g ar range, if Prng.bernoulli g 0.5 then 1 else -1))
            in
            w := Weighted.apply_marks !w marks;
            wr := Weighted_ref.apply_marks !wr marks);
        ok := !ok && same_weighted !w !wr
      done;
      for _ = 1 to 30 do
        let t = rand_tuple g ar range in
        ok := !ok && Weighted.get !w t = Weighted_ref.get !wr t
      done;
      (* a second assignment: distance/distortion/equal must agree *)
      let init2 =
        List.init (Prng.int g 60) (fun _ -> (rand_tuple g ar range, Prng.int g 100))
      in
      let d2 = Prng.int g 5 in
      let w2 = Weighted.of_list ~default:d2 ar init2
      and wr2 = Weighted_ref.of_list ~default:d2 ar init2 in
      ok := !ok && Weighted.local_distance !w w2 = Weighted_ref.local_distance !wr wr2;
      ok :=
        !ok
        && Weighted.is_local_distortion ~c:3 !w w2
           = Weighted_ref.is_local_distortion ~c:3 !wr wr2;
      ok := !ok && Weighted.equal !w w2 = Weighted_ref.equal !wr wr2;
      ok := !ok && Weighted.equal !w !w && Weighted_ref.equal !wr !wr;
      !ok)

(* --- apply_marks against a fold of add_delta --------------------------

   [apply_marks] shares the input's key array when every mark hits an
   existing row and merges otherwise; both branches must equal the
   one-delta-at-a-time fold, and neither may disturb the input. *)

let fold_marks w marks =
  List.fold_left (fun w (t, d) -> Weighted.add_delta w t d) w marks

let marks_match_fold w marks =
  let got = Weighted.apply_marks w marks and want = fold_marks w marks in
  Weighted.default got = Weighted.default want
  && Weighted.bindings got = Weighted.bindings want

let test_apply_marks_branches () =
  let t1 x = Tuple.singleton x and t2 x y = Tuple.of_list [ x; y ] in
  let w1 = Weighted.of_list ~default:3 1 (List.init 50 (fun i -> (t1 (2 * i), i))) in
  (* a live overlay: one overridden row, one overlay-only key *)
  let live = Weighted.set (Weighted.set w1 (t1 4) 99) (t1 7) 5 in
  let w2 =
    Weighted.of_list 2
      (List.concat_map (fun x -> List.init 6 (fun y -> (t2 x y, x + y))) [ 0; 2; 4 ])
  in
  List.iter
    (fun (what, w, marks) ->
      check bool what true (marks_match_fold w marks))
    [
      ("existing keys", w1, [ (t1 0, 1); (t1 10, -1); (t1 98, 1) ]);
      ("fresh keys", w1, [ (t1 0, 1); (t1 1, -1); (t1 99, 1); (t1 200, 1) ]);
      ("net-zero and duplicates", w1,
        [ (t1 10, 1); (t1 10, -1); (t1 12, 1); (t1 12, 1); (t1 12, -1) ]);
      ("fresh net-zero", w1, [ (t1 3, 1); (t1 3, -1); (t1 2, 1) ]);
      ("unsorted", w1, [ (t1 40, 1); (t1 2, -1); (t1 40, 1); (t1 0, 1) ]);
      ("live overlay, existing keys", live, [ (t1 4, 1); (t1 7, -1); (t1 8, 1) ]);
      ("live overlay, fresh keys", live, [ (t1 4, 1); (t1 9, -1) ]);
      ("arity 2, existing keys", w2, [ (t2 0 1, 1); (t2 4 5, -1) ]);
      ("arity 2, fresh keys", w2, [ (t2 1 1, 1); (t2 4 5, -1); (t2 9 0, 1) ]);
    ]

let test_apply_marks_persistent () =
  let t1 x = Tuple.singleton x in
  let base = Weighted.of_list 1 (List.init 40 (fun i -> (t1 i, 10 * i))) in
  let before = Weighted.bindings base in
  let m1 = [ (t1 3, 1); (t1 4, -1) ] and m2 = [ (t1 20, -1); (t1 21, 1) ] in
  let c1 = Weighted.apply_marks base m1 in
  let c2 = Weighted.apply_marks base m2 in
  let c3 = Weighted.apply_marks c1 [ (t1 3, 1) ] in
  check bool "base unchanged" true (Weighted.bindings base = before);
  check int "c1 unchanged by marking c3 from it" 31 (Weighted.get c1 (t1 3));
  check int "c3 stacked" 32 (Weighted.get c3 (t1 3));
  let net marks x =
    List.fold_left (fun n (t, d) -> if Tuple.equal t (t1 x) then n + d else n) 0 marks
  in
  for x = 0 to 39 do
    let v = 10 * x in
    check int "c1 only at its own marks" (v + net m1 x) (Weighted.get c1 (t1 x));
    check int "c2 only at its own marks" (v + net m2 x) (Weighted.get c2 (t1 x))
  done

(* Both [apply_marks] branches on the shapes the schemes mark: a dense
   full-universe singleton assignment ([Weighted.weigh], keys 0..n-1,
   rows resolved in O(1)) and a complete arity-2 assignment (binary
   search), against the fold in [Weighted_ref].  Marks on existing rows
   take the in-place branch; a singleton outside 0..n-1 (x >= nk or
   x < 0) is a fresh key and must take the merge. *)
let test_apply_marks_dense_ref () =
  let n = 40 in
  let f i = (7 * i) mod 13 in
  let dense = (Weighted.weigh f (Structure.create Schema.graph n)).Weighted.weights in
  let dense_ref = Weighted_ref.of_list 1 (List.init n (fun i -> (Tuple.singleton i, f i))) in
  let t1 = Tuple.singleton and t2 x y = Tuple.of_list [ x; y ] in
  let pairs = List.concat_map (fun x -> List.init 6 (fun y -> (t2 x y, x - y))) [ 0; 1; 2; 3; 4 ] in
  let full2 = Weighted.of_list 2 pairs and full2_ref = Weighted_ref.of_list 2 pairs in
  let case (what, w, wr, marks) =
    let got = Weighted.apply_marks w marks in
    check bool what true (same_weighted got (Weighted_ref.apply_marks wr marks));
    (* the input is untouched either way *)
    check bool (what ^ ": input unchanged") true (same_weighted w wr)
  in
  List.iter case
    [
      ("dense, existing rows", dense, dense_ref, [ (t1 0, 1); (t1 39, -1); (t1 17, 1); (t1 3, -1) ]);
      ("dense, repeated tuples", dense, dense_ref,
        [ (t1 5, 1); (t1 5, 1); (t1 6, -1); (t1 5, -1); (t1 6, 1); (t1 6, 1) ]);
      ("dense, x = nk", dense, dense_ref, [ (t1 2, 1); (t1 n, -1) ]);
      ("dense, x > nk", dense, dense_ref, [ (t1 (n + 7), 1); (t1 1, -1); (t1 (n + 7), 1) ]);
      ("dense, x < 0", dense, dense_ref, [ (t1 (-1), 1); (t1 0, -1); (t1 (-5), -1) ]);
      ("dense, both ends", dense, dense_ref, [ (t1 (-2), 1); (t1 (n + 1), -1); (t1 20, 1) ]);
      ("arity 2, existing rows", full2, full2_ref, [ (t2 4 5, 1); (t2 0 0, -1); (t2 4 5, 1); (t2 2 3, -1) ]);
      ("arity 2, fresh keys", full2, full2_ref, [ (t2 4 6, 1); (t2 0 0, -1); (t2 (-1) 2, 1) ]);
    ];
  (* random mark streams over the same two bases, mostly in range *)
  let g = Prng.create 0xDE25E in
  for _ = 1 to 200 do
    let m = Prng.int g 12 in
    let d () = if Prng.bool g then 1 else -1 in
    let lo = if Prng.int g 4 = 0 then -3 else 0 in
    let marks1 = List.init m (fun _ -> (t1 (lo + Prng.int g (n + 2)), d ())) in
    let marks2 = List.init m (fun _ -> (t2 (Prng.int g 5) (Prng.int g 7), d ())) in
    case ("dense, random", dense, dense_ref, marks1);
    case ("arity 2, random", full2, full2_ref, marks2)
  done

let prop_apply_marks_fold =
  QCheck.Test.make ~count:150 ~name:"apply_marks == fold of add_delta"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Prng.create (0xA9915 + seed) in
      let ar = 1 + Prng.int g 2 in
      let range = 2 + Prng.int g 8 in
      let init =
        List.init (1 + Prng.int g 120) (fun _ -> (rand_tuple g ar range, Prng.int g 100))
      in
      let w = Weighted.of_list ~default:(Prng.int g 5) ar init in
      let w =
        if Prng.bernoulli g 0.5 then w
        else Weighted.set w (rand_tuple g ar range) (Prng.int g 100)
      in
      (* half the time only existing keys, the shared-key branch *)
      let keys = Array.of_list (Weighted.support w) in
      let existing = Prng.bernoulli g 0.5 in
      let marks =
        List.init (Prng.int g 12) (fun _ ->
            ( (if existing then keys.(Prng.int g (Array.length keys))
               else rand_tuple g ar range),
              Prng.int g 5 - 2 ))
      in
      let before = Weighted.bindings w in
      marks_match_fold w marks && Weighted.bindings w = before)

(* --- the local_distance default-delta bugfix ------------------------- *)

let test_local_distance_defaults () =
  (* equal supports, different defaults: the pre-PR 8 fold over the
     union of supports reported 0 here *)
  let t = Tuple.singleton 0 in
  let a = Weighted.set (Weighted.create ~default:0 1) t 5 in
  let b = Weighted.set (Weighted.create ~default:5 1) t 5 in
  check int "off-support default delta counts" 5 (Weighted.local_distance a b);
  check bool "not a 4-local distortion" false (Weighted.is_local_distortion ~c:4 a b);
  check bool "is a 5-local distortion" true (Weighted.is_local_distortion ~c:5 a b);
  (* empty supports entirely *)
  check int "empty assignments, defaults 2 vs 7" 5
    (Weighted.local_distance (Weighted.create ~default:2 1) (Weighted.create ~default:7 1));
  (* one-sided support still measured against the other default *)
  let c = Weighted.set (Weighted.create ~default:0 1) t 9 in
  check int "one-sided support vs default" 9
    (Weighted.local_distance c (Weighted.create ~default:0 1));
  (* equal keeps its guard: distance 0 and equal defaults *)
  check bool "equal same defaults" true
    (Weighted.equal (Weighted.create ~default:3 1) (Weighted.create ~default:3 1));
  check bool "different defaults never equal" false
    (Weighted.equal (Weighted.create ~default:3 1) (Weighted.create ~default:4 1));
  check bool "explicit default-valued entry stays an entry" true
    (Weighted.bindings (Weighted.set (Weighted.create 1) t 0) = [ (t, 0) ])

(* --- Structure universe / name fast paths ---------------------------- *)

let test_universe_iteration () =
  let schema = Schema.make ~weight_arity:1 [ { Schema.name = "E"; arity = 2 } ] in
  let g = Structure.create schema 7 in
  let via_iter = ref [] in
  Structure.iter_universe (fun x -> via_iter := x :: !via_iter) g;
  check (Alcotest.list int) "iter_universe ascending" (Structure.universe g)
    (List.rev !via_iter);
  check (Alcotest.list int) "fold_universe ascending"
    (Structure.universe g)
    (List.rev (Structure.fold_universe (fun x acc -> x :: acc) g []));
  let empty = Structure.create schema 0 in
  check int "empty fold" 0 (Structure.fold_universe (fun _ acc -> acc + 1) empty 0)

(* The one name lookup, [Structure.name_index]. *)
let test_elt_of_name () =
  let schema = Schema.make ~weight_arity:1 [ { Schema.name = "E"; arity = 2 } ] in
  let find = Structure.name_index in
  let g = Structure.create schema 4 in
  check (Alcotest.option int) "no such name without names" None (find g "a");
  let g = Structure.with_names g [| "a"; "b"; "c"; "d" |] in
  check (Alcotest.option int) "first name" (Some 0) (find g "a");
  check (Alcotest.option int) "middle name" (Some 1) (find g "b");
  check (Alcotest.option int) "last name" (Some 3) (find g "d");
  check (Alcotest.option int) "unknown name" None (find g "zz");
  (* the lookup follows edits: appended elements are findable, removed not *)
  let g1, _ = Structure.apply_edit g (Structure.Add_element (Some "e")) in
  check (Alcotest.option int) "appended name" (Some 4) (find g1 "e");
  let g2, _ = Structure.apply_edit g1 (Structure.Remove_element 4) in
  check (Alcotest.option int) "removed name" None (find g2 "e");
  let g3 = Structure.with_default_names (Structure.create schema 3) in
  check (Alcotest.option int) "default names indexed" (Some 2) (find g3 "2");
  check (Alcotest.option int) "implicit default names" (Some 2)
    (find (Structure.create schema 3) "2");
  (* a duplicated name is ambiguous and resolves to nothing *)
  let dup = Structure.with_names g [| "a"; "b"; "a"; "d" |] in
  check (Alcotest.option int) "duplicated name" None (find dup "a");
  check (Alcotest.option int) "unique name beside a duplicate" (Some 1) (find dup "b")

(* --- Textio round-trips over the flat representations ---------------- *)

let prop_textio_roundtrip =
  QCheck.Test.make ~count:40 ~name:"Textio round-trip on flat reps"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Prng.create (0x7E10 + seed) in
      let n = 3 + Prng.int g 12 in
      let ws =
        Wm_workload.Random_struct.graph g ~n ~max_degree:4 ~edges:(1 + Prng.int g (2 * n))
      in
      let ws =
        if Prng.bernoulli g 0.5 then
          { ws with Weighted.graph = Structure.with_default_names ws.Weighted.graph }
        else ws
      in
      let ws' = Textio.of_string (Textio.to_string ws) in
      Structure.equal ws.Weighted.graph ws'.Weighted.graph
      && Weighted.equal ws.Weighted.weights ws'.Weighted.weights
      && Textio.to_string ws = Textio.to_string ws')

let test_textio_bulk_errors () =
  (* the bulk loader must report the same errors, same lines, same
     precedence (range, then symbol, then arity) as the per-line fold *)
  let base = "schema E/2\nweight_arity 1\nsize 3\n" in
  let err text =
    match Textio.of_string_result text with
    | Ok _ -> Alcotest.fail "expected parse error"
    | Error e -> Textio.error_to_string e
  in
  check Alcotest.string "range error"
    "line 4: bad tuple for E: Structure.add_tuple: element out of range"
    (err (base ^ "rel E 0 7\n"));
  check Alcotest.string "unknown relation" "line 4: unknown relation \"F\""
    (err (base ^ "rel F 0 1\n"));
  check Alcotest.string "arity error"
    "line 4: bad tuple for E: Relation.add: arity mismatch"
    (err (base ^ "rel E 0 1 2\n"));
  check Alcotest.string "range beats symbol beats arity"
    "line 4: bad tuple for F: Structure.add_tuple: element out of range"
    (err (base ^ "rel F 9\n"));
  check Alcotest.string "first bad line wins"
    "line 4: unknown relation \"F\""
    (err (base ^ "rel F 0 1\nrel E 0 7\n"));
  check Alcotest.string "weight arity error"
    "line 4: bad weight: Weighted.set: arity mismatch"
    (err (base ^ "weight 0 1 5\n"));
  (* duplicate rel lines dedupe exactly like repeated add *)
  match Textio.of_string_result (base ^ "rel E 0 1\nrel E 0 1\nrel E 1 2\n") with
  | Error e -> Alcotest.fail (Textio.error_to_string e)
  | Ok ws ->
      check int "dedup cardinal" 2
        (Relation.cardinal (Structure.relation ws.Weighted.graph "E"))

(* --- marks and decoded bits at scale == the pre-flat path -------------- *)

(* The equivalence half of the retired E26 experiment at a test size: a
   ring instance's weights bulk-loaded into both representations, one
   orientation mark per consecutive element pair, then a decode that
   reads four weights per pair.  Marked bindings and decoded bits must
   agree, and the bits must be the message. *)
let test_marks_and_bits_match_ref () =
  let n = 4000 in
  let g = Prng.create (0xE26 + n) in
  let ws = Wm_workload.Random_struct.regular_rings g ~n in
  let bindings = Weighted.bindings ws.Weighted.weights in
  let flat_w = Weighted.of_list 1 bindings in
  let ref_w =
    List.fold_left
      (fun w (tu, v) -> Weighted_ref.set w tu v)
      (Weighted_ref.create 1) bindings
  in
  let pairs =
    List.init (n / 2) (fun i ->
        {
          Wm_watermark.Pairing.fst = Tuple.singleton (2 * i);
          snd = Tuple.singleton ((2 * i) + 1);
        })
  in
  let message = Codec.random g (n / 2) in
  let marks = Wm_watermark.Pairing.orientation_marks pairs message in
  let flat_m = Weighted.apply_marks flat_w marks in
  let ref_m = Weighted_ref.apply_marks ref_w marks in
  check bool "marked bindings" true
    (Weighted.bindings flat_m = Weighted_ref.bindings ref_m);
  let decode ~marked ~original =
    let bits = Bitvec.create (n / 2) in
    List.iteri
      (fun i { Wm_watermark.Pairing.fst; snd } ->
        let d tu = marked tu - original tu in
        Bitvec.set bits i (d fst - d snd > 0))
      pairs;
    bits
  in
  let flat_bits = decode ~marked:(Weighted.get flat_m) ~original:(Weighted.get flat_w) in
  let ref_bits =
    decode ~marked:(Weighted_ref.get ref_m) ~original:(Weighted_ref.get ref_w)
  in
  check bool "decoded bits" true (Bitvec.equal flat_bits ref_bits);
  check bool "message decoded" true (Bitvec.equal flat_bits message)

(* --- range read of the rows headed by one element ---------------------- *)

(* [iter_headed x] against [iter_flat] filtered on the first cell: a bulk
   build (data rows) edited by an add/remove script, so the overlay holds
   adds and dels on both sides of the data rows — scripts long enough to
   cross the compaction threshold too — at arity 1 to 3, for every [x]
   in the universe and two outside it, and on the empty relation. *)
let prop_iter_headed =
  QCheck.Test.make ~count:150 ~name:"Relation.iter_headed == iter_flat filtered"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Prng.create (0x4EAD + seed) in
      let ar = 1 + Prng.int g 3 in
      let range = 1 + Prng.int g 8 in
      let r0 = Relation.of_list ar (rand_tuples g ~count:(Prng.int g 120) ar range) in
      let r =
        List.fold_left
          (fun r t -> if Prng.bernoulli g 0.5 then Relation.add t r else Relation.remove t r)
          r0
          (rand_tuples g ~count:(Prng.int g (if Prng.bool g then 40 else 200)) ar range)
      in
      let rows f =
        let acc = ref [] in
        f (fun buf off -> acc := Array.sub buf off ar :: !acc);
        List.rev !acc
      in
      List.for_all
        (fun r ->
          List.for_all
            (fun x ->
              rows (fun f -> Relation.iter_headed x f r)
              = rows (fun f ->
                    Relation.iter_flat (fun buf off -> if buf.(off) = x then f buf off) r))
            (List.init (range + 2) (fun x -> x - 1)))
        [ r; r0; Relation.empty ar ])

(* --- the orientation mark iterator against a fold of add_delta -------

   [Carriers.mark] drives [Pairing.iter_orientation_marks] straight into
   [Weighted.apply_mark_iter]; the result must equal the orientation
   rule (bit i: +s on fst, -s on snd) folded through [add_delta] one
   mark at a time, on weights with a live overlay, with endpoints that
   have no row (the merge path), for an empty message and a message
   that stops short of the pairs, and the input must stay untouched.
   Arity mismatches and over-long messages are rejected. *)

module Pairing = Wm_watermark.Pairing

let orient_fold w pairs message =
  let w = ref w in
  List.iteri
    (fun i { Pairing.fst; snd } ->
      if i < Bitvec.length message then begin
        let s = if Bitvec.get message i then 1 else -1 in
        w := Weighted.add_delta (Weighted.add_delta !w fst s) snd (-s)
      end)
    pairs;
  !w

let test_mark_iter_fold () =
  let t1 = Tuple.singleton in
  let pair a b = { Pairing.fst = t1 a; snd = t1 b } in
  let base = Weighted.of_list ~default:2 1 (List.init 80 (fun i -> (t1 (2 * i), i))) in
  (* overlay: an overridden row (6) and an overlay-only key (9) *)
  let live = Weighted.set (Weighted.set base (t1 6) 50) (t1 9) 7 in
  let existing = List.init 30 (fun i -> pair (4 * i) ((4 * i) + 2)) in
  let via_overlay = pair 9 6 :: pair 6 8 :: existing in
  (* 1, 161 and -3 have no row: the merge path *)
  let fresh = pair 0 1 :: pair 161 2 :: existing @ [ pair (-3) 4 ] in
  let g = Prng.create 0x17E4 in
  let case what w pairs len =
    let message = Codec.random g len in
    let before = Weighted.bindings w in
    let got =
      Weighted.apply_mark_iter w (Pairing.iter_orientation_marks pairs message)
    and want = orient_fold w pairs message in
    let listed = Weighted.apply_marks w (Pairing.orientation_marks pairs message) in
    let same a b =
      Weighted.default a = Weighted.default b
      && Weighted.bindings a = Weighted.bindings b
    in
    check bool (what ^ ": == fold") true (same got want);
    check bool (what ^ ": list view") true (same listed want);
    check bool (what ^ ": input unchanged") true (Weighted.bindings w = before)
  in
  List.iter
    (fun w ->
      List.iter
        (fun (what, pairs) ->
          List.iter
            (fun len -> case (Printf.sprintf "%s, %d bits" what len) w pairs len)
            [ 1; 5; List.length pairs ])
        [ ("existing rows", existing); ("overlay rows", via_overlay); ("fresh keys", fresh) ])
    [ base; live ];
  (* no mark at all: the input itself, overlay and all *)
  let empty = Bitvec.create 0 in
  check bool "empty message returns the input" true
    (Weighted.apply_mark_iter live (Pairing.iter_orientation_marks existing empty) == live);
  check bool "empty mark list returns the input" true (Weighted.apply_marks live [] == live);
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  let bad = { Pairing.fst = Tuple.of_list [ 0; 2 ]; snd = t1 4 } in
  List.iter
    (fun (what, pairs) ->
      check bool ("arity mismatch: " ^ what) true
        (raises (fun () ->
             Weighted.apply_mark_iter live
               (Pairing.iter_orientation_marks pairs
                  (Codec.random g (List.length pairs))))))
    [
      ("first mark", bad :: existing); ("after in-place marks", existing @ [ bad ]);
      ("after a fresh key", pair 1 0 :: existing @ [ bad ]);
    ];
  let called = ref false in
  check bool "message longer than the pairs" true
    (raises (fun () ->
         Pairing.iter_orientation_marks existing
           (Codec.random g (List.length existing + 1))
           (fun _ _ -> called := true)));
  check bool "rejected before any mark" false !called

(* --- the row toolkit against list references --------------------------

   [Tuple.compare_at] against a list comparison of the two sub-arrays,
   [Tuple.find_row] against a linear scan (insertion points included),
   and [Tuple.sort_rows] against [List.sort_uniq] with a last-wins fold
   for the reported rows: arity 1-3, no rows, all rows equal, ascending
   (distinct or not), descending, duplicates at both ends, and buffers
   longer than their rows. *)

let prop_row_toolkit =
  QCheck.Test.make ~count:300 ~name:"Tuple row toolkit == list references"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Prng.create (0x70C + seed) in
      let len = 1 + Prng.int g 3 and range = 1 + Prng.int g 4 in
      let k = if Prng.int g 8 = 0 then 0 else Prng.int g 30 in
      let drawn = rand_tuples g ~count:k len range in
      let ascending = List.sort Tuple.compare drawn in
      let uniq = List.sort_uniq Tuple.compare drawn in
      let rows =
        match Prng.int g 6 with
        | 0 -> ascending
        | 1 -> uniq
        | 2 -> List.rev ascending
        | 3 -> List.map (fun _ -> List.hd drawn) drawn
        | 4 -> (
            match (uniq, List.rev uniq) with
            | lo :: _, hi :: _ -> (lo :: lo :: drawn) @ [ hi; hi ]
            | _ -> drawn)
        | _ -> drawn
      in
      let k = List.length rows and distinct = List.sort_uniq Tuple.compare rows in
      let slack = Prng.int g 3 * len in
      let buf = Array.make ((k * len) + slack) (-1) in
      List.iteri (fun i t -> Array.blit t 0 buf (i * len) len) rows;
      let reported = ref [] in
      let n = Tuple.sort_rows len buf k (fun i r -> reported := (i, r) :: !reported) in
      let kept = List.init n (fun i -> Array.sub buf (i * len) len) in
      let last_of t =
        fst
          (List.fold_left
             (fun (last, j) u -> ((if Tuple.equal t u then j else last), j + 1))
             (-1, 0) rows)
      in
      let sorted_ok =
        kept = distinct
        && List.rev !reported = List.mapi (fun i t -> (i, last_of t)) distinct
      in
      (* the index of [t], or -p-1 with p the number of rows below it *)
      let scan t =
        let below =
          List.length (List.filter (fun u -> Tuple.compare u t < 0) distinct)
        in
        if List.exists (Tuple.equal t) distinct then below else -below - 1
      in
      let probes = distinct @ rand_tuples g ~count:10 len range in
      let search_ok =
        List.for_all (fun t -> Tuple.find_row len buf n t = scan t) probes
      in
      let sign c = Int.compare c 0 in
      let compare_ok =
        List.for_all
          (fun _ ->
            let a = rand_tuple g (1 + Prng.int g 6) range
            and b = rand_tuple g (1 + Prng.int g 6) range in
            let l = Prng.int g (1 + min (Array.length a) (Array.length b)) in
            let i = Prng.int g (Array.length a - l + 1)
            and j = Prng.int g (Array.length b - l + 1) in
            let sa = Array.sub a i l and sb = Array.sub b j l in
            let expect = sign (compare (Array.to_list sa) (Array.to_list sb)) in
            sign (Tuple.compare_at l a i b j) = expect
            && sign (Tuple.compare sa sb) = expect
            && (match Tuple.compare_at (l + 1) a (Array.length a - l) b 0 with
               | _ -> false
               | exception Invalid_argument _ -> true))
          (List.init 10 Fun.id)
      in
      sorted_ok && search_ok && compare_ok)

(* [Weighted.restrict]: the input itself when no entry drops, otherwise
   the fold of [set] over the surviving bindings (compacted and
   overlay-carrying inputs, arity 1 and 2). *)
let test_weighted_restrict () =
  let g = Prng.create 0x4E57 in
  for _ = 1 to 200 do
    let ar = 1 + Prng.int g 2 and range = 2 + Prng.int g 8 in
    let default = Prng.int g 5 in
    let entries n = List.init n (fun _ -> (rand_tuple g ar range, Prng.int g 100)) in
    let w = Weighted.of_list ~default ar (entries (Prng.int g 40)) in
    let w =
      if Prng.bool g then List.fold_left (fun w (t, v) -> Weighted.set w t v) w (entries 5)
      else w
    in
    let cut = Prng.int g (range + 1) in
    let keep x = x < cut in
    let r = Weighted.restrict keep w in
    let folded =
      List.fold_left
        (fun acc (t, v) -> if Array.for_all keep t then Weighted.set acc t v else acc)
        (Weighted.create ~default ar) (Weighted.bindings w)
    in
    check bool "== fold of set" true
      (Weighted.bindings r = Weighted.bindings folded && Weighted.default r = default);
    if List.for_all (fun (t, _) -> Array.for_all keep t) (Weighted.bindings w) then
      check bool "nothing dropped: the input itself" true (r == w);
    check bool "keep all: the input itself" true (Weighted.restrict (fun _ -> true) w == w)
  done

let suite =
  [
    QCheck_alcotest.to_alcotest prop_relation_ops;
    QCheck_alcotest.to_alcotest prop_relation_iter_flat;
    QCheck_alcotest.to_alcotest prop_weighted_ops;
    Alcotest.test_case "apply_marks branches" `Quick test_apply_marks_branches;
    Alcotest.test_case "apply_marks persistence" `Quick test_apply_marks_persistent;
    QCheck_alcotest.to_alcotest prop_apply_marks_fold;
    Alcotest.test_case "local_distance default deltas" `Quick
      test_local_distance_defaults;
    Alcotest.test_case "universe iteration" `Quick test_universe_iteration;
    Alcotest.test_case "elt_of_name" `Quick test_elt_of_name;
    QCheck_alcotest.to_alcotest prop_textio_roundtrip;
    Alcotest.test_case "textio bulk-load errors" `Quick test_textio_bulk_errors;
    Alcotest.test_case "marks and decoded bits == pre-flat (rings)" `Quick
      test_marks_and_bits_match_ref;
    Alcotest.test_case "apply_marks dense universe == Weighted_ref" `Quick
      test_apply_marks_dense_ref;
    QCheck_alcotest.to_alcotest prop_iter_headed;
    Alcotest.test_case "orientation mark iterator == fold of add_delta" `Quick
      test_mark_iter_fold;

    QCheck_alcotest.to_alcotest prop_row_toolkit;
    Alcotest.test_case "Weighted.restrict == fold of set" `Quick test_weighted_restrict;
  ]
