(* Unit and property tests for Wm_util: PRNG determinism, bit vectors,
   message codec, statistics, table rendering. *)

open Wm_util

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let int64 = Alcotest.int64
let float = Alcotest.float
let list = Alcotest.list
let array = Alcotest.array
let option = Alcotest.option
let _ = (int, bool, string, int64, float, (fun x -> list x), (fun x -> array x), (fun x -> option x))

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_split_independent () =
  let g = Prng.create 7 in
  let child = Prng.split g in
  (* The child stream must differ from the parent's continuation. *)
  let xs = List.init 8 (fun _ -> Prng.bits64 g) in
  let ys = List.init 8 (fun _ -> Prng.bits64 child) in
  check bool "streams differ" true (xs <> ys)

(* Known answers: the stream every seeded result in the project replays
   (marks, codewords, attack cells, generated workloads).  Any change of
   the generator's representation must keep them. *)
let prng_kat =
  [
    ( 0,
      [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL;
        0xF88BB8A8724C81ECL; 0x1B39896A51A8749BL; 0x53CB9F0C747EA2EAL;
        0x2C829ABE1F4532E1L; 0xC584133AC916AB3CL ] );
    ( 42,
      [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L;
        0x581CE1FF0E4AE394L; 0x09BC585A244823F2L; 0xDE4431FA3C80DB06L;
        0x37E9671C45376D5DL; 0xCCF635EE9E9E2FA4L ] );
    ( max_int,
      [ 0x43DF0885536978A6L; 0x101018CC4A4CADFDL; 0xF7123DB96BB11521L;
        0x6EB32F7EE5175C16L; 0xB954958D2F637748L; 0xE07958AFD6D62EB7L;
        0xBCE9AAA54AFDB47EL; 0x07EEA021A2857177L ] );
    ( -1,
      [ 0xE4D971771B652C20L; 0xE99FF867DBF682C9L; 0x382FF84CB27281E9L;
        0x6D1DB36CCBA982D2L; 0xB4A0472E578069AEL; 0xD31DADBDA438BB33L;
        0xF14F2CF802083FA5L; 0x405DA438A39E8064L ] );
  ]

let test_prng_known_answers () =
  List.iter
    (fun (seed, want) ->
      let g = Prng.create seed in
      List.iteri
        (fun i w ->
          check int64 (Printf.sprintf "create %d, draw %d" seed i) w
            (Prng.bits64 g))
        want)
    prng_kat;
  let g = Prng.create 7 in
  let child = Prng.split g in
  List.iteri
    (fun i w -> check int64 (Printf.sprintf "split child, draw %d" i) w
        (Prng.bits64 child))
    [ 0xF33DC6BD55FFA86BL; 0xE1332A7DB412C5A9L; 0xE6AF094F768935B3L;
      0x0FDF2D08F5C29727L ];
  check int64 "parent after split" 0x044C3CD7F43C661CL (Prng.bits64 g);
  let copied = Prng.copy (Prng.create 42) in
  check int64 "copy" 0xBDD732262FEB6E95L (Prng.bits64 copied);
  check int "int 1000" 853 (Prng.int (Prng.create 42) 1000);
  check bool "bool" true (Prng.bool (Prng.create 42));
  check (float 0.) "float 1.0" 0x1.7bae644c5fd6dp-1
    (Prng.float (Prng.create 42) 1.0);
  let g = Prng.create 42 in
  check string "16 bools" "1100001010100100"
    (String.init 16 (fun _ -> if Prng.bool g then '1' else '0'))

let test_prng_int_range () =
  let g = Prng.create 1 in
  for _ = 1 to 1000 do
    let x = Prng.int g 17 in
    check bool "in range" true (x >= 0 && x < 17)
  done

let test_prng_bernoulli_bias () =
  let g = Prng.create 3 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli g 0.25 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  check bool "close to 0.25" true (abs_float (p -. 0.25) < 0.02)

let test_prng_shuffle_permutes () =
  let g = Prng.create 5 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (array int) "same multiset" (Array.init 50 Fun.id) sorted

let test_prng_sample_distinct () =
  let g = Prng.create 9 in
  let s = Prng.sample g 10 (Array.init 30 Fun.id) in
  check int "ten drawn" 10 (Array.length s);
  let uniq = List.sort_uniq compare (Array.to_list s) in
  check int "distinct" 10 (List.length uniq)

let test_bitvec_get_set () =
  let v = Bitvec.create 70 in
  Bitvec.set v 0 true;
  Bitvec.set v 63 true;
  Bitvec.set v 69 true;
  check bool "bit 0" true (Bitvec.get v 0);
  check bool "bit 1" false (Bitvec.get v 1);
  check bool "bit 63" true (Bitvec.get v 63);
  check bool "bit 69" true (Bitvec.get v 69);
  Bitvec.set v 63 false;
  check bool "cleared" false (Bitvec.get v 63);
  check int "popcount" 2 (Bitvec.popcount v)

let test_bitvec_ops () =
  let a = Bitvec.of_list 10 [ 1; 3; 5 ] in
  let b = Bitvec.of_list 10 [ 3; 5; 7 ] in
  check (list int) "union" [ 1; 3; 5; 7 ] (Bitvec.to_list (Bitvec.union a b));
  check (list int) "inter" [ 3; 5 ] (Bitvec.to_list (Bitvec.inter a b));
  check (list int) "diff" [ 1 ] (Bitvec.to_list (Bitvec.diff a b));
  check bool "subset no" false (Bitvec.is_subset a b);
  check bool "subset yes" true
    (Bitvec.is_subset (Bitvec.inter a b) a)

let test_bitvec_trailing_bits_ignored () =
  (* Bits past [len] in the final byte must not affect ops or popcount. *)
  let a = Bitvec.of_list 3 [ 0; 1; 2 ] in
  let c = Bitvec.diff a (Bitvec.create 3) in
  check int "popcount after diff" 3 (Bitvec.popcount c);
  check bool "equal" true (Bitvec.equal a c)

let test_codec_int_roundtrip () =
  List.iter
    (fun n ->
      check int "roundtrip" n (Codec.to_int (Codec.of_int ~bits:16 n)))
    [ 0; 1; 2; 255; 256; 65535 ]

let test_codec_string_roundtrip () =
  List.iter
    (fun s -> check string "roundtrip" s (Codec.to_string (Codec.of_string s)))
    [ ""; "a"; "server-17"; "\x00\xff" ]

(* Every carrier of [r] votes its bit; none abstains. *)
let vote_all ~times r =
  Codec.vote ~times ~length:(Bitvec.length r / times) (fun j ->
      Some (Bitvec.get r j))

let test_codec_majority () =
  let m = Codec.of_bool_list [ true; false; true ] in
  let r = Codec.repeat ~times:3 m in
  (* Corrupt one copy of each bit; majority must still decode. *)
  Bitvec.set r 0 false;
  Bitvec.set r 4 true;
  Bitvec.set r 8 false;
  check (array (option bool)) "decoded"
    [| Some true; Some false; Some true |]
    (vote_all ~times:3 r)

let test_codec_hamming () =
  let a = Codec.of_bool_list [ true; true; false; false ] in
  let b = Codec.of_bool_list [ true; false; true; false ] in
  check int "hamming" 2 (Codec.hamming a b)

let test_stats_basic () =
  let a = [| 1.; 2.; 3.; 4. |] in
  check (float 1e-9) "mean" 2.5 (Stats.mean a);
  check (float 1e-9) "variance" 1.25 (Stats.variance a);
  let lo, hi = Stats.min_max a in
  check (float 1e-9) "min" 1. lo;
  check (float 1e-9) "max" 4. hi;
  check (float 1e-9) "median-ish" 2. (Stats.quantile 0.5 a)

let test_stats_rate () =
  check (float 1e-9) "rate" 0.5 (Stats.rate 1 2);
  check (float 1e-9) "rate zero den" 0. (Stats.rate 1 0)

let raises_invalid name f =
  check bool name true
    (match f () with exception Invalid_argument _ -> true | _ -> false)

let test_stats_imax () =
  check int "empty" 0 (Stats.imax [||]);
  check int "mixed" 7 (Stats.imax [| 3; 7; 1 |]);
  check int "singleton" 4 (Stats.imax [| 4 |]);
  (* the old fold-from-0 clamped this to 0 *)
  check int "all negative" (-2) (Stats.imax [| -5; -2; -9 |])

let test_stats_histogram_guard () =
  raises_invalid "bins 0" (fun () -> Stats.histogram ~bins:0 [| 1.0 |]);
  raises_invalid "bins negative" (fun () -> Stats.histogram ~bins:(-3) [| 1.0 |]);
  check int "valid still works" 2 (Array.length (Stats.histogram ~bins:2 [| 0.; 1. |]))

let test_codec_validation () =
  raises_invalid "of_int bits > 62" (fun () -> Codec.of_int ~bits:63 1);
  raises_invalid "of_int bits < 0" (fun () -> Codec.of_int ~bits:(-1) 0);
  raises_invalid "of_int overflow" (fun () -> Codec.of_int ~bits:4 16);
  raises_invalid "of_int negative" (fun () -> Codec.of_int ~bits:4 (-1));
  raises_invalid "to_int too long" (fun () -> Codec.to_int (Bitvec.create 63));
  raises_invalid "to_string ragged" (fun () -> Codec.to_string (Bitvec.create 3));
  raises_invalid "hamming mismatch" (fun () ->
      Codec.hamming (Bitvec.create 3) (Bitvec.create 4));
  raises_invalid "vote times 0" (fun () ->
      Codec.vote ~times:0 ~length:4 (fun _ -> None));
  raises_invalid "vote negative length" (fun () ->
      Codec.vote ~times:3 ~length:(-1) (fun _ -> None));
  raises_invalid "redundancy length 0" (fun () ->
      Codec.redundancy ~capacity:10 ~length:0)

let test_codec_even_tie () =
  (* Two copies of [true], one flipped: the 1-1 tie decides nothing. *)
  let r = Codec.repeat ~times:2 (Codec.of_bool_list [ true ]) in
  Bitvec.set r 1 false;
  check (array (option bool)) "tie is None" [| None |] (vote_all ~times:2 r)

let test_texttab_render () =
  let t = Texttab.create [ "name"; "n" ] in
  Texttab.add_row t [ "alpha"; "1" ];
  Texttab.addf t "beta|23";
  let s = Texttab.render t in
  check bool "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  check bool "aligned right" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "beta   23") lines)

(* Property tests *)

let prop_codec_int =
  QCheck.Test.make ~count:200 ~name:"codec int roundtrip"
    QCheck.(int_bound ((1 lsl 20) - 1))
    (fun n -> Codec.to_int (Codec.of_int ~bits:20 n) = n)

let prop_bitvec_of_to_list =
  QCheck.Test.make ~count:200 ~name:"bitvec of_list/to_list"
    QCheck.(list (int_bound 63))
    (fun ixs ->
      let ixs = List.sort_uniq compare ixs in
      Bitvec.to_list (Bitvec.of_list 64 ixs) = ixs)

let prop_union_popcount =
  QCheck.Test.make ~count:200 ~name:"inclusion-exclusion on popcount"
    QCheck.(pair (list (int_bound 63)) (list (int_bound 63)))
    (fun (xs, ys) ->
      let a = Bitvec.of_list 64 xs and b = Bitvec.of_list 64 ys in
      Bitvec.popcount (Bitvec.union a b) + Bitvec.popcount (Bitvec.inter a b)
      = Bitvec.popcount a + Bitvec.popcount b)

let prop_repeat_decode =
  QCheck.Test.make ~count:200 ~name:"repeat then vote is identity"
    QCheck.(pair (list bool) (int_range 1 7))
    (fun (bits, times) ->
      QCheck.assume (bits <> []);
      let m = Codec.of_bool_list bits in
      vote_all ~times (Codec.repeat ~times m)
      = Array.of_list (List.map Option.some bits))

(* [Codec.vote] against a plain count.  Carrier [j] follows the
   pattern cyclically (0 abstains, 1 votes true, 2 votes false), and
   every carrier of a bit in [silent] abstains. *)
let prop_vote_spec =
  QCheck.Test.make ~count:300 ~name:"vote == per-bit count spec"
    QCheck.(
      quad (int_range 1 6) (int_range 0 6) (list (int_bound 2)) (int_bound 63))
    (fun (times, length, pattern, silent) ->
      let n = times * length in
      let pattern = Array.of_list pattern in
      let carrier j =
        if Array.length pattern = 0 || (silent lsr (j mod length)) land 1 = 1
        then None
        else
          match pattern.(j mod Array.length pattern) with
          | 0 -> None
          | 1 -> Some true
          | _ -> Some false
      in
      let spec i =
        let ones = ref 0 and zeros = ref 0 in
        for j = 0 to n - 1 do
          if j mod length = i then
            match carrier j with
            | Some true -> incr ones
            | Some false -> incr zeros
            | None -> ()
        done;
        if !ones > !zeros then Some true
        else if !zeros > !ones then Some false
        else None
      in
      Codec.vote ~times ~length carrier = Array.init length spec)

let test_redundancy () =
  check int "largest odd fit" 3 (Codec.redundancy ~capacity:17 ~length:4);
  check int "odd quotient kept" 5 (Codec.redundancy ~capacity:10 ~length:2);
  check int "at least one" 1 (Codec.redundancy ~capacity:3 ~length:4);
  check int "even quotient rounds down" 1 (Codec.redundancy ~capacity:8 ~length:4)

(* --- crash-safe writes ------------------------------------------------ *)

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* A writer that dies midway leaves the previous file byte for byte,
   still loadable, and no temporary file beside it; a writer that
   finishes replaces it. *)
let test_atomic_write_keeps_old_file () =
  let dir = Filename.temp_file "qpwm_atomic" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "d.qpwm" in
  let ws = Wm_workload.Random_struct.regular_rings (Prng.create 4) ~n:30 in
  Textio.save path ws;
  let before = read_all path in
  (match
     Atomic_file.write path (fun oc ->
         output_string oc "# qpwm weighted structure\nschema E/2\n";
         failwith "writer died")
   with
  | () -> Alcotest.fail "the writer's exception was swallowed"
  | exception Failure m -> check string "the writer's exception" "writer died" m);
  check string "old bytes intact" before (read_all path);
  (match Textio.load_result path with
  | Error e -> Alcotest.failf "old file no longer loads: %s" (Textio.error_to_string e)
  | Ok ws' ->
      check bool "old file loads unchanged" true
        (Structure.equal ws.Weighted.graph ws'.Weighted.graph
        && Weighted.equal ws.Weighted.weights ws'.Weighted.weights));
  check (list string) "no temporary file left" [ "d.qpwm" ]
    (Array.to_list (Sys.readdir dir));
  Json.to_file path (Json.Int 7);
  check string "a finished write replaces the file" "7\n" (read_all path);
  check (list string) "still one file" [ "d.qpwm" ] (Array.to_list (Sys.readdir dir));
  (match Textio.save (Filename.concat dir "missing/d.qpwm") ws with
  | () -> Alcotest.fail "wrote into a missing directory"
  | exception Sys_error m ->
      check bool "the error names the target" true
        (String.starts_with ~prefix:(Filename.concat dir "missing/d.qpwm: ") m));
  Sys.remove path;
  Sys.rmdir dir

(* [Prng.bools g k] packs the next [k] [bool] draws, draw [i] in bit
   [i], and leaves the stream where [k] [bool] calls would: the draws
   after it must match too.  Out-of-range [k] is rejected. *)
let test_prng_bools () =
  List.iter
    (fun seed ->
      for k = 0 to 62 do
        let g = Prng.create seed and h = Prng.create seed in
        let want = ref 0 in
        for i = 0 to k - 1 do
          if Prng.bool h then want := !want lor (1 lsl i)
        done;
        let what = Printf.sprintf "seed %d, k %d" seed k in
        check int what !want (Prng.bools g k);
        check int64 (what ^ ": state after") (Prng.bits64 h) (Prng.bits64 g)
      done)
    [ 0; 42; -7; max_int ];
  let g = Prng.create 42 in
  check int "16 bools, packed" 0b0010010101000011 (Prng.bools g 16);
  List.iter
    (fun k ->
      check bool (Printf.sprintf "k %d rejected" k) true
        (match Prng.bools (Prng.create 1) k with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ -1; 63 ]

let suite =
  [
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng split independent", `Quick, test_prng_split_independent);
    ("prng int range", `Quick, test_prng_int_range);
    ("prng bernoulli bias", `Quick, test_prng_bernoulli_bias);
    ("prng shuffle permutes", `Quick, test_prng_shuffle_permutes);
    ("prng sample distinct", `Quick, test_prng_sample_distinct);
    ("bitvec get/set", `Quick, test_bitvec_get_set);
    ("bitvec boolean ops", `Quick, test_bitvec_ops);
    ("bitvec trailing bits", `Quick, test_bitvec_trailing_bits_ignored);
    ("codec int roundtrip", `Quick, test_codec_int_roundtrip);
    ("codec string roundtrip", `Quick, test_codec_string_roundtrip);
    ("codec majority decode", `Quick, test_codec_majority);
    ("codec hamming", `Quick, test_codec_hamming);
    ("stats basics", `Quick, test_stats_basic);
    ("stats rate", `Quick, test_stats_rate);
    ("stats imax", `Quick, test_stats_imax);
    ("stats histogram guard", `Quick, test_stats_histogram_guard);
    ("codec validation", `Quick, test_codec_validation);
    ("codec even tie", `Quick, test_codec_even_tie);
    ("texttab render", `Quick, test_texttab_render);
    QCheck_alcotest.to_alcotest prop_codec_int;
    QCheck_alcotest.to_alcotest prop_bitvec_of_to_list;
    QCheck_alcotest.to_alcotest prop_union_popcount;
    QCheck_alcotest.to_alcotest prop_repeat_decode;
    QCheck_alcotest.to_alcotest prop_vote_spec;
    ("codec redundancy", `Quick, test_redundancy);
    ("atomic write keeps the old file", `Quick, test_atomic_write_keeps_old_file);
    ("prng known answers", `Quick, test_prng_known_answers);
    ("prng packed bools", `Quick, test_prng_bools);
  ]
