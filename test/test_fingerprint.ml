(* Tests for Wm_watermark.Fingerprint: key derivation, per-recipient
   marking, collusion attacks, traitor tracing with multiple-testing
   correction, and the PRNG stream discipline of coalition cells. *)

open Wm_watermark
open Wm_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let raises f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* An identity-query scheme over a ring workload: constant-time result
   sets give enough capacity for production-sized codewords in a test. *)
let identity_qs n =
  Query_system.of_custom
    ~params:(List.init n Tuple.singleton)
    ~result_set:(fun p -> Tuple.Set.singleton p)
    ~weight_arity:1

let identity_query =
  lazy (Parser.query_of_string ~params:[ "u" ] ~results:[ "v" ] "u = v")

let context ?length ?times ?(master = 0xBEEF) ?(seed = 11) ~n () =
  let ws = Random_struct.regular_rings (Prng.create seed) ~n in
  let qs = identity_qs (Structure.size ws.Weighted.graph) in
  match Local_scheme.prepare ~qs ws (Lazy.force identity_query) with
  | Error e -> Alcotest.fail ("prepare: " ^ e)
  | Ok scheme -> (
      match Fingerprint.of_local ?length ?times ~master scheme with
      | Error e -> Alcotest.fail ("fingerprint: " ^ e)
      | Ok t -> (t, ws))

(* --- geometry and key derivation ------------------------------------- *)

let test_geometry_defaults () =
  let t, _ = context ~n:400 () in
  check bool "length <= 128" true (Fingerprint.length t <= 128);
  check int "times odd" 1 (Fingerprint.times t mod 2);
  check bool "fits" true
    (Fingerprint.times t * Fingerprint.length t >= Fingerprint.length t)

let test_geometry_rejects_oversize () =
  let ws = Random_struct.regular_rings (Prng.create 1) ~n:40 in
  let qs = identity_qs (Structure.size ws.Weighted.graph) in
  match Local_scheme.prepare ~qs ws (Lazy.force identity_query) with
  | Error e -> Alcotest.fail e
  | Ok scheme ->
      (match Fingerprint.of_local ~length:100_000 ~master:1 scheme with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "oversize codeword accepted");
      (match Fingerprint.of_local ~length:4 ~times:2 ~master:1 scheme with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)

let test_recipient_key_master_dependent () =
  check bool "distinct recipients, distinct keys" true
    (Fingerprint.recipient_key ~master:7 "alice"
    <> Fingerprint.recipient_key ~master:7 "bob");
  check bool "distinct masters, distinct keys" true
    (Fingerprint.recipient_key ~master:7 "alice"
    <> Fingerprint.recipient_key ~master:8 "alice");
  check bool "deterministic" true
    (Fingerprint.recipient_key ~master:7 "alice"
    = Fingerprint.recipient_key ~master:7 "alice");
  check bool "non-negative" true (Fingerprint.recipient_key ~master:7 "x" >= 0)

let prop_distinct_recipients_distinct_marks =
  QCheck.Test.make ~count:50 ~name:"distinct recipients get distinct marks"
    QCheck.(pair small_printable_string small_printable_string)
    (fun (r1, r2) ->
      QCheck.assume (r1 <> r2);
      let t, ws = context ~n:120 () in
      let m1 = Fingerprint.mark_for t r1 ws.Weighted.weights in
      let m2 = Fingerprint.mark_for t r2 ws.Weighted.weights in
      (not (Bitvec.equal (Fingerprint.codeword t r1) (Fingerprint.codeword t r2)))
      && Fingerprint.digest m1 <> Fingerprint.digest m2)

(* --- verify ---------------------------------------------------------- *)

let test_verify_right_and_wrong_key () =
  let t, ws = context ~n:200 () in
  let w = ws.Weighted.weights in
  let marked = Fingerprint.mark_for t "alice" w in
  check bool "right recipient verifies" true
    (Fingerprint.verify t "alice" ~original:w ~suspect:marked);
  check bool "wrong recipient fails" false
    (Fingerprint.verify t "bob" ~original:w ~suspect:marked);
  check bool "unmarked copy fails" false
    (Fingerprint.verify t "alice" ~original:w ~suspect:w)

let prop_wrong_key_fails =
  QCheck.Test.make ~count:40 ~name:"verify under the wrong key fails"
    QCheck.(pair small_printable_string small_printable_string)
    (fun (r1, r2) ->
      QCheck.assume (r1 <> r2);
      let t, ws = context ~n:120 () in
      let w = ws.Weighted.weights in
      let marked = Fingerprint.mark_for t r1 w in
      Fingerprint.verify t r1 ~original:w ~suspect:marked
      && not (Fingerprint.verify t r2 ~original:w ~suspect:marked))

(* --- tracing --------------------------------------------------------- *)

let thousand_rids = List.init 1000 (fun i -> "r" ^ string_of_int i)

(* Coalition of 3 out of 10^3 recipients, majority-vote collusion plus
   independent per-copy laundering noise: tracing must accuse exactly the
   coalition, nobody else. *)
let test_trace_coalition_of_thousand () =
  (* 256-bit codewords: at length 128 a coalition member's per-bit
     agreement of ~3/4 sits too close to the Šidák threshold over 10^3
     candidates; doubling the codeword pushes the miss probability below
     1e-4 so the fixed seed has real margin. *)
  let t, ws = context ~n:900 ~length:256 () in
  let w = ws.Weighted.weights in
  let coalition = [ "r17"; "r421"; "r900" ] in
  let cell_seed = 42 in
  let copies =
    Array.of_list
      (List.mapi
         (fun ci rid ->
           Adversary.apply
             (Adversary.copy_prng ~cell_seed ~copy:ci)
             (Adversary.Uniform_noise { amplitude = 1 })
             ~active:(List.init 900 Tuple.singleton)
             (Fingerprint.mark_for t rid w))
         coalition)
  in
  let colluded =
    Adversary.apply_collusion (Prng.create cell_seed)
      Adversary.Coalition_majority
      ~active:(List.init 900 Tuple.singleton)
      copies
  in
  let rep =
    Fingerprint.trace t ~original:w ~suspect:colluded thousand_rids
  in
  check (Alcotest.list Alcotest.string) "accused exactly the coalition"
    coalition rep.Fingerprint.accused;
  check bool "threshold corrected below alpha" true
    (rep.Fingerprint.threshold < rep.Fingerprint.alpha)

let test_trace_single_leaker () =
  let t, ws = context ~n:400 () in
  let w = ws.Weighted.weights in
  let marked = Fingerprint.mark_for t "r421" w in
  let rep = Fingerprint.trace t ~original:w ~suspect:marked thousand_rids in
  check (Alcotest.list Alcotest.string) "single leaker accused" [ "r421" ]
    rep.Fingerprint.accused;
  check int "all bits decided" (Fingerprint.length t) rep.Fingerprint.decided

let test_trace_clean_copy_accuses_nobody () =
  let t, ws = context ~n:400 () in
  let w = ws.Weighted.weights in
  let rep = Fingerprint.trace t ~original:w ~suspect:w thousand_rids in
  check (Alcotest.list Alcotest.string) "no accusations" []
    rep.Fingerprint.accused;
  check int "nothing decided" 0 rep.Fingerprint.decided

let test_trace_empty_candidates_rejected () =
  let t, ws = context ~n:120 () in
  let w = ws.Weighted.weights in
  check bool "empty candidate list" true
    (raises (fun () -> Fingerprint.trace t ~original:w ~suspect:w []))

(* Every score's p-value is exactly the per-candidate tail it replaces:
   trials is the report's decided count, the value equals
   [Detector.binomial_tail] bit for bit, and at most decided + 1 tails
   are evaluated however many candidates share an agreement count. *)
let test_trace_exact_pvalues () =
  let t, ws = context ~n:900 ~length:256 () in
  let w = ws.Weighted.weights in
  let active = List.init 900 Tuple.singleton in
  let coalition =
    Adversary.apply_collusion (Prng.create 8) Adversary.Coalition_majority
      ~active
      (Array.of_list
         (List.map (fun rid -> Fingerprint.mark_for t rid w) [ "r5"; "r50"; "r500" ]))
  in
  let counter_value snap name =
    Option.value ~default:0 (List.assoc_opt name snap.Wm_obs.Obs.counters)
  in
  let was = Wm_obs.Obs.enabled () in
  Wm_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Wm_obs.Obs.set_enabled was) @@ fun () ->
  List.iter
    (fun (what, suspect, accused) ->
      let since = Wm_obs.Obs.snapshot () in
      let rep =
        Jobs.with_jobs 1 (fun () ->
            Fingerprint.trace t ~original:w ~suspect thousand_rids)
      in
      let d = Wm_obs.Obs.diff ~since (Wm_obs.Obs.snapshot ()) in
      check (Alcotest.list Alcotest.string) (what ^ ": accused") accused
        rep.Fingerprint.accused;
      check bool (what ^ ": tails <= decided + 1") true
        (counter_value d "fp.tails" <= rep.Fingerprint.decided + 1);
      (* a zero would mean the counter went dark *)
      check bool (what ^ ": tails >= 1") true (counter_value d "fp.tails" >= 1);
      List.iter
        (fun (s : Fingerprint.score) ->
          check int (what ^ ": trials = decided") rep.Fingerprint.decided
            s.Fingerprint.trials;
          check bool (what ^ ": exact tail") true
            (Float.equal s.Fingerprint.pvalue
               (Detector.binomial_tail ~trials:s.Fingerprint.trials
                  ~successes:s.Fingerprint.agreements)))
        rep.Fingerprint.scores;
      check bool (what ^ ": jobs 1 = jobs 2") true
        (rep
        = Jobs.with_jobs 2 (fun () ->
              Fingerprint.trace t ~original:w ~suspect thousand_rids)))
    [
      ("single leaker", Fingerprint.mark_for t "r421" w, [ "r421" ]);
      ("coalition of 3", coalition, [ "r5"; "r50"; "r500" ]);
      ("original", w, []);
    ];
  let rep = Fingerprint.trace t ~original:w ~suspect:w thousand_rids in
  check int "original: nothing decided" 0 rep.Fingerprint.decided;
  check bool "original: every p-value is 1" true
    (List.for_all
       (fun (s : Fingerprint.score) -> Float.equal s.Fingerprint.pvalue 1.0)
       rep.Fingerprint.scores)

(* --- the fused scorer against the codeword ----------------------------- *)

(* [score] draws the codeword 62 bits at a time and counts agreements
   by popcount over packed decided bits; the reference materialises it
   with the public [codeword] and reads it back with [Bitvec.get]. *)
let reference_score t decoded rid =
  let cw = Fingerprint.codeword t rid in
  let agree = ref 0 and trials = ref 0 in
  Array.iteri
    (fun i v ->
      match v with
      | Some b ->
          incr trials;
          if b = Bitvec.get cw i then incr agree
      | None -> ())
    decoded;
  (!agree, !trials)

(* One prepared scheme; each case layers its own master and geometry. *)
let differential_scheme =
  lazy
    (let ws = Random_struct.regular_rings (Prng.create 23) ~n:900 in
     let qs = identity_qs (Structure.size ws.Weighted.graph) in
     match Local_scheme.prepare ~qs ws (Lazy.force identity_query) with
     | Error e -> Alcotest.fail ("prepare: " ^ e)
     | Ok scheme -> (scheme, ws.Weighted.weights))

(* A suspect whose decoded bits are exactly [decoded]: carrier [j]
   repeats bit [j mod length] (the {!Codec.repeat} layout); a [Some b]
   bit orients all its carriers to [b], a [None] bit leaves them
   silent. *)
let suspect_decoding scheme w ~length ~times decoded =
  let pairs = Array.of_list (Local_scheme.pairs scheme) in
  let marks = ref [] in
  for j = (times * length) - 1 downto 0 do
    match decoded.(j mod length) with
    | None -> ()
    | Some b ->
        let { Pairing.fst; snd } = pairs.(j) in
        let d = if b then 1 else -1 in
        marks := (fst, d) :: (snd, -d) :: !marks
  done;
  Weighted.apply_marks w !marks

(* The scorer packs 62 codeword bits to a word, so besides a random
   length every case also runs at the lengths on either side of the
   first two word boundaries and at the production length 128. *)
let word_boundary_lengths = [ 61; 62; 63; 124; 125; 128 ]

(* One case of the property below at codeword length [length]: the
   remaining geometry, master, candidates and decoded bits come from
   [g]; [seed mod 4] picks how the bits are decided. *)
let fused_case ~seed g length =
  let scheme, w = Lazy.force differential_scheme in
  let capacity = Local_scheme.capacity scheme in
  let times = 1 + Prng.int g (min 3 (capacity / length)) in
  let master = Prng.int g max_int - (max_int / 2) in
  let t =
    match Fingerprint.of_local ~length ~times ~master scheme with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let ncand = 1 + Prng.int g 300 in
  let candidates =
    List.init ncand (fun i -> Printf.sprintf "c%d-%d" i (Prng.int g 1000))
  in
  let decoded =
    match seed mod 4 with
    | 0 -> Array.make length None (* decided = 0 *)
    | 1 ->
        (* one candidate's codeword, partly erased: an accusation *)
        let cw =
          Fingerprint.codeword t (List.nth candidates (Prng.int g ncand))
        in
        Array.init length (fun i ->
            if Prng.bernoulli g 0.1 then None else Some (Bitvec.get cw i))
    | _ ->
        let p = Prng.float g 1.0 in
        Array.init length (fun _ ->
            if Prng.bernoulli g p then None else Some (Prng.bool g))
  in
  let scores_ok =
    List.for_all
      (fun rid ->
        Fingerprint.score t decoded rid = reference_score t decoded rid)
      candidates
  in
  let suspect = suspect_decoding scheme w ~length ~times decoded in
  let read_ok =
    Fingerprint.decode t (Fingerprint.read t ~original:w ~suspect)
    = decoded
  in
  let alpha = 0.01 in
  let threshold = Detector.sidak ~alpha ~tests:ncand in
  let same (rep : Fingerprint.trace_report) =
    List.length rep.scores = ncand
    && List.for_all2
         (fun rid (s : Fingerprint.score) ->
           let agreements, trials = reference_score t decoded rid in
           let pvalue =
             Detector.binomial_tail ~trials ~successes:agreements
           in
           s.rid = rid && s.agreements = agreements && s.trials = trials
           && Float.equal s.pvalue pvalue
           && s.accused = (pvalue <= threshold))
         candidates rep.scores
    && rep.accused
       = List.filter
           (fun rid ->
             let agreements, trials = reference_score t decoded rid in
             Detector.binomial_tail ~trials ~successes:agreements
             <= threshold)
           candidates
  in
  let trace jobs =
    Jobs.with_jobs jobs (fun () ->
        Fingerprint.trace ~alpha t ~original:w ~suspect candidates)
  in
  scores_ok && read_ok && same (trace 1) && same (trace 2)

let prop_fused_score_matches_codeword =
  QCheck.Test.make ~count:60 ~name:"fused scorer == codeword reference"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let g = Prng.create seed in
      List.for_all (fused_case ~seed g)
        ((1 + Prng.int g 130) :: word_boundary_lengths))

(* --- determinism across job counts ----------------------------------- *)

let test_trace_jobs_invariant () =
  let t, ws = context ~n:400 () in
  let w = ws.Weighted.weights in
  let copies =
    Array.of_list
      (List.map (fun rid -> Fingerprint.mark_for t rid w) [ "r3"; "r7" ])
  in
  let colluded =
    Adversary.apply_collusion (Prng.create 5) Adversary.Coalition_mix
      ~active:(List.init 400 Tuple.singleton)
      copies
  in
  let rep jobs =
    Jobs.with_jobs jobs (fun () ->
        Fingerprint.trace t ~original:w ~suspect:colluded thousand_rids)
  in
  check bool "jobs 1 = jobs 2" true (rep 1 = rep 2);
  check bool "jobs 1 = jobs 4" true (rep 1 = rep 4)

let test_grid_jobs_invariant () =
  let t, ws = context ~n:200 () in
  let w = ws.Weighted.weights in
  let grid jobs =
    Jobs.with_jobs jobs (fun () ->
        Fingerprint.run_grid ~recipients:[ 60 ] ~coalitions:[ 1; 2 ]
          ~attacks:[ Adversary.Coalition_majority; Adversary.Coalition_mix ]
          t w)
  in
  let g1 = grid 1 and g2 = grid 2 in
  check bool "grid jobs 1 = jobs 2" true (g1 = g2);
  check int "rows" 4 (List.length g1.Fingerprint.rows)

let test_grid_no_collusion_row_clean () =
  let t, ws = context ~n:900 ~length:256 () in
  let w = ws.Weighted.weights in
  let g =
    Fingerprint.run_grid ~recipients:[ 200 ] ~coalitions:[ 1; 3 ]
      ~attacks:[ Adversary.Coalition_majority ] t w
  in
  List.iter
    (fun (o : Fingerprint.outcome) ->
      check int ("no false accusations k=" ^ string_of_int o.Fingerprint.coalition)
        0 o.Fingerprint.false_accusations;
      check bool "traced" true o.Fingerprint.traced)
    g.Fingerprint.rows

(* --- coalition PRNG stream discipline -------------------------------- *)

(* Distinct copies of one cell must be perturbed on distinct, independent
   streams: a shared stream correlates the copies' noise, which cancels
   in weight differences and understates the attack. *)
let test_copy_prng_streams_independent () =
  let draws ~cell_seed ~copy =
    let g = Adversary.copy_prng ~cell_seed ~copy in
    List.init 8 (fun _ -> Prng.int g 1000)
  in
  check bool "same (seed, copy) replays" true
    (draws ~cell_seed:9 ~copy:0 = draws ~cell_seed:9 ~copy:0);
  check bool "copy 0 <> copy 1" true
    (draws ~cell_seed:9 ~copy:0 <> draws ~cell_seed:9 ~copy:1);
  check bool "copy 1 <> copy 2" true
    (draws ~cell_seed:9 ~copy:1 <> draws ~cell_seed:9 ~copy:2);
  check bool "cells differ" true
    (draws ~cell_seed:9 ~copy:0 <> draws ~cell_seed:10 ~copy:0);
  check bool "negative copy rejected" true
    (raises (fun () -> Adversary.copy_prng ~cell_seed:9 ~copy:(-1)))

(* Draw-order regression: Coalition_mix consumes exactly one draw per
   active tuple and nothing else, so the combined copy is a pure function
   of (seed, active order) and stays stable as the module evolves. *)
let test_collusion_draw_order_pinned () =
  let actives = List.init 6 Tuple.singleton in
  let w0 = Weighted.create 1 in
  let copies =
    Array.init 2 (fun c ->
        List.fold_left
          (fun w t -> Weighted.set w t ((10 * (c + 1)) + Tuple.max_elt t))
          w0 actives)
  in
  let mixed =
    Adversary.apply_collusion (Prng.create 77) Adversary.Coalition_mix
      ~active:actives copies
  in
  (* the donor sequence is exactly the first 6 draws of Prng.create 77 *)
  let g = Prng.create 77 in
  List.iteri
    (fun i t ->
      let donor = Prng.int g 2 in
      check int
        ("mix donor for tuple " ^ string_of_int i)
        ((10 * (donor + 1)) + i)
        (Weighted.get mixed t))
    actives;
  (* interleave: shuffle of k elements then one offset draw, then zero
     draws per tuple — each copy donates an exactly balanced share *)
  let inter =
    Adversary.apply_collusion (Prng.create 77) Adversary.Coalition_interleave
      ~active:actives copies
  in
  let donated =
    List.map (fun t -> Weighted.get inter t / 10) actives
  in
  check int "interleave balanced: copy 1 donates half" 3
    (List.length (List.filter (( = ) 1) donated));
  check int "interleave balanced: copy 2 donates half" 3
    (List.length (List.filter (( = ) 2) donated));
  check bool "interleave deterministic" true
    (inter
    = Adversary.apply_collusion (Prng.create 77)
        Adversary.Coalition_interleave ~active:actives copies);
  (* majority draws nothing: k = 1 coalition is the copy itself *)
  check bool "majority of one is identity" true
    (Adversary.apply_collusion (Prng.create 1) Adversary.Coalition_majority
       ~active:actives [| copies.(0) |]
    = copies.(0));
  check bool "empty coalition rejected" true
    (raises (fun () ->
         Adversary.apply_collusion (Prng.create 1)
           Adversary.Coalition_majority ~active:actives [||]))

(* --- corrected thresholds and tie-explicit decoding ------------------ *)

let test_corrections () =
  check bool "sidak less conservative than alpha / tests" true
    (Detector.sidak ~alpha:0.05 ~tests:10 > 0.05 /. 10.);
  check bool "equal at one test" true
    (abs_float (Detector.sidak ~alpha:0.05 ~tests:1 -. 0.05) < 1e-12);
  check bool "alpha 0 rejected" true
    (raises (fun () -> Detector.sidak ~alpha:0. ~tests:3));
  check bool "tests 0 rejected" true
    (raises (fun () -> Detector.sidak ~alpha:0.05 ~tests:0))

let test_vote_ties () =
  (* times 2, carriers [1 0; 0 0]: bit 0 splits 1-1 (a tie), bit 1 is a
     clean 0 *)
  let of_bits bits j = Some (List.nth bits j) in
  (match Codec.vote ~times:2 ~length:2 (of_bits [ true; false; false; false ]) with
  | [| None; Some false |] -> ()
  | _ -> Alcotest.fail "tie not surfaced");
  (* interleaved layout: bit i's votes sit at positions t*l + i *)
  (match
     Codec.vote ~times:3 ~length:2
       (of_bits [ true; true; false; true; false; false ])
   with
  | [| Some false; Some true |] -> ()
  | _ -> Alcotest.fail "odd majority wrong");
  (* abstentions: one surviving vote decides; none decides nothing *)
  (match
     Codec.vote ~times:3 ~length:2 (fun j ->
         if j = 3 then Some true else None)
   with
  | [| None; Some true |] -> ()
  | _ -> Alcotest.fail "abstentions miscounted");
  check bool "bad times rejected" true
    (raises (fun () -> Codec.vote ~times:0 ~length:2 (fun _ -> None)))

(* On the unmarked original every carrier is silent, so no bit is decided
   and no recipient's codeword verifies. *)
let test_verify_unmarked_original () =
  let t, ws = context ~length:4 ~times:3 ~n:200 () in
  let w = ws.Weighted.weights in
  List.iter
    (fun i ->
      let rid = "r" ^ string_of_int i in
      check bool (rid ^ " does not verify") false
        (Fingerprint.verify t rid ~original:w ~suspect:w))
    (List.init 200 Fun.id)

(* Keyed-hash outputs pinned: any change to the FNV-1a construction or
   to how a key is mixed in moves them. *)
let test_keyed_hashes_pinned () =
  check int "key 7 alice" 4518028739014441110
    (Fingerprint.recipient_key ~master:7 "alice");
  check int "key beef r44" 3294876156221037545
    (Fingerprint.recipient_key ~master:0xBEEF "r44");
  check int "key 0 empty" 575418448377379465
    (Fingerprint.recipient_key ~master:0 "");
  let w =
    Weighted.of_list ~default:3 2
      [ ([| 0; 1 |], 5); ([| 2; 3 |], -7); ([| 4; 0 |], 11) ]
  in
  check int "digest" 4533268953166739639 (Fingerprint.digest w);
  check int "digest empty" 3762144687428148148
    (Fingerprint.digest (Weighted.create 1));
  let cap =
    Recovery.protect (Random_struct.regular_rings (Prng.create 3) ~n:12)
  in
  let certs = Alcotest.(array (array int)) in
  check certs "keyed mac"
    [|
      [| 4447955290041694754; 4447955290041694754 |];
      [| -754410636007615676; -754410636007615676 |];
    |]
    (Recovery.certificates cap);
  (* amplitude 0 rewrites nothing but the certificate: the unkeyed mac *)
  check certs "unkeyed mac"
    [|
      [| -905040634329360685; -905040634329360685 |];
      [| 3671423951022403017; 3671423951022403017 |];
    |]
    (Recovery.certificates
       (Recovery.forge (Prng.create 1) ~fraction:1.0 ~amplitude:0 cap))

(* The collusion grid of the E27 experiment at a test size: every
   coalition size and attack, each cell traced against the whole
   population.  Every coalition is traced, and no innocent is accused
   anywhere on the grid. *)
let test_grid_all_traced_no_false () =
  let t, ws = context ~n:2000 ~length:256 ~times:3 () in
  let g = Fingerprint.run_grid ~recipients:[ 200 ] t ws.Weighted.weights in
  check int "cells" 9 (List.length g.Fingerprint.rows);
  List.iter
    (fun (o : Fingerprint.outcome) ->
      let what = Printf.sprintf "k=%d %s" o.Fingerprint.coalition o.Fingerprint.attack in
      check int (what ^ ": no false accusations") 0 o.Fingerprint.false_accusations;
      check bool (what ^ ": traced") true o.Fingerprint.traced)
    g.Fingerprint.rows

(* [digest] folds the flat buffers inside [Weighted]; the reference
   folds the same FNV steps over [bindings] (header: tag, arity,
   default; then per entry its key cells and its weight).  Compacted
   and overlay-carrying weights, singleton and pair keys, a negative
   default and the empty assignment. *)
let reference_digest w =
  let mix h x = (h lxor x) * Fnv.prime in
  let h = mix (Fnv.string Fnv.basis "qpwm-fp/1") (Weighted.arity w) in
  let h = mix h (Weighted.default w) in
  List.fold_left
    (fun h (t, v) -> mix (Array.fold_left mix h t) v)
    h (Weighted.bindings w)
  land max_int

let test_digest_reference () =
  let g = Prng.create 0xD16 in
  let t1 = Tuple.singleton and t2 x y = Tuple.of_list [ x; y ] in
  let ring = (Random_struct.regular_rings (Prng.create 5) ~n:300).Weighted.weights in
  let w2 =
    Weighted.of_list ~default:(-4) 2
      (List.init 200 (fun i -> (t2 (i mod 17) (i * 7 mod 23), Prng.int g 50 - 25)))
  in
  (* overlays: overridden rows and overlay-only keys below the
     compaction limit, so the per-entry merge walk is what is hashed *)
  let edit w tuple n =
    List.fold_left
      (fun w _ -> Weighted.set w (tuple ()) (Prng.int g 100))
      w (List.init n Fun.id)
  in
  let ring_live = edit ring (fun () -> t1 (Prng.int g 320)) 40 in
  let w2_live = edit w2 (fun () -> t2 (Prng.int g 20) (Prng.int g 25)) 30 in
  List.iter
    (fun (what, w) ->
      check int what (reference_digest w) (Fingerprint.digest w))
    [
      ("ring", ring); ("ring, live overlay", ring_live); ("pairs", w2);
      ("pairs, live overlay", w2_live); ("empty", Weighted.create ~default:9 3);
      ("marked copy", Weighted.add_delta ring (t1 3) 1);
    ]

let suite =
  [
    ("geometry defaults", `Quick, test_geometry_defaults);
    ("geometry rejects oversize", `Quick, test_geometry_rejects_oversize);
    ("recipient keys", `Quick, test_recipient_key_master_dependent);
    QCheck_alcotest.to_alcotest prop_distinct_recipients_distinct_marks;
    ("verify right and wrong key", `Quick, test_verify_right_and_wrong_key);
    QCheck_alcotest.to_alcotest prop_wrong_key_fails;
    ("trace coalition of 3 in 1000", `Slow, test_trace_coalition_of_thousand);
    ("trace single leaker", `Slow, test_trace_single_leaker);
    ("trace clean copy", `Slow, test_trace_clean_copy_accuses_nobody);
    ("trace empty candidates", `Quick, test_trace_empty_candidates_rejected);
    ("trace exact p-values", `Slow, test_trace_exact_pvalues);
    ("trace jobs invariant", `Slow, test_trace_jobs_invariant);
    ("grid jobs invariant", `Slow, test_grid_jobs_invariant);
    ("grid no-collusion rows clean", `Slow, test_grid_no_collusion_row_clean);
    ("copy prng streams", `Quick, test_copy_prng_streams_independent);
    ("collusion draw order pinned", `Quick, test_collusion_draw_order_pinned);
    ("corrected thresholds", `Quick, test_corrections);
    ("majority decode ties", `Quick, test_vote_ties);
    ("verify rejects the unmarked original", `Quick, test_verify_unmarked_original);
    ("keyed hashes pinned", `Quick, test_keyed_hashes_pinned);
    ("grid: every coalition traced, no false accusations", `Slow,
      test_grid_all_traced_no_false);
    QCheck_alcotest.to_alcotest prop_fused_score_matches_codeword;
    ("digest == FNV fold over bindings", `Quick, test_digest_reference);
  ]
