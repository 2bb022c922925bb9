(* Observability: one trace span per grid cell (the unit the pool
   schedules), annotated with the cell's attack and redundancy so
   --trace-json shows where the grid's wall time went. *)
module Obs = Wm_obs.Obs

let c_cells = Obs.counter "attack.cells"
let t_cell = Obs.timer "attack.cell"

type spec =
  | Weights of Adversary.attack
  | Structural of Adversary.structural
  | Edited of Adversary.edit_attack
  | Mixed of { fraction : float }
  | Informed_offset of { delta : int }
  | Capsule_mix of { fraction : float }

let describe_spec = function
  | Weights a -> Adversary.describe a
  | Structural a -> Adversary.describe_structural a
  | Edited a -> Adversary.describe_edit a
  | Mixed { fraction } ->
      Printf.sprintf "mix-and-match %.0f%% (second copy)" (100. *. fraction)
  | Informed_offset { delta } -> Printf.sprintf "informed pair offset %+d" delta
  | Capsule_mix { fraction } ->
      Printf.sprintf "mix-and-match %.0f%% + spliced certificates"
        (100. *. fraction)

(* Machine-readable parameters: enough, together with the master seed and
   the grid index, to replay any cell standalone ([wmark attack --only]). *)
let spec_params = function
  | Weights (Adversary.Uniform_noise { amplitude }) ->
      Printf.sprintf "uniform_noise:amplitude=%d" amplitude
  | Weights (Adversary.Random_flips { count; amplitude }) ->
      Printf.sprintf "random_flips:count=%d,amplitude=%d" count amplitude
  | Weights (Adversary.Rounding { multiple }) ->
      Printf.sprintf "rounding:multiple=%d" multiple
  | Weights (Adversary.Constant_offset { delta }) ->
      Printf.sprintf "constant_offset:delta=%d" delta
  | Weights (Adversary.Back_to_original { fraction; _ }) ->
      Printf.sprintf "back_to_original:fraction=%g" fraction
  | Weights (Adversary.Mix_and_match { fraction; _ }) ->
      Printf.sprintf "mix_and_match:fraction=%g" fraction
  | Weights (Adversary.Targeted_offset { delta; pairs }) ->
      Printf.sprintf "targeted_offset:delta=%d,pairs=%d" delta
        (List.length pairs)
  | Structural (Adversary.Delete_tuples { fraction }) ->
      Printf.sprintf "delete_tuples:fraction=%g" fraction
  | Structural (Adversary.Subset_sample { keep }) ->
      Printf.sprintf "subset_sample:keep=%g" keep
  | Structural (Adversary.Insert_noise_tuples { count; amplitude }) ->
      Printf.sprintf "insert_noise:count=%d,amplitude=%d" count amplitude
  | Structural Adversary.Shuffle_universe -> "shuffle_universe"
  | Edited (Adversary.Drop_relation_tuples { fraction }) ->
      Printf.sprintf "drop_relation_tuples:fraction=%g" fraction
  | Edited (Adversary.Graft_elements { count; amplitude }) ->
      Printf.sprintf "graft_elements:count=%d,amplitude=%d" count amplitude
  | Mixed { fraction } -> Printf.sprintf "mixed:fraction=%g" fraction
  | Informed_offset { delta } -> Printf.sprintf "informed_offset:delta=%d" delta
  | Capsule_mix { fraction } ->
      Printf.sprintf "capsule_mix:fraction=%g" fraction

type outcome = {
  attack : string;
  grid_index : int;
  cell_seed : int;
  params : string;
  redundancy : int;
  bits : int;
  carriers : int;
  erased : int;
  erasure_rate : float;
  bit_errors : int;
  ber : float;
  pvalue : float;
  accused : bool;
  distortion : int option;
  recovered : bool;
  naive_recovered : bool;
  type_drift : bool option;
  rec_recovered : bool;
  recovered_bits : int;
  false_repairs : int;
  groups_repaired : int;
  groups_unrepairable : int;
  groups_distorted : int;
  groups_erased : int;
}

type report = {
  workload : string;
  message : Bitvec.t;
  capacity : int;
  active : int;
  rows : outcome list;
}

let default_grid ~active =
  let tenth = max 1 (active / 10) in
  [
    Weights (Adversary.Constant_offset { delta = 0 });
    Weights (Adversary.Uniform_noise { amplitude = 1 });
    Weights (Adversary.Uniform_noise { amplitude = 2 });
    Weights (Adversary.Random_flips { count = tenth; amplitude = 1 });
    Weights (Adversary.Random_flips { count = 3 * tenth; amplitude = 1 });
    Weights (Adversary.Constant_offset { delta = 7 });
    Structural (Adversary.Delete_tuples { fraction = 0.1 });
    Structural (Adversary.Delete_tuples { fraction = 0.2 });
    Structural (Adversary.Delete_tuples { fraction = 0.3 });
    Structural (Adversary.Subset_sample { keep = 0.5 });
    Structural (Adversary.Insert_noise_tuples { count = tenth; amplitude = 999 });
    Structural Adversary.Shuffle_universe;
    (* Appended last: per-cell PRNGs are keyed by grid position, so
       existing rows keep their exact values. *)
    Edited (Adversary.Drop_relation_tuples { fraction = 0.1 });
    Edited (Adversary.Drop_relation_tuples { fraction = 0.3 });
    Edited (Adversary.Graft_elements { count = tenth; amplitude = 999 });
    (* Recovery-aware rows (appended, same reason): mix-and-match against
       a second marked copy, an informed pairwise offset the detector is
       blind to, and mix-and-match with spliced certificate capsules —
       the false-repair hazard. *)
    Mixed { fraction = 0.3 };
    Mixed { fraction = 0.6 };
    Informed_offset { delta = 5 };
    Capsule_mix { fraction = 0.5 };
  ]

(* A deterministic per-cell generator: the cell's position in the grid is
   its seed, so adding rows never reshuffles earlier ones. *)
let cell_prng ~seed ~redundancy ~index =
  Prng.create ((seed * 1_000_003) + (redundancy * 1009) + index)

let run ?(options = Local_scheme.default_options) ?(seed = 0xA77AC)
    ?(redundancies = [ 1; 3; 5 ]) ?(message_bits = 4) ?grid ?only ?workload
    (ws : Weighted.structure) q =
  match Local_scheme.prepare ~options ws q with
  | Error e -> Error ("attack suite: " ^ e)
  | Ok scheme ->
      let qs = Local_scheme.query_system scheme in
      let active = Query_system.active qs in
      let nactive = List.length active in
      let grid = match grid with Some g -> g | None -> default_grid ~active:nactive in
      let capacity = Local_scheme.capacity scheme in
      let base = Local_scheme.carriers scheme in
      let message = Codec.of_int ~bits:message_bits (0b1011 land ((1 lsl message_bits) - 1)) in
      let usable = List.filter (fun r -> r * message_bits <= capacity) redundancies in
      if usable = [] then
        Error
          (Printf.sprintf
             "attack suite: capacity %d cannot hold %d bits at any requested \
              redundancy"
             capacity message_bits)
      else begin
        (* One grid cell = one task.  Marking is done once per redundancy
           (sequentially — it is cheap and shared), the cells carry their
           own PRNG seeded by grid position, so the row list is identical
           to the sequential sweep for every job count. *)
        (* The complement-marked second copy the mix-and-match rows splice
           from, and the certificate capsules of both copies. *)
        let other_message =
          Codec.of_int ~bits:message_bits
            (lnot (Codec.to_int message) land ((1 lsl message_bits) - 1))
        in
        let cells =
          List.concat_map
            (fun times ->
              let marked = Robust.mark base ~times message ws.Weighted.weights in
              let marked_ws = { ws with Weighted.weights = marked } in
              let cap = Recovery.protect marked_ws in
              let other =
                Robust.mark base ~times other_message ws.Weighted.weights
              in
              let other_cap =
                Recovery.protect { ws with Weighted.weights = other }
              in
              List.mapi
                (fun index spec ->
                  (times, marked, marked_ws, cap, other, other_cap, index, spec))
                grid)
            usable
        in
        (* Every cell scores one ownership hypothesis, so the grid is a
           family of simultaneous tests: accuse only below the
           Šidák-corrected threshold over the FULL grid (computed before
           the --only filter, so a replayed cell keeps its verdict). *)
        let accuse_threshold =
          Detector.sidak ~alpha:0.01 ~tests:(List.length cells)
        in
        let cells =
          match only with
          | None -> cells
          | Some keep ->
              (* filter AFTER indexing: a replayed cell keeps the PRNG of
                 its original grid position *)
              List.filter
                (fun (_, _, _, _, _, _, index, _) -> List.mem index keep)
                cells
        in
        let base_ix = Local_scheme.index scheme in
        let base_gf = Gaifman.of_structure ws.Weighted.graph in
        let run_cell (times, marked, marked_ws, cap, other, other_cap, index, spec)
            =
          let g = cell_prng ~seed ~redundancy:times ~index in
          let capsule = ref cap in
          let suspect_ws, distortion, type_drift =
            match spec with
            | Weights a ->
                let attacked = Adversary.apply g a ~active marked in
                ( { ws with Weighted.weights = attacked },
                  Some (Distortion.global qs marked attacked),
                  None )
            | Mixed { fraction } ->
                let attacked =
                  Adversary.apply g
                    (Adversary.Mix_and_match { other; fraction })
                    ~active marked
                in
                ( { ws with Weighted.weights = attacked },
                  Some (Distortion.global qs marked attacked),
                  None )
            | Informed_offset { delta } ->
                let attacked =
                  Adversary.apply g
                    (Adversary.Targeted_offset
                       { pairs = Local_scheme.pairs scheme; delta })
                    ~active marked
                in
                ( { ws with Weighted.weights = attacked },
                  Some (Distortion.global qs marked attacked),
                  None )
            | Capsule_mix { fraction } ->
                (* weights AND certificates from the second copy: the
                   surviving records are authentic but describe the other
                   marking — repair can now be actively wrong *)
                let attacked =
                  Adversary.apply g
                    (Adversary.Mix_and_match { other; fraction })
                    ~active marked
                in
                capsule := Recovery.splice g ~fraction !capsule ~other:other_cap;
                ( { ws with Weighted.weights = attacked },
                  Some (Distortion.global qs marked attacked),
                  None )
            | Structural a ->
                (Adversary.apply_structural g a marked_ws, None, None)
            | Edited a ->
                (* The script keeps surviving element ids, so its dirty set
                   drives an incremental reindex from the scheme's base
                   index: type drift costs one dirty-region sweep per cell
                   instead of two full universe typings. *)
                let suspect, _script, dirty =
                  Adversary.apply_edit_attack g a marked_ws
                in
                let gf =
                  Gaifman.refresh suspect.Weighted.graph ~prev:base_gf ~dirty
                in
                let suspect_ix =
                  Neighborhood.reindex ~old:ws.Weighted.graph
                    ~old_gf:base_gf suspect.Weighted.graph ~gf ~prev:base_ix
                    ~dirty
                in
                let drift =
                  not
                    (Incremental.type_preserving_ix ~old_graph:ws.Weighted.graph
                       ~old_gf:base_gf ~old_index:base_ix
                       ~new_graph:suspect.Weighted.graph ~gf
                       ~new_index:suspect_ix ~dirty)
                in
                (suspect, None, Some drift)
          in
          let rv, _alignment =
            Survivable.detect_structure base ~times
              ~length:message_bits ~original:ws ~suspect:suspect_ws
          in
          let carriers = times * message_bits in
          let erased = rv.Robust.carriers.Detector.erased in
          let bit_errors = Codec.hamming message rv.Robust.message in
          let naive =
            Robust.detect base ~times ~length:message_bits
              ~original:ws.Weighted.weights ~suspect:suspect_ws.Weighted.weights
          in
          (* Repair-then-detect: audit the suspect against the capsule,
             restore what the surviving certificates support, re-run the
             survivable detector on the repaired copy. *)
          let rv_rep, rep_report, _ =
            Recovery.detect_repaired !capsule base ~times
              ~length:message_bits ~original:ws ~suspect:suspect_ws
          in
          let rep_bit_errors = Codec.hamming message rv_rep.Robust.message in
          let findings = rep_report.Recovery.findings in
          let pvalue = Survivable.match_pvalue ~expected:message rv in
          {
            attack = describe_spec spec;
            grid_index = index;
            cell_seed = (seed * 1_000_003) + (times * 1009) + index;
            params = spec_params spec;
            redundancy = times;
            bits = message_bits;
            carriers;
            erased;
            erasure_rate = float_of_int erased /. float_of_int (max 1 carriers);
            bit_errors;
            ber = float_of_int bit_errors /. float_of_int message_bits;
            pvalue;
            accused = pvalue <= accuse_threshold;
            distortion;
            recovered = Bitvec.equal message rv.Robust.message;
            naive_recovered = Bitvec.equal message naive;
            type_drift;
            rec_recovered = Bitvec.equal message rv_rep.Robust.message;
            recovered_bits = max 0 (bit_errors - rep_bit_errors);
            false_repairs = max 0 (rep_bit_errors - bit_errors);
            groups_repaired = rep_report.Recovery.repaired;
            groups_unrepairable = rep_report.Recovery.unrepairable;
            groups_distorted = findings.Recovery.distorted;
            groups_erased = findings.Recovery.erased;
          }
        in
        let timed_cell ((times, _, _, _, _, _, index, spec) as cell) =
          Obs.incr c_cells;
          (* seed + parameters in the span detail: any cell in a trace is
             replayable standalone (wmark attack --seed S --only I). *)
          Obs.span
            ~detail:
              (Printf.sprintf "%s R=%d idx=%d seed=%d [%s]"
                 (describe_spec spec) times index
                 ((seed * 1_000_003) + (times * 1009) + index)
                 (spec_params spec))
            t_cell
            (fun () -> run_cell cell)
        in
        let rows = Wm_par.Pool.map_list timed_cell cells in
        Ok
          {
            workload =
              (match workload with
              | Some w -> w
              | None -> Printf.sprintf "structure, %d active weights" nactive);
            message;
            capacity;
            active = nactive;
            rows;
          }
      end

let csv_header =
  "attack,grid_index,cell_seed,params,redundancy,bits,carriers,erased,erasure_rate,bit_errors,ber,pvalue,accused,distortion,recovered,naive_recovered,type_drift,rec_recovered,recovered_bits,false_repairs,groups_repaired,groups_unrepairable,groups_distorted,groups_erased"

let to_csv r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun o ->
      Buffer.add_string buf
        (Printf.sprintf
           "%S,%d,%d,%S,%d,%d,%d,%d,%.4f,%d,%.4f,%.3g,%b,%s,%b,%b,%s,%b,%d,%d,%d,%d,%d,%d\n"
           o.attack o.grid_index o.cell_seed o.params o.redundancy o.bits
           o.carriers o.erased o.erasure_rate o.bit_errors o.ber o.pvalue
           o.accused
           (match o.distortion with Some d -> string_of_int d | None -> "")
           o.recovered o.naive_recovered
           (match o.type_drift with Some b -> string_of_bool b | None -> "")
           o.rec_recovered o.recovered_bits o.false_repairs o.groups_repaired
           o.groups_unrepairable o.groups_distorted o.groups_erased))
    r.rows;
  Buffer.contents buf

let outcome_to_json o =
  Wm_util.Json.(
    Obj
      [
        ("attack", String o.attack);
        ("redundancy", Int o.redundancy);
        ("bits", Int o.bits);
        ("carriers", Int o.carriers);
        ("erased", Int o.erased);
        ("erasure_rate", Float o.erasure_rate);
        ("bit_errors", Int o.bit_errors);
        ("ber", Float o.ber);
        ("pvalue", Float o.pvalue);
        ("accused", Bool o.accused);
        ( "distortion",
          match o.distortion with Some d -> Int d | None -> Null );
        ("recovered", Bool o.recovered);
        ("naive_recovered", Bool o.naive_recovered);
        ( "type_drift",
          (match o.type_drift with Some b -> Bool b | None -> Null) );
        ("grid_index", Int o.grid_index);
        ("cell_seed", Int o.cell_seed);
        ("params", String o.params);
        ("rec_recovered", Bool o.rec_recovered);
        ("recovered_bits", Int o.recovered_bits);
        ("false_repairs", Int o.false_repairs);
        ("groups_repaired", Int o.groups_repaired);
        ("groups_unrepairable", Int o.groups_unrepairable);
        ("groups_distorted", Int o.groups_distorted);
        ("groups_erased", Int o.groups_erased);
      ])

let to_json r =
  Wm_util.Json.(
    Obj
      [
        ("workload", String r.workload);
        ("message", Int (Codec.to_int r.message));
        ("message_bits", Int (Bitvec.length r.message));
        ("capacity", Int r.capacity);
        ("active", Int r.active);
        ("rows", List (List.map outcome_to_json r.rows));
      ])

let render r =
  let t =
    Texttab.create
      [
        "attack"; "R"; "erased"; "BER"; "p-value"; "verdict"; "d'";
        "survivable"; "aligned"; "types"; "repaired"; "+bits"; "false";
      ]
  in
  List.iter
    (fun o ->
      Texttab.addf t "%s|%d|%d/%d|%.2f|%.2g|%s|%s|%s|%s|%s|%s|%d|%d" o.attack
        o.redundancy o.erased o.carriers o.ber o.pvalue
        (if o.accused then "accused" else "-")
        (match o.distortion with Some d -> string_of_int d | None -> "-")
        (if o.recovered then "recovered" else "LOST")
        (if o.naive_recovered then "recovered" else "LOST")
        (match o.type_drift with
        | Some true -> "drift"
        | Some false -> "stable"
        | None -> "-")
        (if o.rec_recovered then "recovered" else "LOST")
        o.recovered_bits o.false_repairs)
    r.rows;
  Printf.sprintf
    "workload: %s\nmessage: %d bits (%d), capacity %d, active %d\n%s"
    r.workload (Bitvec.length r.message) (Codec.to_int r.message) r.capacity
    r.active (Texttab.render t)

let pp fmt r = Format.pp_print_string fmt (render r)
