(* Multi-recipient fingerprinting (see fingerprint.mli).

   Observability: fp.copies counts generated copies, fp.reads carrier
   reads, fp.traces tracing runs, fp.scored candidates scored,
   fp.tails binomial-tail evaluations (at most decided + 1 per trace),
   fp.accused accusations made, fp.cells collusion-grid cells; fp.mark /
   fp.read / fp.trace / fp.grid time the corresponding phases. *)

module Obs = Wm_obs.Obs

let c_copies = Obs.counter "fp.copies"
let c_reads = Obs.counter "fp.reads"
let c_traces = Obs.counter "fp.traces"
let c_scored = Obs.counter "fp.scored"
let c_tails = Obs.counter "fp.tails"
let c_accused = Obs.counter "fp.accused"
let c_cells = Obs.counter "fp.cells"
let t_mark = Obs.timer "fp.mark"
let t_read = Obs.timer "fp.read"
let t_trace = Obs.timer "fp.trace"
let t_grid = Obs.timer "fp.grid"
let t_cell = Obs.timer "fp.cell"

type t = {
  carriers : Carriers.t;  (* the marked prefix: times * length pairs *)
  master : int;
  prefix : int;  (* the master key hashed once: [master_prefix master] *)
  length : int;
  times : int;
}

let length t = t.length
let times t = t.times
let master t = t.master

(* --- key derivation -------------------------------------------------- *)

(* FNV-1a with the master key mixed in as a prefix (same construction as
   the recovery layer's keyed certificates): without the master key the
   per-recipient keys, and hence the codewords, are unpredictable.  The
   prefix depends on the master alone, so a context hashes it once. *)
let master_prefix master =
  let h = Fnv.string Fnv.basis (string_of_int master) in
  (h lxor 0x7C) * Fnv.prime

let key_of_prefix prefix rid = Fnv.string prefix rid land max_int

let recipient_key ~master rid = key_of_prefix (master_prefix master) rid

let codeword_prng t rid = Prng.create (key_of_prefix t.prefix rid)

let codeword t rid = Codec.random (codeword_prng t rid) t.length

(* --- construction ---------------------------------------------------- *)

let geometry ?length ?times capacity =
  let length = match length with Some l -> l | None -> min 128 capacity in
  if length <= 0 then Error "fingerprint: codeword length must be positive"
  else if length > capacity then
    Error
      (Printf.sprintf "fingerprint: codeword length %d exceeds capacity %d"
         length capacity)
  else
    let times =
      match times with
      | Some r -> r
      | None -> Codec.redundancy ~capacity ~length
    in
    if times < 1 then Error "fingerprint: times must be >= 1"
    else if times * length > capacity then
      Error
        (Printf.sprintf
           "fingerprint: %d x %d carrier bits exceed capacity %d" times
           length capacity)
    else Ok (length, times)

let of_local ?length ?times ~master scheme =
  let carriers = Multi_scheme.carriers scheme in
  match geometry ?length ?times (Carriers.capacity carriers) with
  | Error _ as e -> e
  | Ok (length, times) ->
      Ok
        {
          carriers = Carriers.prefix carriers (times * length);
          master;
          prefix = master_prefix master;
          length;
          times;
        }

(* --- generation ------------------------------------------------------ *)

let mark_for t rid w =
  Obs.time t_mark @@ fun () ->
  Obs.incr c_copies;
  Carriers.mark t.carriers (Codec.repeat ~times:t.times (codeword t rid)) w

(* The header (format tag, arity, default), then every binding through
   {!Weighted.fnv}: one loop over the flat buffers, no call per entry. *)
let digest w =
  let mix h x = (h lxor x) * Fnv.prime in
  let h = mix (Fnv.string Fnv.basis "qpwm-fp/1") (Weighted.arity w) in
  Weighted.fnv (mix h (Weighted.default w)) w land max_int

(* --- tracing --------------------------------------------------------- *)

let read t ~original ~suspect =
  Obs.time t_read @@ fun () ->
  Obs.incr c_reads;
  Detector.classify_weights ~original ~suspect
    (Array.of_list (Carriers.pairs t.carriers))

(* Per message bit, a tie-explicit majority over the surviving signal
   carriers.  Silent carriers (zero difference — what collusion leaves
   wherever the coalition's codewords split evenly) and erasures abstain
   rather than voting false; a tied or empty vote decides nothing.
   Scoring decided bits, not raw carriers, is what keeps the innocent
   null exactly Binomial(decided, 1/2): the [times] repetitions of one
   message bit are correlated in the suspect, so counting them as
   independent trials would fatten the tail and accuse innocents. *)
let decode t carriers =
  if Array.length carriers <> t.times * t.length then
    invalid_arg "Fingerprint.decode: carrier count mismatch";
  Codec.vote ~times:t.times ~length:t.length (fun j ->
      match carriers.(j) with
      | Detector.Cell (bit, (`Strong | `Weak)) -> Some bit
      | Detector.Cell (_, `Silent) | Detector.Erased -> None)

type score = {
  rid : string;
  agreements : int;
  trials : int;
  pvalue : float;
  accused : bool;
}

type trace_report = {
  candidates : int;
  alpha : float;
  threshold : float;
  decided : int;
  scores : score list;
  accused : string list;
}

(* The decided bits, 62 to a word: bit [i] of the decoded array is bit
   [i mod 62] of word [i / 62], set in [known] when the bit is decided
   and in [value] when it is decided true.  Word [w] of a codeword is
   the next {!Prng.bools} draw of the recipient's stream ({!Codec.random}
   draws bit [i] as its [i]-th [bool]), so a candidate's agreements are
   one popcount per word, with no branch per bit (DESIGN.md 5.13). *)
type packed = { known : int array; value : int array; decided : int }

let word_bits = 62

(* SWAR population count; exact for the non-negative 62-bit words here. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let pack t decoded =
  if Array.length decoded <> t.length then
    invalid_arg "Fingerprint.score: decoded length mismatch";
  let words = (t.length + word_bits - 1) / word_bits in
  let known = Array.make words 0 and value = Array.make words 0 in
  Array.iteri
    (fun i v ->
      let w = i / word_bits and bit = 1 lsl (i mod word_bits) in
      match v with
      | Some b ->
          known.(w) <- known.(w) lor bit;
          if b then value.(w) <- value.(w) lor bit
      | None -> ())
    decoded;
  { known; value; decided = Array.fold_left (fun n k -> n + popcount k) 0 known }

let agreements t p rid =
  let g = codeword_prng t rid in
  let agree = ref 0 in
  for w = 0 to Array.length p.known - 1 do
    let c = Prng.bools g (min word_bits (t.length - (w * word_bits))) in
    let same = lnot (c lxor Array.unsafe_get p.value w) in
    agree := !agree + popcount (Array.unsafe_get p.known w land same)
  done;
  !agree

let score t decoded rid =
  let p = pack t decoded in
  (agreements t p rid, p.decided)

let trace ?(alpha = 0.01) t ~original ~suspect candidates =
  if candidates = [] then invalid_arg "Fingerprint.trace: no candidates";
  Obs.time t_trace @@ fun () ->
  Obs.incr c_traces;
  let carriers = read t ~original ~suspect in
  let packed = pack t (decode t carriers) in
  let decided = packed.decided in
  let n = List.length candidates in
  let threshold = Detector.sidak ~alpha ~tests:n in
  let counts = Wm_par.Pool.map_list (agreements t packed) candidates in
  (* Every candidate is scored against the same decided bits, so trials
     is always [decided] and a p-value depends on the agreement count
     alone: one tail per distinct count, filled on this domain in
     candidate order, instead of one per candidate. *)
  let tails = Array.make (decided + 1) Float.nan in
  let tail_of = Detector.binomial_tails ~trials:decided in
  let tail k =
    if Float.is_nan tails.(k) then begin
      Obs.incr c_tails;
      tails.(k) <- tail_of k
    end;
    tails.(k)
  in
  let scores =
    List.map2
      (fun rid agreements ->
        let pvalue = tail agreements in
        { rid; agreements; trials = decided; pvalue; accused = pvalue <= threshold })
      candidates counts
  in
  Obs.add c_scored n;
  let accused =
    List.filter_map
      (fun (s : score) -> if s.accused then Some s.rid else None)
      scores
  in
  Obs.add c_accused (List.length accused);
  { candidates = n; alpha; threshold; decided; scores; accused }

let verify t rid ~original ~suspect =
  let cw = codeword t rid in
  let votes = decode t (read t ~original ~suspect) in
  let ok = ref true in
  Array.iteri (fun i v -> if v <> Some (Bitvec.get cw i) then ok := false) votes;
  !ok

(* --- the collusion grid ---------------------------------------------- *)

type outcome = {
  grid_index : int;
  cell_seed : int;
  recipients : int;
  coalition : int;
  attack : string;
  params : string;
  noise : int;
  caught : int;
  false_accusations : int;
  traced : bool;
  accuracy : float;
  threshold : float;
  min_member_p : float;
  min_innocent_p : float;
}

type grid_report = {
  length : int;
  times : int;
  alpha : float;
  rows : outcome list;
}

let attack_tag = function
  | Adversary.Coalition_majority -> "majority"
  | Adversary.Coalition_mix -> "mix"
  | Adversary.Coalition_interleave -> "interleave"

let run_grid ?(seed = 0xF19) ?(alpha = 0.001) ?(noise = 1)
    ?(recipients = [ 1000 ]) ?(coalitions = [ 1; 2; 3 ])
    ?(attacks =
      [
        Adversary.Coalition_majority; Adversary.Coalition_mix;
        Adversary.Coalition_interleave;
      ]) ?(prefix = "r") t w =
  Obs.time t_grid @@ fun () ->
  let active = Query_system.active (Carriers.query_system t.carriers) in
  let cells =
    List.concat_map
      (fun nrec ->
        List.concat_map
          (fun k -> List.map (fun a -> (nrec, k, a)) attacks)
          coalitions)
      recipients
    |> List.mapi (fun index cell -> (index, cell))
  in
  let run_cell (index, (nrec, k, attack)) =
    Obs.incr c_cells;
    (* the cell's grid position is its seed: adding rows to the grid
       never reshuffles earlier ones (the Attack_suite convention) *)
    let cell_seed = (seed * 1_000_003) + (index * 1009) in
    let g = Prng.create cell_seed in
    let rid i = prefix ^ string_of_int i in
    let coalition = Prng.sample g k (Array.init nrec Fun.id) in
    let k = Array.length coalition in
    let copies =
      Array.mapi
        (fun ci ridx ->
          let m = mark_for t (rid ridx) w in
          if noise <= 0 then m
          else
            (* each colluder launders its own copy on its own derived
               stream — shared noise would cancel in weight differences *)
            Adversary.apply
              (Adversary.copy_prng ~cell_seed ~copy:ci)
              (Adversary.Uniform_noise { amplitude = noise })
              ~active m)
        coalition
    in
    let colluded =
      Adversary.apply_collusion g attack ~active copies
    in
    let rep =
      trace ~alpha t ~original:w ~suspect:colluded
        (List.init nrec rid)
    in
    let is_member = Array.make nrec false in
    Array.iter (fun i -> is_member.(i) <- true) coalition;
    let caught = ref 0 and falsely = ref 0 in
    let min_m = ref 1.0 and min_i = ref 1.0 in
    List.iteri
      (fun i (s : score) ->
        if is_member.(i) then begin
          if s.accused then incr caught;
          if s.pvalue < !min_m then min_m := s.pvalue
        end
        else begin
          if s.accused then incr falsely;
          if s.pvalue < !min_i then min_i := s.pvalue
        end)
      rep.scores;
    {
      grid_index = index;
      cell_seed;
      recipients = nrec;
      coalition = k;
      attack = Adversary.describe_collusion attack;
      params =
        Printf.sprintf "collusion:attack=%s,recipients=%d,coalition=%d,noise=%d"
          (attack_tag attack) nrec k noise;
      noise;
      caught = !caught;
      false_accusations = !falsely;
      traced = !caught > 0;
      accuracy = float_of_int !caught /. float_of_int (max 1 k);
      threshold = rep.threshold;
      min_member_p = !min_m;
      min_innocent_p = !min_i;
    }
  in
  let timed_cell ((index, (nrec, k, attack)) as cell) =
    Obs.span
      ~detail:
        (Printf.sprintf "%s N=%d k=%d idx=%d seed=%d"
           (Adversary.describe_collusion attack)
           nrec k index
           ((seed * 1_000_003) + (index * 1009)))
      t_cell
      (fun () -> run_cell cell)
  in
  let rows = Wm_par.Pool.map_list timed_cell cells in
  { length = t.length; times = t.times; alpha; rows }

let render_grid r =
  let t =
    Texttab.create
      [
        "recipients"; "k"; "attack"; "noise"; "caught"; "false"; "accuracy";
        "member p"; "innocent p"; "traced";
      ]
  in
  List.iter
    (fun o ->
      Texttab.addf t "%d|%d|%s|%d|%d/%d|%d|%.2f|%.2g|%.2g|%s" o.recipients
        o.coalition o.attack o.noise o.caught o.coalition o.false_accusations
        o.accuracy o.min_member_p o.min_innocent_p
        (if o.traced then "traced" else "MISSED"))
    r.rows;
  Printf.sprintf "codeword: %d bits x %d copies, alpha %g (Sidak-corrected)\n%s"
    r.length r.times r.alpha (Texttab.render t)
