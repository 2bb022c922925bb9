(* Observability: how many carriers each read classified, and how the
   classifications split — the per-phase cost the detector contributes to
   an attack-grid cell. *)
module Obs = Wm_obs.Obs

let c_reads = Obs.counter "det.reads"
let c_carriers = Obs.counter "det.carriers"
let c_erased = Obs.counter "det.erased"
let t_read = Obs.timer "det.read"

type verdict = {
  decoded : Bitvec.t;
  erasure : Bitvec.t;
  strong : int;
  weak : int;
  silent : int;
  erased : int;
  confidence : float;
}

(* What one carrier contributes, computed independently per pair. *)
type carrier = Erased | Cell of bool * [ `Strong | `Weak | `Silent ]

(* [d] is the observed difference delta(fst) - delta(snd). *)
let cell d =
  Cell
    (d > 0, if d = 2 || d = -2 then `Strong else if d <> 0 then `Weak else `Silent)

let classify_carrier ~original ~observed { Pairing.fst; snd } =
  let seen t = Tuple.Map.mem t observed in
  if (not (seen fst)) && not (seen snd) then Erased
  else begin
    let delta t =
      match Tuple.Map.find_opt t observed with
      | Some v -> v - Weighted.get original t
      | None -> 0
    in
    cell (delta fst - delta snd)
  end

(* Total observation: both endpoints are read straight from [suspect],
   so no carrier is erased and no observation map is needed. *)
let classify_weights ~original ~suspect pairs =
  let delta t = Weighted.get suspect t - Weighted.get original t in
  Array.map (fun { Pairing.fst; snd } -> cell (delta fst - delta snd)) pairs

(* Sequential accumulation of per-carrier classifications, in index
   order — shared by both readers, so a total observation decodes the
   same verdict through either. *)
let verdict_of_carriers carriers =
  let length = Array.length carriers in
  let decoded = Bitvec.create length in
  let erasure = Bitvec.create length in
  let strong = ref 0 and weak = ref 0 and silent = ref 0 and erased = ref 0 in
  Array.iteri
    (fun i c ->
      match c with
      | Erased ->
          Bitvec.set erasure i true;
          incr erased
      | Cell (bit, kind) -> (
          Bitvec.set decoded i bit;
          match kind with
          | `Strong -> incr strong
          | `Weak -> incr weak
          | `Silent -> incr silent))
    carriers;
  Obs.add c_erased !erased;
  let read_count = length - !erased in
  {
    decoded;
    erasure;
    strong = !strong;
    weak = !weak;
    silent = !silent;
    erased = !erased;
    confidence =
      (if read_count = 0 then 0.
       else float_of_int (!strong + !weak) /. float_of_int read_count);
  }

(* First [n] elements, stopping early — [List.filteri] would traverse
   the whole half-million-pair list on every serve request. *)
let take n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | _ -> List.rev acc
  in
  go n [] l

let take_asked who pairs length =
  let asked = take length pairs in
  if List.length asked < length then
    invalid_arg (who ^ ": length exceeds pair count");
  Array.of_list asked

let counted length classify =
  Obs.time t_read @@ fun () ->
  Obs.incr c_reads;
  Obs.add c_carriers length;
  verdict_of_carriers (classify ())

let read pairs ~original ~observed ~length =
  let asked = take_asked "Detector.read" pairs length in
  counted length @@ fun () ->
  Array.map (classify_carrier ~original ~observed) asked

let read_weights pairs ~original ~suspect ~length =
  (* Only the first [length] carriers are read — a serving engine
     answering thousands of short detects per second on a scheme with
     hundreds of thousands of pairs must not pay O(capacity) per
     request. *)
  let asked = take_asked "Detector.read_weights" pairs length in
  counted length @@ fun () -> classify_weights ~original ~suspect asked

(* log C(n,k) via lgamma-free accumulation to stay in float range. *)
let log_choose n k =
  let k = min k (n - k) in
  let acc = ref 0. in
  for i = 1 to k do
    acc := !acc +. log (float_of_int (n - k + i)) -. log (float_of_int i)
  done;
  !acc

(* The upper tail summed from k = successes up, each term's
   coefficient read through [lc k] = [log_choose trials k]: one
   summation order whether the coefficients are rebuilt per term or read
   from a precomputed row, so both give the same bits. *)
let tail_sum ~p ~trials ~successes lc =
  (* The negated comparison also rejects NaN, which every [<] test lets
     through. *)
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Detector.binomial_tail_p: p must be in [0, 1]";
  if successes <= 0 then 1.
  else if successes > trials then 0.
  else if p = 0. then 0. (* no success is ever drawn *)
  else if p = 1. then 1. (* log (1 - p) = -inf; 0 * -inf = nan at k = trials *)
  else begin
    let lp = log p and lq = log (1. -. p) in
    let total = ref 0. in
    for k = successes to trials do
      total :=
        !total
        +. exp
             (lc k
             +. (float_of_int k *. lp)
             +. (float_of_int (trials - k) *. lq))
    done;
    min 1. !total
  end

let binomial_tail_p ~p ~trials ~successes =
  tail_sum ~p ~trials ~successes (log_choose trials)

let binomial_tail ~trials ~successes = binomial_tail_p ~p:0.5 ~trials ~successes

let binomial_tails ~trials =
  let row = Array.init (max 0 trials + 1) (log_choose trials) in
  fun successes -> tail_sum ~p:0.5 ~trials ~successes (Array.get row)

let match_pvalue ~expected verdict =
  let n = Bitvec.length expected in
  if n <> Bitvec.length verdict.decoded then
    invalid_arg "Detector.match_pvalue: length mismatch";
  let trials = ref 0 and agree = ref 0 in
  for i = 0 to n - 1 do
    if not (Bitvec.get verdict.erasure i) then begin
      incr trials;
      if Bitvec.get expected i = Bitvec.get verdict.decoded i then incr agree
    end
  done;
  binomial_tail ~trials:!trials ~successes:!agree

(* Multiple-testing correction.  A sweep that scores n hypotheses at
   per-test level alpha accuses a wrong one with probability up to
   n * alpha; tracing thousands of candidate recipients, or judging every
   cell of an attack grid, must shrink the per-test threshold to keep the
   family-wise error at alpha. *)
let sidak ~alpha ~tests =
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg "Detector.sidak: alpha must be in (0, 1]";
  if tests < 1 then invalid_arg "Detector.sidak: tests must be >= 1";
  1. -. ((1. -. alpha) ** (1. /. float_of_int tests))

let is_marked ?(alpha = 0.01) verdict =
  let read = verdict.strong + verdict.weak + verdict.silent in
  (* Null hypothesis: no mark.  A pair shows the exact antisymmetric +-2
     signature only if the two weights independently drifted by +-1 in
     opposite directions — probability 2/9 under uniform +-1 noise, 0 for
     an exact copy; 1/4 is a conservative ceiling.  Strong carriers beyond
     what that explains reject the null. *)
  binomial_tail_p ~p:0.25 ~trials:read ~successes:verdict.strong < alpha
