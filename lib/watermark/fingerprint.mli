(** Multi-recipient fingerprinting with collusion-resistant tracing.

    The schemes embed {e one} message per marked instance; production
    watermarking must identify {e which} of many recipients leaked a
    copy.  This layer derives one key per recipient from a single master
    key (a keyed FNV transform, GUIDWatermark-style — recipient ids are
    arbitrary strings, so the id space is unbounded and 2^64+ ids cost
    nothing), expands each key into a pseudorandom codeword, and embeds
    the codeword through the shared prepared scheme's pair carriers
    ({!Pairing} orientations, [times] interleaved repetitions a la
    {!Robust}).  Every recipient's copy is a query-preserving marking of
    the {e same} prepared scheme: preparation happens once, generation is
    O(codeword) marks per copy.

    Tracing scores every candidate recipient against a suspect copy: the
    carriers are read once, each message bit is decoded by tie-explicit
    majority over its surviving signal carriers (silent and erased
    carriers abstain, and a tie decides nothing — see
    {!Wm_util.Codec.vote}), and a
    candidate's p-value is the binomial tail of its codeword's agreement
    with the decided bits.  Because bits are decided independently and an
    innocent's codeword bits are uniform, the null distribution is
    exactly Binomial(decided, 1/2) — scoring raw carriers instead would
    correlate the [times] repetitions of each bit and wreck the tail.
    Accusation applies the Šidák-corrected threshold
    ({!Detector.sidak}), so the family-wise false-accusation rate over
    all candidates stays at [alpha].

    Collusion (Boneh–Shaw regime): k colluders combining their copies
    ({!Adversary.collusion}) can silence carriers where their codewords
    disagree, but the majority orientation still follows each member's
    codeword on ~3/4 of the bits, which the binomial score separates from
    the innocents' 1/2 given enough codeword bits.  {!run_grid} measures
    exactly this — tracing accuracy and false accusations over a
    (recipient count x coalition size x attack) grid. *)

type t
(** A fingerprinting context: the marked prefix of a prepared scheme's
    carriers ({!Carriers.prefix}, [times * length] pairs) plus the master
    key and the codeword geometry (length, repetitions). *)

val of_local :
  ?length:int -> ?times:int -> master:int -> Multi_scheme.t ->
  (t, string) result
(** Layer over a prepared {!Multi_scheme} (so also a {!Local_scheme}):
    each recipient's copy preserves every registered query at once, and
    the active set is that of {!Multi_scheme.query_system}.  [length] is
    the codeword size in bits (default [min 128 capacity]); [times] the
    repetition count (default the largest odd value with
    [times * length <= capacity]).  [Error _] when the geometry does not
    fit the scheme's capacity. *)

val length : t -> int
val times : t -> int
val master : t -> int

val recipient_key : master:int -> string -> int
(** The keyed FNV derivation: one master key -> one integer key per
    recipient id.  Deterministic and platform-stable; an adversary
    without the master key cannot predict any recipient's key. *)

val codeword : t -> string -> Bitvec.t
(** [codeword t rid] is the recipient's [length t]-bit codeword — the
    PRNG expansion of {!recipient_key}.  Distinct recipients get
    independent uniform codewords with overwhelming probability. *)

val mark_for : t -> string -> Weighted.t -> Weighted.t
(** [mark_for t rid w] embeds [rid]'s codeword ([times] interleaved
    repetitions) into the original weights [w] — one recipient's
    fingerprinted copy.  Deterministic; O(times * length) marks.

    Cost: one blit of the weights per copy plus O(times * length)
    patches: {!Carriers.mark} runs the orientation rule
    ({!Pairing.iter_orientation_marks}) straight into the copy's value
    buffer through {!Weighted.apply_mark_iter}, so no key array is
    rebuilt, no (tuple, delta) list is built and no carrier-length
    scratch is allocated; plus [length] PRNG draws for the codeword.
    Minor allocation is a few dozen words per copy (the codeword and
    its repetition; the value buffer is a Bigarray outside the OCaml
    heap). *)

val digest : Weighted.t -> int
(** A non-negative FNV digest of the full weight assignment (ascending
    binding order) — how the serving layer ships proof of 10^4 generated
    copies over the wire without shipping the copies: equal weights give
    equal digests at every job count.

    Cost: one serial FNV pass ({!Weighted.fnv}), a loop over the flat
    key and value buffers with no call per entry; allocation-free on a
    value without a pending overlay. *)

val read : t -> original:Weighted.t -> suspect:Weighted.t ->
  Detector.carrier array
(** Classify the scheme's [times * length] fingerprint carriers against a
    suspect weight assignment (through {!Detector.classify_weights}). *)

val decode : t -> Detector.carrier array -> bool option array
(** Per message bit, {!Wm_util.Codec.vote} over its carriers: strong and
    weak carriers vote their orientation, silent and erased ones
    abstain ({!Robust.vote} says why the owner's vote counts a silent
    carrier as 0 instead).  [Some b] on a strict majority, [None] when
    the carriers tie or all abstain. *)

type score = {
  rid : string;
  agreements : int;  (** decided bits matching the candidate's codeword *)
  trials : int;  (** decided bits (candidate-independent) *)
  pvalue : float;  (** binomial tail of the agreement under the null *)
  accused : bool;  (** pvalue <= the Šidák-corrected threshold *)
}

type trace_report = {
  candidates : int;
  alpha : float;  (** requested family-wise error level *)
  threshold : float;  (** Šidák per-candidate threshold actually applied *)
  decided : int;  (** message bits the suspect copy decided *)
  scores : score list;  (** in candidate order *)
  accused : string list;  (** accused recipient ids, in candidate order *)
}

val score : t -> bool option array -> string -> int * int
(** [score t decoded rid] is [(agreements, trials)] of [rid]'s codeword
    against the decoded bits — exposed for the serving layer and tests;
    {!trace} wraps it with the p-value and the corrected threshold.
    Packs the decided bits 62 to a word (known, value), then draws the
    codeword a word at a time ({!Wm_util.Prng.bools}: [length t] draws,
    no branch per draw) and counts agreements by one popcount per word,
    without building the codeword; the counts equal those of
    {!codeword}. *)

val trace :
  ?alpha:float -> t -> original:Weighted.t ->
  suspect:Weighted.t -> string list -> trace_report
(** Read the suspect's carriers once, then score every candidate
    (parallel over candidates) and accuse those below the Šidák-corrected
    threshold for [alpha] (default 0.01) over [List.length candidates]
    tests.  Raises [Invalid_argument] on an empty candidate list.
    Deterministic and bit-identical at every job count.

    Cost: one carrier read, one packing of the decided bits, then
    [candidates x length] PRNG draws for the scoring (per candidate one
    FNV pass over its id, then per 62-bit word one branch-free
    {!Wm_util.Prng.bools} draw and one popcount against the packed
    bits; a candidate allocates only its generator and its report
    cells), and at most [decided + 1]
    binomial-tail evaluations — every candidate shares
    [trials = decided], so each distinct agreement count is evaluated
    once over a per-trace row of log binomial coefficients
    ({!Detector.binomial_tails}, bit-identical to a per-candidate
    {!Detector.binomial_tail}) and looked up thereafter. *)

val verify : t -> string -> original:Weighted.t -> suspect:Weighted.t -> bool
(** Exact single-recipient check: {!read} then {!decode} the carriers
    (weights-only read), and require every bit decided and equal to
    [rid]'s codeword.  A copy marked for another recipient —
    equivalently, a detect under the wrong recipient key — fails with
    overwhelming probability, and an unmarked copy (every carrier
    silent, no bit decided) verifies for nobody. *)

(** {1 The collusion grid}

    The fingerprinting analogue of {!Attack_suite}: deterministic cells
    over (recipient count x coalition size x collusion attack), each cell
    seeded by its grid position so adding rows never reshuffles earlier
    ones. *)

type outcome = {
  grid_index : int;
  cell_seed : int;  (** derived per-cell seed, for standalone replay *)
  recipients : int;
  coalition : int;  (** k — 1 means a single leaker, no collusion *)
  attack : string;
  params : string;  (** machine-readable [kind:key=value] cell params *)
  noise : int;  (** per-copy laundering noise amplitude *)
  caught : int;  (** coalition members accused *)
  false_accusations : int;  (** innocents accused *)
  traced : bool;  (** at least one member accused *)
  accuracy : float;  (** caught / coalition *)
  threshold : float;  (** Šidák threshold applied in this cell *)
  min_member_p : float;  (** best (smallest) coalition-member p-value *)
  min_innocent_p : float;  (** best innocent p-value (1.0 if none) *)
}

type grid_report = {
  length : int;
  times : int;
  alpha : float;
  rows : outcome list;
}

val run_grid :
  ?seed:int -> ?alpha:float -> ?noise:int ->
  ?recipients:int list -> ?coalitions:int list ->
  ?attacks:Adversary.collusion list -> ?prefix:string -> t -> Weighted.t ->
  grid_report
(** For every cell: draw a coalition from the recipient population,
    generate its fingerprinted copies, perturb each copy on its own
    derived stream ({!Adversary.copy_prng}, amplitude [noise], default
    1), collude them ({!Adversary.apply_collusion}), and {!trace} the
    result against {e all} recipients.  Defaults: seed 0xF19, alpha
    0.001, recipients [[1000]], coalitions [[1; 2; 3]], all three
    attacks, ids [prefix ^ index] with prefix ["r"].  One pool task per
    cell; bit-identical at every job count. *)

val render_grid : grid_report -> string
