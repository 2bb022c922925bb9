(** Detection statistics: confidence and false-positive control.

    The schemes' [detect] functions return the most likely message; a real
    owner also needs to know {e whether there is a mark at all} before
    accusing anyone.  Definition 2 allows the detector a failure
    probability delta, and Fact 1's limited-knowledge assumption bounds the
    chance beta that an innocent server's data looks gamma-close to a
    marked copy.  This module quantifies both from the observable signal:
    each selected pair should show a weight-difference of exactly (+1,-1)
    or (-1,+1); anything else is noise.

    A pair is a {e strong} carrier when the observed difference
    delta(fst) - delta(snd) is exactly +-2 (an intact orientation), {e weak}
    when it is nonzero but not +-2 (damaged but readable by sign), and
    {e silent} when it is 0 (no signal — what unrelated data shows on
    almost every pair).  A pair neither of whose endpoints was observed at
    all — deleted by a structural attack, or not covered by any asked
    parameter on a query budget — is an {e erasure}: it carries no evidence
    in either direction and is excluded from the statistics rather than
    counted as disagreement.  Under the null hypothesis "no mark", each
    surviving pair's sign is a fair coin at best, so the binomial tail on
    sign-consistency over the survivors gives a p-value for ownership
    claims. *)

type verdict = {
  decoded : Bitvec.t;
  erasure : Bitvec.t;  (** bit i set when carrier i was erased *)
  strong : int;  (** pairs with an intact +-2 difference *)
  weak : int;  (** damaged but sign-readable pairs *)
  silent : int;  (** observed pairs with zero difference *)
  erased : int;  (** pairs with no observed endpoint at all *)
  confidence : float;  (** (strong + weak) / pairs surviving *)
}
(** One read of the carriers.  Where a suspect copy was damaged, group by
    group, is {!Wm_watermark.Recovery.audit}'s separate answer. *)

(** {1 Carriers} *)

type carrier = Erased | Cell of bool * [ `Strong | `Weak | `Silent ]
(** What one pair contributes: no surviving endpoint ([Erased]), or a
    decoded bit with its signal class. *)

val classify_weights :
  original:Weighted.t -> suspect:Weighted.t ->
  Pairing.pair array -> carrier array
(** Classify each pair with both endpoints read straight from [suspect]
    (total observation: no carrier is erased).  Builds no observation
    map and counts nothing: the one classifier behind {!read_weights}
    and {!Wm_watermark.Fingerprint.read}. *)

val read :
  Pairing.pair list -> original:Weighted.t ->
  observed:int Tuple.Map.t -> length:int -> verdict
(** Decode [length] bits from the pair list, classifying each carrier.
    A pair with {e no} observed endpoint is an erasure; a pair with one
    observed endpoint still votes by the sign of the surviving half. *)

val read_weights :
  Pairing.pair list -> original:Weighted.t ->
  suspect:Weighted.t -> length:int -> verdict
(** Total observation: every endpoint is read from [suspect], so no
    carrier is erased.  Classifies through {!classify_weights} and
    decodes the verdict {!read} would give on the map of every asked
    endpoint, without building that map. *)

val binomial_tail : trials:int -> successes:int -> float
(** P[X >= successes] for X ~ Binomial(trials, 1/2) — the null-hypothesis
    p-value of observing that much sign agreement by chance.  Costs
    O((trials - successes) * trials) [log]s, since each term rebuilds its
    binomial coefficient: a caller scoring many tests at one [trials]
    should use {!binomial_tails}. *)

val binomial_tail_p : p:float -> trials:int -> successes:int -> float
(** General-[p] upper tail.  Raises [Invalid_argument] unless
    [0 <= p <= 1] (NaN included); the degenerate endpoints are exact:
    [p = 0] gives 0 and [p = 1] gives 1 for any satisfiable
    [0 < successes <= trials]. *)

val match_pvalue : expected:Bitvec.t -> verdict -> float
(** p-value of the decoded message agreeing with [expected] as much as it
    does, under the no-mark null, conditioned on the {e surviving} carriers
    only — erased positions contribute neither agreement nor trials, so a
    subset attack cannot manufacture disagreement by deleting carriers.
    Small value = confident accusation. *)

val sidak : alpha:float -> tests:int -> float
(** [1 - (1 - alpha)^(1/tests)] — the per-test threshold that keeps the
    family-wise false-accusation probability of [tests] independent
    simultaneous hypothesis tests at exactly [alpha]; slightly less
    conservative than Bonferroni's [alpha / tests] (equal at
    [tests = 1]).  This is what {!Wm_watermark.Fingerprint.trace} and
    the attack grid's per-cell verdicts apply before accusing.  Raises
    [Invalid_argument] unless [0 < alpha <= 1] and [tests >= 1]. *)

val is_marked : ?alpha:float -> verdict -> bool
(** Does the carrier signal itself (ignoring the message value) reject the
    no-mark null at level [alpha] (default 0.01)?  Tests the {e strong}
    count against the conservative ceiling 1/4 on the chance that
    unrelated 1-local noise fakes an exact +-2 antisymmetric pair, over
    the surviving (non-erased) carriers. *)

val binomial_tails : trials:int -> int -> float
(** [binomial_tails ~trials] is [binomial_tail ~trials] for many
    [successes] values at one [trials] (e.g. {!Fingerprint.trace}): the
    row of [log C(trials, k)], k = 0 .. trials, is computed once by the
    same function and each tail sums the same terms in the same order, so
    every result is bit-identical to {!binomial_tail} at O(trials - successes)
    [exp]s per call instead of O((trials - successes) * trials) [log]s. *)
