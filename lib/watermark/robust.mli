(** The Khanna-Zane adversarial wrapper (Fact 1).

    Any non-adversarial scheme becomes adversarial under the bounded-
    distortion and limited-knowledge assumptions: spread each message bit
    over R pair slots and majority-vote at detection.  An attacker who can
    move each weight by a bounded amount and does not know the pair
    positions must corrupt a majority of a bit's R copies to flip it —
    the failure probability decays with R, which experiment E10 measures
    against attack budgets.  {!vote} is the one repetition vote: {!detect}
    and the realigning {!Survivable.detect_structure} and
    {!Survivable.detect_tree} all decode through it. *)

val redundancy_for : Carriers.t -> message_length:int -> int
(** {!Wm_util.Codec.redundancy} of the carriers' capacity: the largest
    odd R with R * message_length <= capacity (>= 1). *)

val mark : Carriers.t -> times:int -> Bitvec.t -> Weighted.t -> Weighted.t
(** Embed [times] interleaved copies, zero-padded to the full capacity:
    every carrier is oriented. *)

type verdict = {
  message : Bitvec.t;
      (** {!Wm_util.Codec.vote} per message bit over the {e surviving}
          copies; a tie or an all-erased bit reads as 0 *)
  carriers : Detector.verdict;  (** the raw carrier-level verdict *)
  times : int;
  erased_bits : int;  (** message bits all of whose copies were erased *)
  all_erased : bool;
      (** {e every} carrier was erased: the message field is vacuous
          (all-zero by the tie rule, not decoded),
          {!Survivable.match_pvalue} is the uninformative 1.0 over zero
          trials, and no ownership claim of any kind is supported.
          Callers must check this flag before reading [message] — a
          total wipe-out is an explicit verdict, not a confident
          all-zero decode. *)
}

val vote : times:int -> length:int -> Detector.verdict -> verdict
(** Decode a [length]-bit message embedded with {!mark} [~times] (the
    {!Wm_util.Codec.repeat} layout) from a verdict over its first
    [times * length] carriers: carrier [t * length + i] votes for bit [i]
    by {!Wm_util.Codec.vote}, and an erased carrier abstains instead of
    voting 0, so a bit is lost only when a majority of its {e surviving}
    copies is corrupted, or every copy is erased.  A {e silent} carrier
    (zero difference) is not erased: it votes the 0 that {!Detector.read}
    decodes there, so every observed copy counts, and the strength of the
    evidence is weighed apart, by the p-value over surviving carriers.
    {!Fingerprint.decode} lets silent carriers abstain instead, on
    purpose: its decided bits are the trials of every candidate's
    agreement test, and unmarked data is silent almost everywhere, so a
    silent 0 would match every codeword's 0 bits and could accuse an
    innocent.  Raises [Invalid_argument] unless the verdict
    covers exactly [times * length] carriers and [times > 0]. *)

val detect :
  Carriers.t -> times:int -> length:int -> original:Weighted.t ->
  suspect:Weighted.t -> Bitvec.t
(** The voted message of a weights-only suspect copy: the first
    [times * length] carriers read by {!Detector.read_weights} (total
    observation, so no carrier abstains), then {!vote}.  A tied bit (even
    [times]) reads as 0. *)
