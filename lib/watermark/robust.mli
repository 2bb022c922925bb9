(** The Khanna-Zane adversarial wrapper (Fact 1).

    Any non-adversarial scheme becomes adversarial under the bounded-
    distortion and limited-knowledge assumptions: spread each message bit
    over R pair slots and majority-vote at detection.  An attacker who can
    move each weight by a bounded amount and does not know the pair
    positions must corrupt a majority of a bit's R copies to flip it —
    the failure probability decays with R, which experiment E10 measures
    against attack budgets. *)

val redundancy_for : Carriers.t -> message_length:int -> int
(** {!Wm_util.Codec.redundancy} of the carriers' capacity: the largest
    odd R with R * message_length <= capacity (>= 1). *)

val mark : Carriers.t -> times:int -> Bitvec.t -> Weighted.t -> Weighted.t
(** Embed [times] interleaved copies, zero-padded to the full capacity:
    every carrier is oriented. *)

val detect :
  Carriers.t -> times:int -> length:int -> original:Weighted.t ->
  server:Query_system.server -> Bitvec.t
(** Decode a length-[length] message by {!Wm_util.Codec.vote} over the
    first [times * length] carriers, all capacity bits read through
    {!Carriers.detect}: an unobserved carrier votes 0 rather than
    abstaining, and a tied bit (even [times]) reads as 0. *)
