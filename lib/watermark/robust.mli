(** The Khanna-Zane adversarial wrapper (Fact 1).

    Any non-adversarial scheme becomes adversarial under the bounded-
    distortion and limited-knowledge assumptions: spread each message bit
    over R pair slots and majority-vote at detection.  An attacker who can
    move each weight by a bounded amount and does not know the pair
    positions must corrupt a majority of a bit's R copies to flip it —
    the failure probability decays with R, which experiment E10 measures
    against attack budgets. *)

type base = {
  capacity : int;
  embed : Bitvec.t -> Weighted.t -> Weighted.t;
      (** message of length [capacity] -> marked weights *)
  extract : original:Weighted.t -> server:Query_system.server -> Bitvec.t;
      (** read back all [capacity] bits *)
}
(** A non-adversarial scheme reduced to its carrier interface. *)

val of_local : Multi_scheme.t -> base
val of_tree : Tree_scheme.t -> base

val redundancy_for : base -> message_length:int -> int
(** {!Wm_util.Codec.redundancy} of the base's capacity: the largest odd
    R with R * message_length <= capacity (>= 1). *)

val mark : base -> times:int -> Bitvec.t -> Weighted.t -> Weighted.t
(** Embed [times] interleaved copies. *)

val detect :
  base -> times:int -> length:int -> original:Weighted.t ->
  server:Query_system.server -> Bitvec.t
(** Decode a length-[length] message by {!Wm_util.Codec.vote} over the
    first [times * length] carriers; a tied bit (even [times]) reads
    as 0. *)
