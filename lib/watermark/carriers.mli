(** The carriers of a prepared scheme: its query system and its selected
    pairs, with the one message format both schemes share.

    Theorems 3 and 5 embed a message the same way: bit i orients selected
    pair i (+1 on [fst] and -1 on [snd] for a 1, the reverse for a 0), and
    detection reads each pair's sign ({!Detector.read}).  {!Multi_scheme}
    and {!Tree_scheme} build one such value when they prepare; {!Robust},
    {!Fingerprint} and {!Survivable} take it. *)

type t

val make : Query_system.t -> Pairing.pair list -> t
(** The carriers of the listed pairs, certified against the query
    system; pair i carries message bit i. *)

val prefix : t -> int -> t
(** [prefix t n]: the first [n] carriers alone (a capacity-[n] value over
    the same query system).  Raises [Invalid_argument] unless
    [0 <= n <= capacity t]. *)

val capacity : t -> int
(** Number of message bits (selected pairs), in O(1). *)

val pairs : t -> Pairing.pair list
val query_system : t -> Query_system.t

val mark : t -> Bitvec.t -> Weighted.t -> Weighted.t
(** Embed a message of length <= capacity into the weights; only the
    first [length message] pairs are touched.  Raises [Invalid_argument]
    on a longer message. *)

val detect :
  t -> original:Weighted.t -> server:Query_system.server -> length:int ->
  Bitvec.t
(** The paper's query-answer model: read back [length] bits using only
    the server's answers to the query system's parameters, as
    {!Detector.read}'s decoded bits over the weights
    {!Query_system.reconstruct} rebuilds.  A pair decodes by the sign of
    its observed difference, an unobserved endpoint reading as an
    unchanged weight; ties and wholly unobserved pairs decode to 0.
    Raises [Invalid_argument] when [length] exceeds the capacity. *)

val detect_weights :
  t -> original:Weighted.t -> suspect:Weighted.t -> length:int -> Bitvec.t
(** {!detect} against an honest server over the suspect weights, read
    straight from them by {!Detector.read_weights}: every pair endpoint
    is an active tuple, so the server would answer each one with its
    suspect weight, and nothing is reconstructed.  Only the first
    [length] carriers are read. *)
