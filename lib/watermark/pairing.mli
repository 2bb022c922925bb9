(** S-partitions and pair markings (Section 3).

    Given canonical parameters S (one per neighborhood type), the class
    cl(w) of an active element w is the set of types whose canonical result
    set contains w.  An S-partition pairs active elements of equal class;
    marking a pair (+1, -1) keeps every canonical parameter's f unchanged
    (Proposition 1), and the distortion on non-canonical parameters is
    controlled by how many selected pairs a result set {e splits}
    (contains exactly one endpoint of). *)

type pair = { fst : Tuple.t; snd : Tuple.t }

val classes : Query_system.t -> canonical:Tuple.t list -> (Tuple.t * int list) list
(** cl(w) for every active element, as sorted lists of canonical indexes. *)

val s_partition : Query_system.t -> canonical:Tuple.t list -> pair list
(** Greedy pairing inside each class group, in ascending element order
    (consecutive members pair up; an odd group's last member is dropped).
    Deterministic given the query system; sorted by [fst]. *)

val orientation_marks : pair list -> Bitvec.t -> (Tuple.t * int) list
(** Bit i of the message orients pair i: 1 embeds (+1 on fst, -1 on snd),
    0 embeds (-1, +1).  Pairs beyond the message length are never
    visited.  Raises [Invalid_argument] when the message is longer than
    the pair list. *)

val split_counts : Query_system.t -> pair list -> (Tuple.t * int) list
(** For every parameter, the number of listed pairs its result set splits
    — an upper bound on |f' - f| there, valid for every message. *)

val max_split : Query_system.t -> pair list -> int

val select_random :
  Prng.t -> Query_system.t -> pair list -> p:float -> budget:int ->
  pair list option
(** The paper's randomized selection (Proposition 2): keep each pair with
    probability [p]; succeed if the worst-case split count stays within
    [budget].  One draw; [None] on failure. *)

val select_greedy :
  Prng.t -> Query_system.t -> pair list -> budget:int -> pair list * int
(** Deterministic-capacity variant: shuffle, then admit pairs one by one,
    skipping any that would push some parameter's split count over
    [budget].  Never fails; dominates the random draw's capacity.  Also
    returns the chosen pairs' {!max_split}, read off the split counts the
    admission pass maintains rather than from a second inverted index.
    The chosen pairs keep their input order — sorted by [fst] for the
    output of {!s_partition}.  (A
    deviation from the paper noted in DESIGN.md — the marker "generates
    random W' and checks until an eps-good marking is obtained"; greedy
    admission reaches the same certificate with fewer retries.) *)
