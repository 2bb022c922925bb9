(** S-partitions and pair markings (Section 3).

    Given canonical parameters S (one per neighborhood type), the class
    cl(w) of an active element w is the set of types whose canonical result
    set contains w.  An S-partition pairs active elements of equal class;
    marking a pair (+1, -1) keeps every canonical parameter's f unchanged
    (Proposition 1), and the distortion on non-canonical parameters is
    controlled by how many selected pairs a result set {e splits}
    (contains exactly one endpoint of).

    Pairing runs on int ranks: {!make} transposes the query system's
    rows (result sets over the ranks of the active elements, see
    {!Query_system.rows}), and partition, split counts and selection work
    on pairs of ranks.  Elements come back only in the {!pair}s of
    {!to_pairs}.  Rank [-1] stands for an element outside W, which lies in
    no result set. *)

type pair = { fst : Tuple.t; snd : Tuple.t }

type t
(** Result sets over active-element ranks, with the classes of one
    canonical list.  Rank [r] is [(active t).(r)]. *)

val make : Query_system.t -> canonical:Tuple.t list -> t
(** Transposes the query system's rows and reads cl(w) off the
    canonical parameters' rows: linear in the total result-set size,
    comparing ints only.  A canonical tuple that is not a parameter is
    evaluated and its members looked up in W. *)

val active : t -> Tuple.t array
(** W, ascending. *)

val classes : t -> (Tuple.t * int list) list
(** cl(w) for every active element, as sorted lists of canonical indexes. *)

val s_partition : t -> (int * int) array
(** Greedy pairing inside each class group, in ascending element order
    (consecutive members pair up; an odd group's last member is dropped).
    Deterministic given the query system; sorted by first rank. *)

val to_pairs : t -> (int * int) array -> pair list

val orientation_marks : pair list -> Bitvec.t -> (Tuple.t * int) list
(** The marks of {!iter_orientation_marks}, as a list in call order. *)

val split_counts : t -> (int * int) array -> int array
(** For every parameter, in {!Query_system.params} order, the number of
    listed pairs its result set splits — an upper bound on |f' - f|
    there, valid for every message. *)

val max_split : t -> (int * int) array -> int

val select_random :
  Prng.t -> t -> (int * int) array -> p:float -> budget:int ->
  (int * int) array option
(** The paper's randomized selection (Proposition 2): keep each pair with
    probability [p]; succeed if the worst-case split count stays within
    [budget].  One draw; [None] on failure. *)

val select_greedy :
  Prng.t -> t -> (int * int) array -> budget:int -> (int * int) array * int
(** Deterministic-capacity variant: shuffle, then admit pairs one by one,
    skipping any that would push some parameter's split count over
    [budget].  Never fails; dominates the random draw's capacity.  Also
    returns the chosen pairs' {!max_split}, read off the split counts the
    admission pass maintains.  The chosen pairs keep their input order.
    (A deviation from the paper noted in DESIGN.md — the marker
    "generates random W' and checks until an eps-good marking is
    obtained"; greedy admission reaches the same certificate with fewer
    retries.) *)

val iter_orientation_marks :
  pair list -> Bitvec.t -> (Tuple.t -> int -> unit) -> unit
(** [iter_orientation_marks pairs message f]: bit i of the message
    orients pair i, 1 embeds (+1 on fst, -1 on snd) and 0 embeds (-1,
    +1); [f] is called on fst then snd, pair by pair.  Pairs beyond the
    message length are never visited.  Raises [Invalid_argument], before
    any call, when the message is longer than the pair list.  Runs the
    same calls every time, so it can drive {!Weighted.apply_mark_iter}. *)
