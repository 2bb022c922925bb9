(** Nondeterministic bottom-up tree automata.

    Only two operations of the MSO pipeline genuinely need
    nondeterminism: projecting a pebble bit away (the automaton guesses
    where the quantified variable sits) and its undoing, determinization by
    subset construction.  NTAs are transient values between a {!Dta.t} and
    the next {!determinize}: flat transition arrays with at most two
    successors per (left, right, letter) entry, which is all that
    {!of_dta} and one {!project} produce. *)

type t

val of_dta : Dta.t -> t

val nstates : t -> int
val nlabels : t -> int

val project : Dta.t -> alpha:Alphabet.t -> bit:int -> t
(** [project d ~alpha ~bit] is existential quantification over pebble bit
    [bit]: the resulting NTA reads the {e smaller} alphabet (bit removed)
    and, on each letter, may take the transition [d] had with that bit 0 or
    with it 1.  [alpha] is [d]'s alphabet. *)

val determinize : t -> Dta.t
(** Subset construction; only reachable subset-states are materialized, and
    the result is complete (the empty subset is the sink).  Subsets are
    numbered in the order rounds discover them: each round fills, in
    lexicographic order of (left, right, letter), the pairs of subset ids
    that involve a subset found in the previous round (DESIGN.md 5.4). *)

val accepts : t -> Btree.t -> label_of:(int -> int) -> bool
(** Direct nondeterministic evaluation (set-of-states simulation); used by
    tests to cross-check determinization. *)
