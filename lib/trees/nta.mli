(** Nondeterministic bottom-up tree automata.

    Only two operations of the MSO pipeline genuinely need
    nondeterminism: projecting a pebble bit away (the automaton guesses
    where the quantified variable sits) and its undoing, determinization by
    subset construction.  NTAs are transient values between a {!Dta.t} and
    the next {!determinize}: flat transition arrays over letter classes
    (as in {!Dta}), with at most two successors per (left, right, class)
    entry, which is all that one {!project} produces. *)

type t

val project : Dta.t -> alpha:Alphabet.t -> bit:int -> t
(** [project d ~alpha ~bit] is existential quantification over pebble bit
    [bit]: the resulting NTA reads the {e smaller} alphabet (bit removed)
    and, on each letter, may take the transition [d] had with that bit 0 or
    with it 1.  [alpha] is [d]'s alphabet.  A small letter's class is the
    pair of [d]'s classes of its two extensions.  Cost: O(labels +
    states^2 * C) for C such pairs. *)

val determinize : t -> Dta.t
(** Subset construction; only reachable subset-states are materialized, and
    the result is complete (the empty subset is the sink).  Subsets are
    numbered in the order rounds discover them: each round fills, in
    lexicographic order of (left, right), the rows of the pairs of subset
    ids that involve a subset found in the previous round, each row in
    class order — the numbering a fill in (left, right, letter) order
    gives (DESIGN.md 5.4).  Cost: one step per (left, right, class)
    entry, each O(|left| * |right|) plus the interning of its subset. *)
