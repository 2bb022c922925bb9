(** Locality ranks (Definition 5) and the Lemma 1 bound.

    Gaifman's theorem makes every FO query local with a rank exponential in
    the quantifier rank; the local scheme only needs {e some} correct rank,
    and smaller ranks give more neighborhood types collapsing, hence more
    capacity.  We expose the worst-case bound, an empirical verifier, and
    the Lemma 1 quantities eta and the query-count bound N. *)

val gaifman_bound : Fo.t -> int
(** rho <= (7^qr - 1) / 2, the classical bound from Gaifman's proof.
    Saturates at [max_int/4] to avoid overflow for deep formulas. *)

val cq_rank : Fo.t -> int option
(** A tight locality rank for {e conjunctive queries} — formulas of the
    form [exists w1 ... wn. (conjunction of relational atoms and
    equalities)].  A homomorphic image of the query's variable graph keeps
    its distances, so every bound variable lands within its query-graph
    distance of a free variable, and satisfaction only depends on the
    neighborhood of radius

      max over variables v connected to a free variable of
        (distance in the query graph from v to the nearest free variable)

    (components not touching any free variable are per-structure constants
    and do not affect Definition 5, which compares tuples of the same
    structure).  Returns [None] when the formula is not a conjunctive
    query.  For the paper's examples: [cq_rank "E(x,y)"] = 0,
    [cq_rank "exists w. E(x,w) & E(w,y)"] = 1, versus Gaifman bounds of 0
    and 3. *)

val best_rank : Fo.t -> int
(** [cq_rank] when the formula is a CQ, the Gaifman bound otherwise — the
    rank {!Wm_watermark.Multi_scheme} should default to. *)

val respects_rank : Structure.t -> Fo.t -> rho:int -> bool
(** Checks Definition 5 on one structure: for every pair of tuples (over
    the formula's free variables) with isomorphic rho-neighborhoods,
    satisfaction agrees.  Exponential in the number of free variables —
    meant for tests and small instances. *)

val minimal_rank : Structure.t -> Fo.t -> max:int -> int option
(** Smallest rho <= max respecting Definition 5 on the given structure. *)

val eta : Query.t -> k:int -> rho:int -> int
(** Lemma 1: on STRUCT_k, tuples with ~rho-equivalent parameters have
    result sets differing in at most eta = 2 r k^(2 rho + 1) elements
    (we use the proof's bound, which covers s >= 1 by the sphere-size
    argument).  Saturates on overflow. *)

val query_count_bound : Structure.t -> Query.t -> int
(** N, the number of distinct possible queries = |U|^r, used to set the
    pair-selection probability p = 1 / (eta (2N)^eps). *)
