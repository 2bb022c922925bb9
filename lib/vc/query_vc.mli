(** VC-dimension of query-definable families.

    Bridges {!Wm_logic.Query} result sets and the bitset families of
    {!Setfam}: the universe is the active set W (indexed in tuple order),
    and the family is { W_a : a in U^r }. *)

type indexed = {
  fam : Setfam.t;
  index : Tuple.t array;  (** universe position -> tuple *)
}

val of_result_sets : Tuple.Set.t list -> indexed
(** Universe = union of the given sets. *)

val of_query : Structure.t -> Query.t -> indexed
(** The family C(psi, G) over the active elements. *)

val dimension_of_query : Structure.t -> Query.t -> int
(** VC(psi, G). *)

val maximal_on : Structure.t -> Query.t -> bool
(** The impossibility condition of Theorem 2: VC(psi, G) = |W| because W
    itself is shattered. *)
