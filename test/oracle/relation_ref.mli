(** Frozen pre-flat relation representation (PR 8's [Neighborhood_ref]
    analogue): the balanced-tree implementation [Relation] replaced,
    kept as the behavioral reference for equivalence tests.  Same contracts as the matching subset of {!Relation}. *)

type t

val empty : int -> t
val arity : t -> int
val cardinal : t -> int
val is_empty : t -> bool

val mem : Tuple.t -> t -> bool
val add : Tuple.t -> t -> t
val remove : Tuple.t -> t -> t

val of_list : int -> Tuple.t list -> t
val of_pairs : (int * int) list -> t
val to_list : t -> Tuple.t list

val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val filter : (Tuple.t -> bool) -> t -> t
val for_all : (Tuple.t -> bool) -> t -> bool
val exists : (Tuple.t -> bool) -> t -> bool

val union : t -> t -> t
val equal : t -> t -> bool
val restrict : (int -> bool) -> t -> t
val rename : (int -> int) -> t -> t
val max_elt : t -> int

val pp : Format.formatter -> t -> unit
