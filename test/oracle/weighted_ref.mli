(** Frozen pre-flat weight-assignment representation: the balanced-map
    implementation {!Weighted} replaced, kept as the behavioral
    reference for equivalence tests.  Carries the
    same [local_distance] default-delta bugfix as the live module (see
    the .ml header); otherwise same contracts as the matching subset of
    {!Weighted}. *)

type t

val create : ?default:int -> int -> t
val arity : t -> int
val default : t -> int

val get : t -> Tuple.t -> int
val set : t -> Tuple.t -> int -> t
val set_elt : t -> int -> int -> t
val get_elt : t -> int -> int

val of_list : ?default:int -> int -> (Tuple.t * int) list -> t
val bindings : t -> (Tuple.t * int) list
val support : t -> Tuple.t list

val add_delta : t -> Tuple.t -> int -> t
val apply_marks : t -> (Tuple.t * int) list -> t

val local_distance : t -> t -> int
val is_local_distortion : c:int -> t -> t -> bool
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
