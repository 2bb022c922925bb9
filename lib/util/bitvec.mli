(** Compact bit vectors.

    Used for two distinct purposes in the library: as the representation of
    watermark messages (a mark is a word in {0,1}^l, Definition 2), and as
    the set representation inside the VC-dimension toolkit where families of
    query results over an indexed universe are manipulated as bitsets. *)

type t
(** A fixed-length vector of bits. *)

val create : int -> t
(** [create n] is the all-zero vector of length [n].  [n >= 0]. *)

val length : t -> int

val get : t -> int -> bool
val set : t -> int -> bool -> unit

val copy : t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val popcount : t -> int
(** Number of set bits. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
(** Pointwise boolean operations; arguments must have equal length. *)

val is_subset : t -> t -> bool
(** [is_subset a b] iff every bit of [a] is set in [b]. *)

val to_list : t -> int list
(** Indices of set bits, ascending. *)

val of_list : int -> int list -> t
(** [of_list n ixs] is the length-[n] vector with exactly [ixs] set. *)

val of_bools : bool array -> t
val to_bools : t -> bool array

val pp : Format.formatter -> t -> unit
(** Prints as a 0/1 string, index 0 leftmost. *)
