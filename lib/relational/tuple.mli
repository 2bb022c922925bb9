(** Tuples of universe elements.

    A database instance interprets each relation symbol as a set of tuples
    over a finite universe; we represent universe elements as integers
    [0 .. n-1] and tuples as immutable-by-convention int arrays.  Weighted
    elements (the [s]-tuples carrying weights) use the same representation. *)

type t = int array

val compare : t -> t -> int
(** Lexicographic; shorter tuples sort first. *)

(** {1 Flat rows}

    The one row toolkit of the flat relations and weights (DESIGN.md
    5.12): rows of [len] cells stored back to back in an int buffer,
    row [i] at cells [i * len .. i * len + len - 1].  None of these
    allocates per row or per comparison. *)

val compare_at : int -> int array -> int -> int array -> int -> int
(** [compare_at len a i b j] compares the [len] cells from [a.(i)] with
    the [len] cells from [b.(j)], lexicographically.
    @raise Invalid_argument if a range leaves its array. *)

val find_row : int -> int array -> int -> t -> int
(** [find_row len buf n t] is the index of [t] (its first [len] cells)
    among the [n] ascending, distinct rows at the start of [buf], by
    binary search.  When [t] is absent it is [-p - 1] (negative), [p]
    the number of rows below [t]: where [t] would go. *)

val sort_rows : int -> int array -> int -> (int -> int -> unit) -> int
(** [sort_rows len buf k last] sorts the [k] rows at the start of [buf]
    in place, stably, collapses each run of equal rows to one, and
    returns the number [n] of distinct rows, now ascending in the first
    [n * len] cells.  [last i r] is called once per kept row [i], in
    ascending order, with [r] the last input row of its run: a caller
    carrying values beside the rows keeps the last one.  Ascending input
    is compacted in place with no allocation. *)

val of_row : int -> int array -> int -> t
(** [of_row len buf off] is the row at [buf.(off) ..] as a tuple: [buf]
    itself when it is exactly that row, a copy otherwise. *)

val overlay_limit : int -> int
(** How many pending edits a flat value of [n] rows keeps in its
    functional overlay before it compacts: max 64 (n / 4). *)

val equal : t -> t -> bool
val hash : t -> int

val arity : t -> int

val of_list : int list -> t
val to_list : t -> int list

val singleton : int -> t
val pair : int -> int -> t

val concat : t -> t -> t
(** [concat a b] is the (r+s)-tuple a followed by b — used to glue a query
    parameter to a candidate result before evaluation. *)

val mem_elt : int -> t -> bool
(** Does the element occur in the tuple? *)

val max_elt : t -> int
(** Largest element; -1 for the empty tuple. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(a,b,c)]; bare element for arity 1. *)

val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Hashtbl : Hashtbl.S with type key = t
