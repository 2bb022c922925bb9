(** Finite relations: sets of equal-arity tuples.

    Flat-memory representation (DESIGN.md 5.12): the tuples live in one
    contiguous row-major int array in ascending order, with a small
    functional add/remove overlay folded back in once it grows past a
    fraction of the array.  [mem] is binary search; bulk builders and
    {!iter_flat} touch no per-tuple heap blocks.  All observable
    behavior matches the frozen pre-flat implementation, kept as a
    test oracle in [test/oracle/relation_ref.ml]. *)

type t

val empty : int -> t
(** [empty arity] is the empty relation of the given arity. *)

val arity : t -> int
val cardinal : t -> int
val is_empty : t -> bool

val mem : Tuple.t -> t -> bool
val add : Tuple.t -> t -> t
(** @raise Invalid_argument if the tuple's arity differs. *)

val remove : Tuple.t -> t -> t

val of_list : int -> Tuple.t list -> t
(** Bulk build: one array fill, one sort, one dedup sweep — the load
    path for million-tuple relations. *)

val of_pairs : (int * int) list -> t
(** Convenience builder for binary relations. *)

val to_list : t -> Tuple.t list
(** Ascending tuple order. *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val filter : (Tuple.t -> bool) -> t -> t
val for_all : (Tuple.t -> bool) -> t -> bool
val exists : (Tuple.t -> bool) -> t -> bool

val union : t -> t -> t
val equal : t -> t -> bool

val restrict : (int -> bool) -> t -> t
(** [restrict keep r] keeps the tuples all of whose elements satisfy [keep]
    — the relation part of an induced substructure. *)

val rename : (int -> int) -> t -> t
(** Applies an element renaming to every tuple. *)

val max_elt : t -> int
(** Largest element mentioned, -1 if empty. *)

(** {1 Flat access}

    The zero-allocation face of the representation, used by the Gaifman
    builder, the refinement seed of {!Iso}, and every consumer that
    only reads cells. *)

val iter_flat : (int array -> int -> unit) -> t -> unit
(** [iter_flat f r] calls [f buf off] once per tuple in ascending order;
    the tuple occupies [buf.(off) .. buf.(off + arity r - 1)].  On a
    compacted value (any bulk-built relation) no per-tuple allocation
    happens; the buffer must not be mutated. *)

val flatten : t -> t
(** An overlay-free equivalent value — O(1) when already flat.  Useful
    before a long sequence of [mem]/[iter_flat] on a freshly edited
    relation. *)

val pp : Format.formatter -> t -> unit

val of_flat : int -> int array -> int -> t
(** [of_flat arity buf k] builds the relation of the [k] rows stored
    row-major in the first [k * arity] cells of [buf] — one sort and
    dedup sweep, skipped when the rows are already ascending.  [buf] is
    taken over: it may become the relation's own storage, so the caller
    must not use it afterwards.
    @raise Invalid_argument if [arity < 1]. *)

val iter_headed : int -> (int array -> int -> unit) -> t -> unit
(** [iter_headed x f r] is [iter_flat f r] restricted to the tuples
    whose first cell is [x], in the same ascending order: one binary
    search of the sorted rows, then the rows headed by [x] and the
    overlay entries headed by [x] — O(log |r| + k + overlay range) for
    [k] such tuples, never a full scan. *)
