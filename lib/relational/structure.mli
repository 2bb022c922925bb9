(** Finite structures (database instances).

    A structure interprets every relation symbol of a schema over the finite
    universe [{0, ..., size-1}].  Elements can optionally carry display names
    (["India discovery"], ["F21"], ...) so the worked examples of the paper
    print exactly like its tables; names never influence semantics. *)

type t

val create : ?names:string array -> Schema.t -> int -> t
(** [create schema size] is the structure with empty relations.  When given,
    [names] must have length [size]. *)

val schema : t -> Schema.t
val size : t -> int
(** Universe cardinality. *)

val universe : t -> int list
(** [0; ...; size-1].  Allocates a fresh list per call — hot loops
    should use {!iter_universe}/{!fold_universe} instead. *)

val iter_universe : (int -> unit) -> t -> unit
(** [iter_universe f g] calls [f] on [0 .. size-1] ascending, without
    materializing the universe list. *)

val fold_universe : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending allocation-free fold over [0 .. size-1]. *)

val name_of : t -> int -> string
(** Display name; defaults to the decimal element id. *)

val name_index : t -> string -> int option
(** Inverse of {!name_of}: [name_index g] indexes the display names of
    [g] once, in O(size), and returns the lookup, [Some x] for the one
    element named [n].  A name no element carries, or that several
    elements carry, resolves to [None]: matching one of several
    same-named rows would pick a row at random.  Apply it once and keep
    the lookup, since every application rebuilds the index.  The one
    name lookup behind {!Wm_watermark.Survivable}'s realignment and
    {!Wm_watermark.Recovery}'s audit and repair. *)

val has_names : t -> bool
(** Does the structure carry an explicit names array? *)

val with_default_names : t -> t
(** Materialize the implicit decimal names into an explicit names array (a
    no-op when names are already present).  Structural attacks call this
    before renumbering so element identity survives as a name — the moral
    equivalent of a row keeping its key column when other rows are
    deleted. *)

val with_names : t -> string array -> t
(** Replace the names array; must have length [size]. *)

val relation : t -> string -> Relation.t
(** Interpretation of a symbol. @raise Not_found on unknown symbols. *)

val add_tuple : t -> string -> Tuple.t -> t
(** Functional update; validates arity and element range. *)

val add_pairs : t -> string -> (int * int) list -> t

val set_relation : t -> string -> Relation.t -> t

val fold_relations : (string -> Relation.t -> 'a -> 'a) -> t -> 'a -> 'a

val tuples_count : t -> int
(** Total number of tuples across all relations. *)

(** {1 Edits}

    The update engine's vocabulary: functional single-step edits that also
    report which elements they {e dirty} — the seeds of the Gaifman-local
    maintenance in {!Wm_relational.Gaifman.refresh} and
    {!Wm_relational.Neighborhood.reindex}.  An element is dirty when a
    tuple mentioning it appeared or disappeared, or when it entered the
    universe; by Gaifman locality, only tuples whose rho-sphere touches a
    dirty element can change neighborhood type (DESIGN.md 5.7). *)

type edit =
  | Insert_tuple of string * Tuple.t
  | Delete_tuple of string * Tuple.t
  | Add_element of string option
      (** Appends one element (id = old size), optionally named. *)
  | Remove_element of int
      (** Must be the last element (id = size-1), so surviving ids keep
          their meaning; incident tuples are dropped with it. *)

val apply_edit : t -> edit -> t * int list
(** The edited structure and the sorted dirty-element set (ids valid in
    the {e new} universe).  Deleting an absent tuple is a no-op with an
    empty dirty set.  @raise Invalid_argument on out-of-range elements,
    unknown relation symbols, or removing a non-last element. *)

val apply_edits : t -> edit list -> t * int list
(** Left-to-right {!apply_edit}; the union of the dirty sets, restricted
    to elements that still exist in the final universe. *)

val induced : t -> int list -> t * int array
(** [induced g sub] is the substructure induced on the (deduplicated)
    elements of [sub], renamed to [0 .. k-1] in the order given, together
    with the renaming table [old.(new_id) = old_id].  Keeps the schema. *)

val equal : t -> t -> bool
(** Same size and identical relation interpretations (names ignored). *)

val pp : Format.formatter -> t -> unit
