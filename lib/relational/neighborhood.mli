(** rho-neighborhoods and isomorphism types (Section 3).

    N_rho(c) is the substructure induced on the sphere S_rho(c), with the
    elements of the tuple c as distinguished constants.  Two tuples are
    ~rho-equivalent iff their neighborhoods are isomorphic; ntp(rho, G)
    counts the equivalence classes.  The local watermarking scheme picks one
    {e canonical parameter} per class (Theorem 3). *)

type nbh = {
  sub : Structure.t;  (** the induced substructure, renamed to 0..k-1 *)
  center : int list;  (** images of the tuple's elements in [sub] *)
  original : int array;  (** renaming: [original.(new_id) = old element] *)
}

val of_tuple : Structure.t -> Gaifman.t -> rho:int -> Tuple.t -> nbh
(** Materializes N_rho(c). *)

val equivalent :
  Structure.t -> Gaifman.t -> rho:int -> Tuple.t -> Tuple.t -> bool
(** The ~rho relation: isomorphism of the two neighborhoods. *)

type index = {
  rho : int;
  arity : int;  (** arity of the indexed tuples (0 when none) *)
  tuples : Tuple.t array;  (** indexed tuples in {!all_tuples} order *)
  types : int array;  (** [types.(i)] is the type id of [tuples.(i)] *)
  representatives : Tuple.t array;  (** representatives.(ty) has type ty *)
}
(** A computed type index over a set of tuples, one row per tuple: type
    ids are dense in [0 .. ntp-1] and [representatives] realizes the
    paper's canonical parameter set S. *)

val index :
  ?gf:Gaifman.t -> Structure.t -> rho:int -> Tuple.t list -> index
(** Types every listed tuple: pre-buckets by cheap invariants (sphere
    size, tuple count, degree multiset, center pattern) and by
    {!Iso.certificate}, then verifies with exact isomorphism inside each
    bucket.  Sphere extraction and in-bucket classification run on the
    {!Wm_par.Pool}; the result — type ids included — is bit-identical to
    the sequential fold for every job count.

    Element spheres are memoized per call, walked from per-domain
    scratch, and each distinct tuple sphere is keyed once (DESIGN.md
    5.9).  Every sphere of at most 62 elements is keyed by its renamed
    shape (DESIGN.md 5.14); tuples with an equal shape and equal center
    labels have literally equal pointed spheres, so only one tuple per
    such group runs the refinement prep and the in-bucket isomorphism
    scan.  Larger spheres go straight to that generic prep.  The choice
    depends only on the input, and the result equals plain isomorphism
    classification.

    Tree path (DESIGN.md 5.15): for arity-1 tuples over relations of
    arity 1 or 2, every element whose rho-ball induces a tree — decided
    in the sphere BFS itself — is typed by its color after exactly
    [rho] rounds of exact color refinement over the whole structure.
    Each round numbers its signatures by exact interning (ids
    first-seen, not canonical), so the refinement costs
    O(rho * (n + |E|)) hash-table work once per call, on one domain,
    with no shape key or prep for those elements; only the elements with
    cyclic balls pay the per-sphere costs above.  The refinement is
    skipped when no ball is a tree.

    [gf] is the Gaifman graph of the structure when the caller already
    holds it ({!Gaifman.of_structure} of the same structure); without it
    one is built for this call. *)

val index_universe :
  ?gf:Gaifman.t -> Structure.t -> rho:int -> arity:int -> index
(** Types all of U^arity, enumerated in a streaming fashion (no
    [n^arity] cons-list is ever materialized).  [gf], as for {!index}. *)

val affected_elements :
  old_gf:Gaifman.t -> gf:Gaifman.t -> rho:int -> dirty:int list -> int list
(** Elements within distance [rho] of a dirty element in the old {e or} new
    Gaifman graph, sorted.  A tuple none of whose elements is affected has
    the same rho-sphere — and hence neighborhood type — before and after
    the edits (DESIGN.md 5.7). *)

val reindex :
  ?threshold:float ->
  old:Structure.t ->
  old_gf:Gaifman.t ->
  Structure.t ->
  gf:Gaifman.t ->
  prev:index ->
  dirty:int list ->
  index
(** [reindex ~old ~old_gf g ~gf ~prev ~dirty] is [index_universe g
    ~rho:prev.rho ~arity:prev.arity] — bit-identical, type numbering and
    representatives included — computed incrementally from [prev], the
    universe index of the pre-edit structure [old], and the dirty set its
    edits reported (see {!Structure.apply_edits}).  [old_gf] and [gf] are
    the Gaifman graphs of [old] and [g]; the caller holds them (see
    {!Gaifman.refresh}), so none is built here.  The tuples touching
    {!affected_elements} and one {e anchor} per surviving old class (its
    first untouched member) are typed together, in enumeration order,
    by the classifier {!index_universe} runs: every class first occurs
    at one of them, so that yields the from-scratch type ids and
    representatives.  Untouched tuples take their anchor's new id, copied
    by rank, and the affected tuples are written in.  Falls back to a
    full rebuild when the affected tuples exceed [threshold] (default
    [0.5]) of the universe.  Only meaningful when [prev] indexes all of
    [old]'s U^arity. *)

val ntp : index -> int
(** Number of types = |S|. *)

val type_of : index -> Tuple.t -> int
(** By binary search over [tuples].
    @raise Not_found if the tuple was not indexed. *)

val all_tuples : Structure.t -> arity:int -> Tuple.t list
(** U^arity in enumeration order: the first coordinate cycles fastest,
    so the last is the most significant (helper shared with the
    evaluator). *)
