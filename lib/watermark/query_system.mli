(** The interface watermarking schemes program against.

    Both instantiations of the paper — FO queries over relational
    structures (Section 3) and automaton queries over trees (Section 4) —
    present the same surface to a marker/detector: a set of possible
    parameters, a result-set function W_a, and weights.  A query system
    value captures that surface once, as a table built at construction:
    every parameter's W_a, evaluated exactly once (the cost is the
    substrate's to report, not to hide), and W = union of the W_a as one
    ascending array, each parameter's row held as ranks in it.  The table
    is immutable, so a value is shared across {!Wm_par.Pool} domains as it
    is.

    The {e server} type models the data server of the 3-tier setting: the
    only thing a detector may touch.  A server answers a parameter with
    A_a = { (b, W(b)) : b in W_a } and nothing else; detectors reconstruct
    active weights exclusively through {!reconstruct}. *)

type t

val of_relational : Structure.t -> Query.t -> t
(** Parameters are all of U^r. *)

val of_tree : Wm_trees.Tree_query.t -> Wm_trees.Btree.t -> t
(** Parameters are all k-tuples of nodes. *)

val of_custom :
  params:Tuple.t list -> result_set:(Tuple.t -> Tuple.Set.t) ->
  weight_arity:int -> t
(** Escape hatch for synthetic families (the Remark 1 experiment). *)

val params : t -> Tuple.t list
val weight_arity : t -> int

val result_set : t -> Tuple.t -> Tuple.Set.t
(** W_a: built from the table row on a parameter, a plain (unmemoized)
    evaluation on any other tuple. *)

val active : t -> Tuple.t list
(** W as a sorted list. *)

val active_array : t -> Tuple.t array
(** W, ascending: the element of rank [r] is [(active_array t).(r)].
    Shared, not copied: read only. *)

val rows : t -> int array * int array
(** The table over W ranks: with [(off, ranks) = rows t], parameter [i]
    (in {!params} order) holds [ranks.(off.(i)) .. ranks.(off.(i+1) - 1)],
    ascending; [off] has one entry more than there are parameters.
    Shared, not copied: read only. *)

val ranks : t -> Tuple.t -> int array
(** The ranks of W_a's members of W, ascending: a copy of the row of a
    parameter, an evaluation and a binary search in W for any other
    tuple. *)

val refresh :
  t ->
  result_fn:(Tuple.t -> Tuple.Set.t) ->
  holds:(Tuple.t -> Tuple.t -> bool) ->
  params:Tuple.t list ->
  size:int ->
  affected:int list ->
  t
(** Edit-scoped carry-over: the query system of the edited substrate
    ([result_fn]/[params] evaluate there, [size] is its universe), built
    from this one's rows instead of from scratch.  A parameter's row
    survives when the parameter avoids [affected] (see
    {!Wm_relational.Neighborhood.affected_elements}) and stays in range;
    its result set is patched by dropping results touching the affected
    region and re-asking [holds param result] for every candidate result
    tuple that touches it.  Parameters inside the region, and new ones,
    are evaluated.  Sound for queries local at the radius used to
    compute [affected] — the same assumption the scheme's type index
    makes (DESIGN.md 5.7). *)

val refresh_relational : t -> Structure.t -> Query.t -> affected:int list -> t
(** {!refresh} specialized to an FO query over the edited structure:
    membership probes are {!Wm_logic.Eval.holds} on the patched
    bindings. *)

val f : t -> Weighted.t -> Tuple.t -> int
(** f_(G,W)(a) = sum of weights over W_a. *)

(** {1 Servers} *)

type server = Tuple.t -> (Tuple.t * int) list
(** What a data server exposes to final users. *)

val server : t -> Weighted.t -> server
(** An honest server over the given (possibly marked, possibly attacked)
    weights. *)

val reconstruct : t -> server -> int Tuple.Map.t
(** Observed weight of every active element, obtained by querying the
    server on every parameter — the paper's "the active weights can always
    be recovered by asking A_a for all possible values of a".  When answers
    disagree across parameters (a cheating server), the value seen last in
    parameter order wins; honest servers are consistent. *)
