(** Automaton-defined parametric queries on trees (Section 4).

    A Sigma_{k+s}-tree automaton defines an s-ary query with k parameters:
    B(a, T) = { b : B accepts T_{a b} }.  Pebble bits [0 .. k-1] carry the
    parameter, bits [k .. k+s-1] the candidate result.  This module is the
    tree-side counterpart of {!Wm_logic.Query}: it produces result sets
    W_a, the active set W, and server answers, which is exactly the
    interface the watermarking schemes consume. *)

type t

val make : Dta.t -> alpha:Alphabet.t -> k:int -> s:int -> t
(** [make auto ~alpha ~k ~s]: the automaton must be over [alpha], which
    needs at least [k + s] pebble bits.  Extra bits (left over from bound
    variables of a compiled formula) are fine: they stay 0. *)

val of_compiled :
  Mso_compile.t -> params:string list -> results:string list -> t
(** Wraps a compiled MSO formula; [params] and [results] must together be
    exactly its free variables (all element variables). *)

val k : t -> int
val s : t -> int
val automaton : t -> Dta.t
val alpha : t -> Alphabet.t

val member : t -> Btree.t -> Tuple.t -> Tuple.t -> bool
(** [member q tree a b]: is b in B(a, T)?  One automaton run. *)

val result_sets : t -> Btree.t -> Tuple.Set.t array
(** Every W_a at once, indexed by the parameter node, for a query with
    k = s = 1: one bottom-up and one top-down pass split each pair at its
    lca, then shared per-(node, state) tails enumerate the outputs —
    O(size * states^2) plus the output.
    @raise Invalid_argument unless k = s = 1. *)

val result_set : t -> Btree.t -> Tuple.t -> Tuple.Set.t
(** W_a.  For k = s = 1, the {!result_sets} pass restricted to one
    parameter — O(size * states) plus the output; otherwise brute force
    over candidate tuples (size^s runs). *)

val all_params : t -> Btree.t -> Tuple.t list
(** All k-tuples of nodes (size^k of them). *)

val f : t -> Btree.t -> weights:Weighted.t -> Tuple.t -> int
(** Weight of the query result for a parameter (the f of Section 1). *)

val answer : t -> Btree.t -> weights:Weighted.t -> Tuple.t -> (Tuple.t * int) list
(** What a server returns: result tuples with their weights. *)
