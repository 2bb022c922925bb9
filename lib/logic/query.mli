(** Parametric queries psi(u, v) (Section 1).

    A formula with parameter is a formula with two distinguished variable
    vectors: the parameter vector u (bound by a final user) and the result
    vector v of arity s.  For a structure G and parameter value a,
    psi(a, G) = { b : G |= psi(a, b) } is the set of weighted s-tuples the
    server returns together with their weights. *)

type t = private {
  phi : Fo.t;
  params : string list;  (** u, arity r *)
  results : string list;  (** v, arity s *)
}

val make : params:string list -> results:string list -> Fo.t -> t
(** Validates that [params] and [results] are disjoint, cover all free
    variables of the formula, and that [results] is non-empty. *)

val param_arity : t -> int
val result_arity : t -> int

val result_set : Structure.t -> t -> Tuple.t -> Tuple.Set.t
(** W_a = psi(a, G), the set of weighted elements involved for parameter
    [a].  Note it does not depend on the weight assignment. *)

val all_params : Structure.t -> t -> Tuple.t list
(** U^r, every possible final-user input. *)

val weight_of : Weighted.t -> Tuple.Set.t -> int
(** Sum of weights over a result set. *)

val f : Weighted.structure -> t -> Tuple.t -> int
(** f_(G,W)(a, psi) — the weight of the query result (Section 1), the
    quantity the d-global distortion assumption bounds. *)

val answer : Weighted.structure -> t -> Tuple.t -> (Tuple.t * int) list
(** A_a = { (b, W(b)) : b in psi(a, G) } — exactly what a server returns
    to a final user. *)

val tabulate : Structure.t -> t -> (Tuple.t * Tuple.Set.t) list
(** All (parameter, result set) pairs; the detector's "ask everything"
    primitive and the evaluator behind distortion checks. *)

val pp : Format.formatter -> t -> unit
