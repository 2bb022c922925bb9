(** Distortion measures (Section 1).

    The c-local assumption bounds individual weight changes and lives in
    {!Wm_relational.Weighted}; the d-global assumption bounds the change of
    every query weight f(a) and needs a query system. *)

val per_param : Query_system.t -> Weighted.t -> Weighted.t -> (Tuple.t * int) list
(** Signed distortion f'(a) - f(a) for every parameter. *)

val global : Query_system.t -> Weighted.t -> Weighted.t -> int
(** max_a |f'(a) - f(a)| — the smallest d for which the d-global distortion
    assumption holds. *)

val is_global : d:int -> Query_system.t -> Weighted.t -> Weighted.t -> bool

val of_marks : Query_system.t -> (Tuple.t * int) list -> int
(** Global distortion a mark list would induce, without materializing the
    marked weights (deltas summed per parameter). *)

(** {1 Other aggregates}

    The paper notes that the sum in f can be replaced by mean, min or max
    without affecting the positive results.  These variants make that
    concrete: a (+1,-1) pair marking moves the mean of a result set that
    contains both members by exactly 0, and min/max of any result set by at
    most the local distortion c. *)

type aggregate = Sum | Mean | Min | Max

val f_agg : aggregate -> Query_system.t -> Weighted.t -> Tuple.t -> float
(** Aggregate of the weights over W_a.  Empty result sets give 0 for Sum
    and Mean and 0 for Min/Max (nothing to distort). *)

val global_agg : aggregate -> Query_system.t -> Weighted.t -> Weighted.t -> float
(** max over parameters of |f'_agg(a) - f_agg(a)|. *)
