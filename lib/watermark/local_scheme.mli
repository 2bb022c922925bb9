(** The single-query view of {!Multi_scheme}: the paper's construction
    for one query psi, which is the case k = 1 of the query-list scheme.
    Every function here forwards to {!Multi_scheme} with a one-element
    query list; the prepared scheme is the same value, so a
    [Local_scheme.t] is a [Multi_scheme.t] and every layer built on the
    scheme (fingerprinting, robust marking, recovery, serving) takes
    either. *)

type options = Multi_scheme.options = {
  seed : int;  (** drives pair selection; same seed -> same scheme *)
  rho : int option;
      (** locality rank; default: {!Wm_logic.Locality.best_rank} *)
  epsilon : float;  (** distortion budget 1/eps; default 1.0 (budget 1) *)
  selection : [ `Greedy | `Random of int ];
      (** [`Random tries] retries the paper's probabilistic draw;
          [`Greedy] (default) admits pairs under the same certificate. *)
}

val default_options : options

type t = Multi_scheme.t

type report = {
  degree : int;  (** Gaifman degree k of the instance *)
  rho : int;
  ntp : int;  (** number of neighborhood types = |S| *)
  active : int;  (** |W| *)
  pairs_available : int;  (** size of the S-partition *)
  pairs_selected : int;  (** capacity in bits *)
  eta : int;  (** Lemma 1 bound *)
  budget : int;  (** ceil(1/eps) *)
  max_split : int;  (** certified worst-case distortion over all params *)
}

val prepare :
  ?options:options -> ?qs:Query_system.t -> ?gf:Gaifman.t ->
  ?ix:Neighborhood.index -> Weighted.structure -> Query.t ->
  (t, string) result
(** {!Multi_scheme.prepare} on the one query. *)

val update :
  ?qs:Query_system.t ->
  t ->
  old:Weighted.structure ->
  old_gf:Gaifman.t ->
  Weighted.structure ->
  gf:Gaifman.t ->
  Query.t ->
  dirty:int list ->
  (t, string) result
(** {!Multi_scheme.update} on the one query. *)

val index : t -> Neighborhood.index
(** The (first) query's neighborhood type index. *)

val report : t -> report
(** {!Multi_scheme.report} with the (first) query's rank, type count and
    eta. *)

val capacity : t -> int
val pairs : t -> Pairing.pair list
val query_system : t -> Query_system.t

val mark : t -> Bitvec.t -> Weighted.t -> Weighted.t
(** {!Multi_scheme.mark}.  Raises [Invalid_argument "Local_scheme.mark:
    ..."] on a message longer than the capacity. *)

val detect : t -> original:Weighted.t -> server:Query_system.server ->
  length:int -> Bitvec.t

val detect_weights : t -> original:Weighted.t -> suspect:Weighted.t ->
  length:int -> Bitvec.t

val carriers : t -> Carriers.t
(** {!Multi_scheme.carriers}. *)

val check_options : options -> (unit, string) result
(** {!Multi_scheme.check_options}. *)
