(** The Theorem 3 watermarking scheme: local queries on bounded-degree
    structures, preserving one query or several at once.

    Pipeline (Section 3): type every parameter by its rho-neighborhood,
    pick one canonical parameter per type, partition active elements into
    equal-class pairs, select an eps-good subset of pairs (worst-case split
    count <= ceil(1/eps), so {e every} message's global distortion is
    within budget), and embed message bits as pair orientations.  The
    detector replays the preparation (same structure, queries and seed),
    queries the suspect server on every parameter, and reads each selected
    pair's weight-difference sign.

    Several queries: the paper treats one query psi "without loss of
    generality, ... extension to several queries psi_1, ..., psi_k is
    straightforward by simple projection techniques".  Concretely: tag
    every parameter with its query's index, take canonical parameters per
    query, classes become vectors over all queries' canonical result sets,
    and eps-goodness is certified against every (query, parameter) pair.
    A pair marking that survives selection then bounds the distortion of
    {e each} registered query by the budget simultaneously.  One query is
    the case k = 1, where nothing is tagged: the union of one query
    system is that system itself.

    Determinism contract: [prepare] is a deterministic function of
    (structure, queries, options) — marker and detector derive the same
    pair list independently, which is what lets detection work from query
    answers alone. *)

type options = {
  seed : int;  (** drives pair selection; same seed -> same scheme *)
  rho : int option;
      (** locality rank of every query; default: per query,
          {!Wm_logic.Locality.best_rank} — the tight conjunctive-query rank
          when applicable, else the Gaifman bound *)
  epsilon : float;  (** distortion budget 1/eps; default 1.0 (budget 1) *)
  selection : [ `Greedy | `Random of int ];
      (** [`Random tries] retries the paper's probabilistic draw, with
          p = 1/(eta (2N)^eps), eta the largest per-query Lemma 1 bound and
          N the summed per-query counts; [`Greedy] (default) admits pairs
          under the same certificate. *)
}

val default_options : options

type t
(** A prepared scheme: everything the marker and detector share. *)

type report = {
  queries : int;
  degree : int;  (** Gaifman degree k of the instance *)
  rho : int list;  (** locality rank used per query *)
  ntp : int list;  (** neighborhood types (canonical parameters) per query *)
  eta : int list;  (** Lemma 1 bound per query *)
  active : int;  (** |W| = union of the queries' active sets *)
  pairs_available : int;  (** size of the S-partition *)
  pairs_selected : int;  (** capacity in bits *)
  budget : int;  (** ceil(1/eps) *)
  max_split : int;  (** certified worst split over all queries' parameters *)
}

val prepare :
  ?options:options -> ?qs:Query_system.t list -> ?gf:Gaifman.t ->
  ?ix:Neighborhood.index list -> Weighted.structure -> Query.t list ->
  (t, string) result
(** Fails (with a message) when the queries are unusable (none given,
    a result arity differs from the weight arity, or no pair survives
    selection) or the options are: [epsilon] outside (0, 1] (NaN
    included) or a negative [rho].  [qs] (one per query) overrides the
    evaluators — pass a {!Query_system.of_custom} value when you have a
    faster (but semantically identical) way to enumerate result sets
    than the generic FO evaluator; the scheme itself only consumes the
    query-system interface.  [gf] (the structure's Gaifman graph) and
    [ix] (one type index per query of its parameters at the effective
    rho — ignored where its rho differs) skip preparation passes a
    caller has already done; the serving engine passes [gf] so repeat
    prepares against a stored dataset reuse its cached graph.  Results
    are identical with or without them provided they describe the same
    structure. *)

val update :
  ?qs:Query_system.t list ->
  t ->
  old:Weighted.structure ->
  old_gf:Gaifman.t ->
  Weighted.structure ->
  gf:Gaifman.t ->
  Query.t list ->
  dirty:int list ->
  (t, string) result
(** Re-prepare after structural edits, incrementally: [update t ~old
    ~old_gf ws ~gf queries ~dirty] is [prepare ~options ws queries] for
    the options [t] was prepared with — same pairs, same report, bit for
    bit — but each query's neighborhood index comes from
    {!Wm_relational.Neighborhood.reindex} over the dirty set the edits
    reported (see {!Wm_relational.Structure.apply_edits}).  [old] is the
    instance [t] was prepared on; [old_gf] and [gf] are the Gaifman
    graphs of [old] and of [ws] — the caller holds them already (a
    serving engine caches one per dataset and refreshes it once per edit
    script with {!Wm_relational.Gaifman.refresh}), so the update builds
    none.  [qs] are the query systems of [ws], as in {!prepare}; without
    them each query system of [t] is carried over through
    {!Query_system.refresh} at that query's radius instead of being
    built from scratch.  [queries] must be the list [t] was prepared with (same length,
    same order).  After a type-changing update the marker re-embeds
    (Theorem 8's dichotomy): use
    {!Wm_watermark.Incremental.update_decision_ix}. *)

val report : t -> report

val capacity : t -> int
(** Number of message bits the scheme can embed. *)

val pairs : t -> Pairing.pair list

val query_system : t -> Query_system.t
(** The union of the queries' systems the pairs were certified against;
    for one query, the very system {!prepare} was given or built. *)

val indexes : t -> Neighborhood.index list
(** Per-query neighborhood indexes (what {!update} maintains). *)

val mark : t -> Bitvec.t -> Weighted.t -> Weighted.t
(** {!Carriers.mark}: the weights must be those [prepare] saw, or a
    weights-only update of them (Theorem 7). *)

val detect : t -> original:Weighted.t -> server:Query_system.server ->
  length:int -> Bitvec.t
(** {!Carriers.detect}: reads the message from the answers the suspect
    server gives to the registered queries alone. *)

val detect_weights : t -> original:Weighted.t -> suspect:Weighted.t ->
  length:int -> Bitvec.t

val distortion : t -> Weighted.t -> Weighted.t -> (int * int) list
(** Per-query global distortion (query index, max |f' - f|) — for checking
    the simultaneous certificate. *)

val carriers : t -> Carriers.t
(** The selected pairs over {!query_system}: {!capacity}, {!pairs},
    {!mark}, {!detect} and {!detect_weights} read this value. *)

val check_options : options -> (unit, string) result
(** The option checks {!prepare} makes, with its messages: [epsilon]
    outside (0, 1] (NaN included) or a negative [rho] is an [Error].
    They read no structure, so a caller that builds query systems
    first (the serving engine) runs them before any evaluation. *)
