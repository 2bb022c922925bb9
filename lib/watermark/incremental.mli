(** Incremental watermarking (Section 5).

    Weights-only updates (Theorem 7): when the owner changes base weights
    but not the structure, re-applying the stored mark deltas to the new
    weights preserves both the global-distortion certificate and
    detection.  Structural updates are safe exactly when they are
    {e type-preserving} (Theorem 8): no neighborhood isomorphism type is
    created or suppressed, so the canonical parameter set S — hence the
    S-partition and the detector — still applies.  Otherwise the owner
    must re-mark, which exposes it to the {e auto-collusion} attack: a
    server averaging two differently-marked versions cancels the +-1 pair
    orientations. *)

val propagate :
  original:Weighted.t -> marked:Weighted.t -> updated:Weighted.t -> Weighted.t
(** [propagate ~original ~marked ~updated] carries the mark M = marked -
    original over to the updated weights: result = updated + M (per
    element over the union of supports). *)

val type_preserving :
  rho:int -> arity:int -> Structure.t -> Structure.t -> bool
(** Do the two structures realize exactly the same set of rho-neighborhood
    isomorphism types on arity-[arity] parameter tuples?  (Multiplicities
    may differ — the paper only requires that no type appears or
    disappears.) *)

val update_decision :
  rho:int -> arity:int -> old_graph:Structure.t -> new_graph:Structure.t ->
  [ `Keep_mark | `Remark_required ]
(** Theorem 8's dichotomy, as a decision procedure the owner runs before
    publishing an update. *)

val type_preserving_ix :
  old_graph:Structure.t -> old_gf:Gaifman.t -> old_index:Neighborhood.index ->
  new_graph:Structure.t -> gf:Gaifman.t -> new_index:Neighborhood.index ->
  dirty:int list -> bool
(** {!type_preserving} across an edit script, from what an incremental
    update already holds: both universe indexes (before and after
    {!Wm_relational.Neighborhood.reindex}), both Gaifman graphs and the
    dirty set the edits reported.  A representative untouched by the
    edits pairs its class with the other side's by lookup; only classes
    left unpaired are materialized, on their spheres alone, and compared
    by isomorphism.  No universe re-typing and no pass over the whole
    structure.  The indexes must share [rho]. *)

val update_decision_ix :
  old_graph:Structure.t -> old_gf:Gaifman.t -> old_index:Neighborhood.index ->
  new_graph:Structure.t -> gf:Gaifman.t -> new_index:Neighborhood.index ->
  dirty:int list -> [ `Keep_mark | `Remark_required ]
(** {!update_decision} via {!type_preserving_ix} — the cheap path used by
    [wmark update] and the serving engine. *)

val average : Weighted.t -> Weighted.t -> Weighted.t
(** The auto-collusion attack: per-element integer average (rounding
    toward the first argument).  Averaging two copies with opposite pair
    orientations erases those bits — the experiment E11 failure case. *)

val average_many : Weighted.t list -> Weighted.t
(** k-party collusion: per-element mean of all copies, rounded to nearest
    (ties toward the first copy's value).  With k independent random
    messages a pair's expected averaged difference shrinks toward 0, and
    any bit on which the colluders split near-evenly dies. *)
