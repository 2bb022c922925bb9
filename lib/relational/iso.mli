(** Isomorphism of small structures with distinguished elements.

    Neighborhood equivalence a ~rho b (Section 3) is isomorphism of the
    neighborhoods N_rho(a) and N_rho(b), where the i-th distinguished
    element of one must map to the i-th of the other.  Bounded-degree
    spheres are small, so a certificate-bucketed backtracking search is
    exact and fast enough.  The certificate comes from {e exact} partition
    refinement (1-WL with dense canonical renumbering, run to its true
    fixpoint): it is sound — isomorphic inputs always get equal
    certificates — and is used to avoid the quadratic number of pairwise
    tests when typing all parameters.

    The {!prep} API lets a caller that classifies many neighborhoods do
    the refinement (and the Gaifman-graph construction) once per
    neighborhood and reuse it across every pairwise test — the indexer's
    fast path. *)

type prep
(** Precomputed refinement data for one [(structure, distinguished)]
    pair: its Gaifman graph, stable exact colors, and certificate. *)

val prep : ?gf:Gaifman.t -> Structure.t -> int list -> prep
(** [prep g dist] refines [(g, dist)] to its stable coloring.  Pass [gf]
    (the Gaifman graph of [g]) to skip rebuilding it — results are
    identical either way. *)

val certificate_of_prep : prep -> int

val isomorphic_prep : prep -> prep -> bool
(** Exact center-respecting isomorphism, reusing both precomputations. *)

val isomorphic :
  ?gfa:Gaifman.t ->
  ?gfb:Gaifman.t ->
  Structure.t -> int list -> Structure.t -> int list -> bool
(** [isomorphic a da b db] decides whether there is an isomorphism of [a]
    onto [b] mapping the i-th element of [da] to the i-th of [db].  The two
    structures must share a schema; distinguished lists must have equal
    lengths.  [gfa]/[gfb] optionally supply the precomputed Gaifman
    graphs. *)

val certificate : ?gf:Gaifman.t -> Structure.t -> int list -> int
(** Refinement-based invariant of [(structure, distinguished)] up to
    isomorphism: equal for isomorphic inputs, usually different
    otherwise.  Supplying [gf] (the structure's Gaifman graph) skips its
    reconstruction and never changes the value. *)

val mix : int -> int -> int
(** The deep FNV-style int mixer behind the certificate — exposed so
    bucket keys elsewhere (cheap invariants) hash every component instead
    of the ~10 nodes [Hashtbl.hash] samples. *)
