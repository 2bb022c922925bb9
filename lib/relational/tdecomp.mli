(** Elimination-ordering tree decompositions over CSR Gaifman graphs.

    The shared engine behind {!Wm_cliquewidth.Treewidth} (whole
    structures, Theorem 4 tooling) and the decomposition codes of
    neighborhood typing (renamed sphere shapes, DESIGN.md 5.14).  It lives here, below the cliquewidth layer,
    because [Neighborhood] cannot depend on [wm_cliquewidth].

    All tie-breaks go to the lowest vertex id, so every decomposition is
    a deterministic function of its input graph — the canonical-code
    machinery of neighborhood typing depends on that. *)

type t = {
  bags : int array array;
      (** bag of elimination step [s]: the elimination clique, sorted *)
  edges : (int * int) list;  (** tree edges between bag indices *)
  step_of : int array;  (** elimination step (= own bag) of each vertex *)
  width : int;  (** max bag size - 1 (0 for the empty graph) *)
}

type heuristic = Min_degree | Min_fill

val width : t -> int

val eliminate : ?heuristic:heuristic -> Gaifman.t -> t
(** Eliminate all vertices in heuristic order ([Min_degree] by default;
    [Min_fill] picks the vertex adding the fewest fill edges, degree
    then id as tie-breaks), turning each eliminated vertex's remaining
    neighborhood into a clique.  Bags are the elimination cliques; each
    bag attaches to the bag of its earliest-eliminated remaining member,
    and component-final bags glue to the last bag, so the result is one
    tree even on disconnected graphs. *)

val eliminate_masks : ?heuristic:heuristic -> int array -> t
(** {!eliminate} on bitmask adjacency: [adj.(v)] has bit [w] set iff
    [{v, w}] is an edge (self-bits ignored; the mask array is copied,
    not consumed).  This is the word-sized engine behind every
    decomposition code of the neighborhood indexer, whose 62-vertex
    limit decides which spheres get a code — identical output to
    building a {!Gaifman.t} and calling {!eliminate}.
    @raise Invalid_argument on more than 62 vertices. *)

val canonical_labels : t -> colors:int array -> root:int -> int array
(** [canonical_labels t ~colors ~root] is a permutation of [0..n-1]
    relabeling the decomposed graph's vertices canonically: the bag tree
    is rooted at [root]'s own elimination bag, every bag gets an
    AHU-style subtree code (bottom-up, children folded in sorted order,
    bag members contributing the iso-invariant [colors]), and a
    depth-first walk — children in code order, members in color order —
    assigns dense labels at first sight.  Isomorphic pointed spheres
    whose decompositions agree are relabeled onto literally equal
    structures, letting callers compare flat encodings instead of
    running isomorphism tests.

    @raise Invalid_argument if [root] or a bag edge is out of range, if
    [colors] has the wrong length, or if the bag graph is
    disconnected. *)
