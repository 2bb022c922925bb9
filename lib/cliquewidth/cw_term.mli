(** Clique-width parse terms (Theorem 4).

    Theorem 4 extends the tree scheme to structures of bounded clique-width
    via their parse trees: "to a structure G with bounded clique-width we
    can associate a labeled parse-tree T [such that] psi(G) =
    psi~(T)".  This module is that algebra: the k-label graph operations

    - [Vertex l]          — a fresh vertex carrying label l,
    - [Union (s, t)]      — disjoint union,
    - [Add_edges (a,b,t)] — eta_{a,b}: edges between every a-labeled and
                            every b-labeled vertex (a <> b),
    - [Relabel (a,b,t)]   — rho_{a->b},

    together with evaluation to a graph structure, builders for classic
    families (cliques have clique-width 2, paths 3), and a random-term
    generator for the experiments.  Graph vertices are numbered by the
    preorder of the term's [Vertex] leaves, which is also the preorder of
    the corresponding leaf nodes in {!Cw_parse}'s binary parse tree — so
    vertex weights and parse-tree leaf weights coincide without
    translation. *)

type t =
  | Vertex of int
  | Union of t * t
  | Add_edges of int * int * t
  | Relabel of int * int * t

val width : t -> int
(** Number of labels used = 1 + the largest label mentioned. *)

val vertex_count : t -> int

val validate : t -> (unit, string) result
(** Labels non-negative, eta's two labels distinct. *)

val eval : t -> Structure.t
(** The graph over schema {!Schema.graph} (symmetric edge relation),
    universe = vertices in leaf preorder. *)

val clique : int -> t
(** K_n with 2 labels. *)

val path : int -> t
(** P_n with 3 labels. *)

val of_tree_graph : Structure.t -> (t * int array) option
(** The classical "trees have clique-width <= 3" construction: for a
    structure whose Gaifman graph is a forest, a 3-label term evaluating to
    it, together with the vertex map [orig.(term vertex id) = structure
    element].  [None] when the Gaifman graph has a cycle.  With
    {!Treewidth} this closes Theorem 4's chain for the width-1 case
    (tree-width 1 -> clique-width <= 3 -> parse-tree watermarking). *)

val random : Prng.t -> labels:int -> vertices:int -> t
(** A random term: vertices with random labels combined by random unions,
    each union followed by a random eta (and sometimes a rho), so the
    resulting graphs are connected-ish and have plenty of edges.  The
    clique-width is at most [labels]. *)

val pp : Format.formatter -> t -> unit
