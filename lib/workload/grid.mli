(** Grid structures — the unbounded-tree-width family of Theorem 6.

    The w x h grid has vertices (i, j) with horizontal and vertical
    successor relations H and V.  Its tree-width is min(w, h), so the grid
    class has unbounded tree-width; Grohe-Turán's Example 19 exhibits an
    MSO formula whose definable family shatters the whole active set on
    grids, which by Theorem 2 (the mechanism experiment E3 measures on the
    {!Shatter.full} family, the paper's own concrete witness) rules out an
    MSO-preserving watermarking scheme.  This module supplies the grids
    themselves: the experiment tables report their growing tree-width next
    to the bounded-degree property that keeps {e FO} watermarking alive on
    them (grids have degree <= 4). *)

val structure : w:int -> h:int -> Weighted.structure
(** Vertex (i, j) has id i*h + j; H links (i,j)->(i+1,j), V links
    (i,j)->(i,j+1); weights all 10. *)

val vertex : h:int -> int -> int -> int

val neighbors_query : Query.t
(** psi(u, v) = H(u,v) | H(v,u) | V(u,v) | V(v,u) — a local query usable by
    the Theorem 3 scheme on grids (degree 4). *)
