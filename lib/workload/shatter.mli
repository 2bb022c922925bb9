(** The shattering structure families of Section 2.

    [full n] realizes the paper's impossibility witness: 2^n + n vertices
    where the i-th of the first 2^n vertices is E-linked to the i-th subset
    of the last n vertices.  For psi(u,v) = E(u,v) the active set W is
    those n vertices and C(psi, G) shatters all of W, so
    VC(psi, G) = |W| and Theorem 2 forbids any watermarking scheme.

    [half n] realizes Remark 1: 2^(n/2) + 1 + n vertices; the first 2^(n/2)
    vertices enumerate the subsets of the {e first} n/2 active vertices,
    and one extra vertex [hub] is linked to {e all} n active vertices.  The
    VC-dimension is n/2 (unbounded as a class), yet the last n/2 active
    vertices occur only in W_hub, so balanced (+1,-1) distortions on them
    hide n/4 bits at global distortion 0. *)

val query : Query.t
(** psi(u, v) = E(u, v). *)

val full : int -> Weighted.structure
(** [full n] for 1 <= n <= 16 (the structure has 2^n + n elements). *)

val half : int -> Weighted.structure
(** [half n] for even n, 2 <= n <= 20. *)


val half_free : int -> int list
(** The n/2 active elements that occur only in W_hub — the carriers of the
    zero-distortion marking of Remark 1. *)

val half_hub : int -> int
(** The special vertex linked to every active element. *)
