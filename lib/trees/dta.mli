(** Deterministic bottom-up tree automata (Section 4).

    B = (Q, delta, F) with delta : (Q u {*})^2 x Sigma -> Q, where [*]
    stands for a missing child, exactly as in the paper's run definition.
    Automata here are complete (the transition table is total), which makes
    complementation a final-flip.  States are integers [0 .. nstates-1];
    [*] is represented as [-1] at the API boundary. *)

type t

val make :
  nstates:int ->
  nlabels:int ->
  final:(int -> bool) ->
  (int -> int -> int -> int) ->
  t
(** [make ~nstates ~nlabels ~final f] tabulates [f ql qr label] for
    [ql, qr] in [-1 .. nstates-1] ([-1] = [*]).  The result of [f] must lie
    in [0 .. nstates-1]. *)

val make_reachable :
  nlabels:int ->
  final:('s -> bool) ->
  delta:('s option -> 's option -> int -> 's) ->
  t
(** Build from a symbolic transition function over an arbitrary state type
    ([None] = [*]), materializing only the bottom-up-reachable states by
    worklist closure — for automata whose natural state space is a large
    product of which only a sliver is reachable (e.g. the clique-width
    query automata).  States are interned by structural equality; [delta]
    must be pure and reach finitely many states. *)

val nstates : t -> int
val nlabels : t -> int
val is_final : t -> int -> bool

val delta : t -> int -> int -> int -> int
(** [delta t ql qr label]; [-1] stands for [*]. *)

val run : t -> Btree.t -> label_of:(int -> int) -> int array
(** The run rho : T -> Q on a tree relabeled by [label_of] (use
    {!Alphabet.labeler} to place pebbles).  Index = node id. *)

val state_at_root : t -> Btree.t -> label_of:(int -> int) -> int
val accepts : t -> Btree.t -> label_of:(int -> int) -> bool

val run_with_hole :
  t -> Btree.t -> label_of:(int -> int) -> hole:int -> int option -> int
(** [run_with_hole t tree ~label_of ~hole q] evaluates the run on the
    subtree rooted at the root, except that the subtree rooted at [hole] is
    not descended into: its state is assumed to be [q] ([None] means the
    hole node is absent together with its subtree — used when summarizing a
    block whose child block may or may not exist).  Returns the state at the
    root.  The tree-scheme's behavior functions (Lemma 3) are tabulated with
    this. *)

val run_with_hole_states :
  t -> Btree.t -> label_of:(int -> int) -> hole:int -> int option -> int array
(** Like {!run_with_hole} but returns the whole state array (entries
    strictly below the hole are -1), so callers can read the state at an
    inner node such as a block root. *)

val product : t -> t -> final:(bool -> bool -> bool) -> t
(** Pairing construction; [final] combines the two finality predicates
    (conjunction = intersection, disjunction = union, xor = symmetric
    difference).  Only the bottom-up-reachable pairs become states, at
    most [nstates a * nstates b] of them, numbered in ascending
    [qa * nstates b + qb]: the result equals [reduce] of the full pairing
    table, state numbers included (DESIGN.md 5.4).  Cost: O(R^2 * labels)
    for R reachable pairs. *)

val complement : t -> t

val accept_all : nlabels:int -> t
val accept_none : nlabels:int -> t

val reduce : t -> t
(** Restricts to bottom-up-reachable states, renumbered in ascending
    order (the automaton itself when all are reachable).  The language is
    unchanged; unreachable states would otherwise poison minimization and
    inflate the m of Theorem 5. *)

val minimize : t -> t
(** Moore partition refinement on the reduced automaton.  Each round
    streams every state's signature (its class and the classes of the
    O(states * labels) transitions it takes part in), hashed in full and
    compared only against class representatives with the same hash, so a
    round costs O(states^2 * labels) time and O(states) space.  Classes
    are numbered by their smallest member. *)

val is_empty : t -> bool
(** No reachable final state. *)

val equivalent : t -> t -> bool
(** Same language (decided via the symmetric-difference product). *)

val pp : Format.formatter -> t -> unit
(** Summary line: state and label counts, final states. *)
