(** Deterministic bottom-up tree automata (Section 4).

    B = (Q, delta, F) with delta : (Q u {*})^2 x Sigma -> Q, where [*]
    stands for a missing child, exactly as in the paper's run definition.
    Automata here are complete (the transition table is total), which makes
    complementation a final-flip.  States are integers [0 .. nstates-1];
    [*] is represented as [-1] at the API boundary.

    Letters whose transition columns (the maps [(ql, qr) -> delta ql qr l])
    are equal share one {e letter class}; classes are numbered by their
    first letter, and the table holds one column per class.  The table
    operations below work class by class, so their cost scales with the
    number of classes, not of letters: the pebble alphabets of the MSO
    compiler have up to 8-15 times more letters than classes. *)

type t

val make :
  nstates:int ->
  nlabels:int ->
  final:(int -> bool) ->
  (int -> int -> int -> int) ->
  t
(** [make ~nstates ~nlabels ~final f] tabulates [f ql qr label] for
    [ql, qr] in [-1 .. nstates-1] ([-1] = [*]) and merges letters with
    identical columns.  The result of [f] must lie in [0 .. nstates-1].
    Cost: O(nstates^2 * labels) calls of [f]. *)

val of_classes :
  nstates:int ->
  classes:int array ->
  final:(int -> bool) ->
  (int -> int -> int -> int) ->
  t
(** [of_classes ~nstates ~classes ~final f] is
    [make ~nlabels:(Array.length classes) (fun ql qr l -> f ql qr classes.(l))],
    calling [f] once per distinct class id instead of once per letter.
    Class ids are non-negative.  Cost: O(labels + nstates^2 * classes). *)

val relabel : t -> nlabels:int -> (int -> int) -> t
(** [relabel t ~nlabels f] reads letter [l] as [t] reads [f l], for [l]
    in [0 .. nlabels-1] (cylindrification inserts a pebble bit this way,
    and the compiler's final bit permutation too).  Cost: O(labels +
    nstates^2 * classes). *)

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

val product : t -> t -> final:(bool -> bool -> bool) -> t
(** Pairing construction; [final] combines the two finality predicates
    (conjunction = intersection, disjunction = union, xor = symmetric
    difference).  Only the bottom-up-reachable pairs become states, at
    most [nstates a * nstates b] of them, numbered in ascending
    [qa * nstates b + qb]: the result equals [reduce] of the full pairing
    table, state numbers included (DESIGN.md 5.4).  Its letter classes
    are the distinct pairs of operand classes.  Cost: O(R^2 * C) for R
    reachable pairs and C such class pairs. *)

val complement : t -> t

val accept_all : nlabels:int -> t
val accept_none : nlabels:int -> t

val reduce : t -> t
(** Restricts to bottom-up-reachable states, renumbered in ascending
    order (the automaton itself when all are reachable).  The language is
    unchanged; unreachable states would otherwise poison minimization and
    inflate the m of Theorem 5.  Cost: O(states^2 * classes). *)

val minimize : t -> t
(** Moore partition refinement on the reduced automaton.  Each round
    streams every state's signature (its block and the blocks of the
    O(states * classes) transitions it takes part in), hashed in full and
    compared only against block representatives with the same hash, so a
    round costs O(states^2 * classes) time and O(states) space.  Blocks of
    equivalent states are numbered by their smallest member, and letter
    classes whose columns the merge made equal are merged. *)

val nclasses : t -> int
val letter_class : t -> int -> int
(** The class of a letter, in [0 .. nclasses-1]. *)

val class_delta : t -> int -> int -> int -> int
(** [class_delta t ql qr c] is [delta t ql qr l] for every letter [l] of
    class [c]. *)

val is_empty : t -> bool
(** No reachable final state. *)

val equivalent : t -> t -> bool
(** Same language (decided via the symmetric-difference product). *)

val pp : Format.formatter -> t -> unit
(** Summary line: state and label counts, final states. *)
