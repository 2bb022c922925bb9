(** Compilation of MSO formulas to tree automata (Lemma 2, after
    Grohe-Turán / Thatcher-Wright).

    Vocabulary tau(Sigma): binary [S1] (left child), [S2] (right child),
    [Leq] (reflexive tree order: [Leq(x,y)] iff x is an ancestor of y or
    x = y), equality, set membership, and one unary predicate per letter of
    Sigma written as an atom named by the letter, e.g. [exam(x)].

    The compilation is compositional, each subformula over its own pebble
    alphabet Sigma x {0,1}^k with one bit per free variable of the
    subformula, in sorted order: atoms become 3-5 state automata over
    their one or two variables; conjunction and disjunction cylindrify
    each operand to the union of the two variable sets (one inserted bit
    per missing variable, read through {!Dta.relabel} with
    {!Alphabet.drop_bit}, so the operand ignores it) and take the
    product; negation becomes complement intersected with the singleton
    validity of the free element variables; and quantifiers become bit
    projection, which removes the bound variable's bit, followed by
    subset-construction determinization.  The alphabets thus grow and
    shrink with the variables in scope.  The final automaton is
    cylindrified to the declared free variables and its bits permuted
    into the caller's order. *)

type t = {
  auto : Dta.t;  (** deterministic, complete, reduced *)
  alpha : Alphabet.t;  (** Sigma x {0,1}^k, bit i for the i-th free variable *)
  base : string array;  (** Sigma *)
  free_bits : (string * int) list;  (** free variable -> pebble bit *)
}

exception Unsupported of string
(** Raised on atoms outside the tree vocabulary. *)

val compile : base:string array -> free:string list -> Mso.t -> t
(** [compile ~base ~free phi] compiles [phi]; [free] must list exactly the
    free variables (element and set), in the bit order the caller wants.
    @raise Unsupported on non-tree atoms,
    @raise Invalid_argument when [free] mismatches the formula. *)

val accepts :
  t -> Btree.t -> elems:(string * int) list -> sets:(string * int list) list
  -> bool
(** Run the compiled automaton on T_{assignment}: element variables pebble
    one node, set variables pebble a set of nodes.  All free variables must
    be assigned. *)
