(** Attack models for the adversarial setting (Section 1 / Fact 1).

    An attacker holds a marked instance and perturbs it to erase the mark,
    under the {e bounded distortion} assumption (it must still sell useful
    data) and the {e limited knowledge} assumption (it does not know which
    weights carry the mark).

    Two families:

    {ul
    {- {e Weight-level} attacks ({!attack}) transform weight assignments
       and never touch the structure — the paper's Fact 1 regime, where
       membership in query results is parameter data by definition.}
    {- {e Structural} attacks ({!structural}, {!tree_attack}) model a real
       redistributor who deletes tuples, samples a subset, injects noise
       rows, renumbers, or prunes and reorders XML subtrees.  These return
       a perturbed {e structure}; the aligned detectors silently break on
       them, and {!Survivable} is the degraded-mode answer.}} *)

type attack =
  | Uniform_noise of { amplitude : int }
      (** Add an independent uniform integer in [-amplitude, amplitude] to
          every active weight. *)
  | Random_flips of { count : int; amplitude : int }
      (** Add +-amplitude to [count] randomly chosen active weights —
          the attacker guessing mark positions. *)
  | Rounding of { multiple : int }
      (** Round every active weight to the nearest multiple — the classic
          "launder the low bits" attack that kills LSB schemes. *)
  | Constant_offset of { delta : int }
      (** Shift every active weight — pair-difference detectors are
          provably immune. *)
  | Back_to_original of { original : Weighted.t; fraction : float }
      (** Reset a random fraction of active weights to their values in
          another copy the attacker obtained (models partial knowledge
          leakage; fraction 1.0 erases the mark completely). *)
  | Mix_and_match of { other : Weighted.t; fraction : float }
      (** Splice a random fraction of active weights from a {e second
          marked copy} (Kamran–Farooq mix-and-match, arXiv:1801.08271):
          each spliced carrier votes for the other copy's message, so
          majorities flip without the distortion budget ever exceeding
          the marking amplitude. *)
  | Targeted_offset of { pairs : Pairing.pair list; delta : int }
      (** A recovery-aware attacker who learned the scheme's pair list
          shifts {e both} endpoints of every pair by the same delta.
          Weight-difference detection is provably blind to it
          ({!Detector.read} sees unchanged differences); only a
          content-level audit ({!Recovery.audit}) registers the
          distortion. *)

val apply :
  Prng.t -> attack -> active:Tuple.t list -> Weighted.t -> Weighted.t

val describe : attack -> string

(** {1 Collusion attacks}

    A coalition of k recipients, each holding a copy fingerprinted with
    its own codeword ({!Fingerprint}), combines the copies into one
    suspect that implicates no single member.  All three keep every
    weight within the set of values some coalition copy holds, so the
    distortion budget never exceeds the marking amplitude. *)

type collusion =
  | Coalition_majority
      (** Per-tuple lower median of the k copies: carriers where the
          coalition's codewords disagree collapse to the majority
          orientation (an even split goes silent). *)
  | Coalition_mix
      (** Per-tuple uniform donor copy — iid mix-and-match across the
          whole coalition. *)
  | Coalition_interleave
      (** Round-robin through a randomly permuted, randomly phased copy
          order: every copy donates an exactly balanced share. *)

val copy_prng : cell_seed:int -> copy:int -> Prng.t
(** The generator for per-copy perturbations inside one coalition cell,
    derived from the cell seed and the copy index ([>= 0]).  Distinct
    copies get distinct, independent streams — one shared stream would
    correlate the copies' noise, which cancels in weight differences and
    understates the attack.  Deterministic: equal (seed, copy) give equal
    streams. *)

val apply_collusion :
  Prng.t -> collusion -> active:Tuple.t list -> Weighted.t array ->
  Weighted.t
(** Combine the coalition's copies over the active tuples; off-active
    tuples keep the first copy's values.  Deterministic in the generator
    (draw order: one draw per active tuple for [Coalition_mix]; a
    shuffle plus one offset draw for [Coalition_interleave]; none for
    [Coalition_majority]).  Raises [Invalid_argument] on an empty
    coalition. *)

val describe_collusion : collusion -> string

(** {1 Structural attacks on relational instances}

    All four renumber or resize the universe; surviving elements keep
    their display name (materialized via
    {!Wm_relational.Structure.with_default_names} when absent), the moral
    equivalent of rows keeping their key columns when other rows are
    deleted.  {!Survivable.detect_structure} re-identifies carriers
    through those names. *)

type structural =
  | Delete_tuples of { fraction : float }
      (** Drop each element independently with the given probability,
          together with every relation tuple and weight mentioning it.
          At least one element always survives. *)
  | Subset_sample of { keep : float }
      (** Keep each element independently with probability [keep] — the
          "sell a sample" redistribution attack. *)
  | Insert_noise_tuples of { count : int; amplitude : int }
      (** Append [count] fresh elements, each joining one random tuple per
          relation symbol; unary weights of noise elements are uniform in
          [0, amplitude]. *)
  | Shuffle_universe
      (** Renumber the elements by a random permutation — pure
          identity-stripping; no information is lost, but detectors keyed
          on element ids read garbage. *)

val apply_structural :
  Prng.t -> structural -> Weighted.structure -> Weighted.structure
(** Deterministic in the generator: equal seeds give equal suspects. *)

val describe_structural : structural -> string

(** {1 Edit-script attacks}

    Structural perturbations phrased as {!Wm_relational.Structure.edit}
    scripts: element ids of survivors are untouched (tuples are dropped in
    place, fresh elements are appended), so the script's dirty set feeds
    {!Wm_relational.Neighborhood.reindex} directly and the attack grid can
    measure neighborhood-type drift against the scheme's base index
    instead of re-typing the suspect from scratch. *)

type edit_attack =
  | Drop_relation_tuples of { fraction : float }
      (** Delete each relation tuple independently with the given
          probability — thins query results without renumbering. *)
  | Graft_elements of { count : int; amplitude : int }
      (** Append [count] fresh elements, each joining one random tuple per
          relation symbol; unary weights of grafted elements are uniform
          in [0, amplitude]. *)

val edit_script :
  Prng.t -> edit_attack -> Weighted.structure ->
  Structure.edit list * (Tuple.t * int) list
(** The attack as an edit script plus weight entries for grafted
    carriers.  Deterministic in the generator. *)

val apply_edit_attack :
  Prng.t -> edit_attack -> Weighted.structure ->
  Weighted.structure * Structure.edit list * int list
(** Runs {!edit_script} through {!Wm_relational.Structure.apply_edits}:
    the suspect instance, the script, and the dirty element set. *)

val describe_edit : edit_attack -> string

(** {1 Structural attacks on XML documents} *)

type tree_attack =
  | Delete_subtrees of { fraction : float }
      (** Delete each non-root element subtree independently with the
          given probability (a surviving ancestor keeps its other
          children). *)
  | Reorder_siblings
      (** Shuffle the child order under every element — document order,
          which node-id-keyed detectors depend on, is destroyed. *)
  | Strip_values of { fraction : float }
      (** Delete each integer-valued text node (each weight carrier)
          independently with the given probability. *)

val apply_tree : Prng.t -> tree_attack -> Wm_xml.Utree.t -> Wm_xml.Utree.t
(** Deterministic in the generator; attributes and non-value text are
    carried along untouched. *)

val describe_tree : tree_attack -> string
