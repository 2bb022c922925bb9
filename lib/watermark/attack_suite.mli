(** Deterministic attack-survivability sweeps.

    The harness behind experiment E19 and the [wmark attack] subcommand:
    mark a workload through the {!Robust} (Fact 1) wrapper, subject the
    marked copy to a grid of (attack x budget x redundancy) cells — both
    weight-level ({!Adversary.attack}) and structural
    ({!Adversary.structural}) — and record, per cell, the bit-error rate,
    the erasure rate, the id-match p-value over surviving carriers, the
    distortion the attacker spent, and whether the survivable and the
    plain aligned detector each recovered the message.

    Everything is a pure function of the seed: each cell gets its own
    generator derived from (seed, redundancy, grid position), so adding a
    row to the grid never changes earlier rows. *)

type spec =
  | Weights of Adversary.attack
  | Structural of Adversary.structural
  | Edited of Adversary.edit_attack
      (** An edit-script attack: surviving element ids are preserved, the
          reported dirty set drives an incremental
          {!Wm_relational.Neighborhood.reindex} from the scheme's base
          index, and the cell reports whether the attack drifted the
          neighborhood-type set ({!outcome.type_drift}). *)
  | Mixed of { fraction : float }
      (** Mix-and-match against a {e second} copy of the same instance
          marked with the complement message (the suite marks it
          internally): spliced carriers vote for the other message.
          Kamran–Farooq taxonomy, arXiv:1801.08271. *)
  | Informed_offset of { delta : int }
      (** {!Adversary.Targeted_offset} on the scheme's own pair list: a
          recovery-aware attacker distorts every carrier {e identically on
          both pair endpoints}, so weight-difference detection stays
          blind while the content audit registers every touched group. *)
  | Capsule_mix of { fraction : float }
      (** {!Mixed} plus {!Recovery.splice} of the two copies' certificate
          capsules at the same fraction: the surviving records are
          authentic but describe the other marking, so repair can be
          actively wrong — the false-repair hazard the
          {!outcome.false_repairs} column measures. *)

val describe_spec : spec -> string

val spec_params : spec -> string
(** Machine-readable [kind:key=value,...] parameter string — with the
    master seed and the grid index this replays any cell standalone
    ([wmark attack --only]). *)

type outcome = {
  attack : string;
  grid_index : int;  (** position in the grid — the replay handle *)
  cell_seed : int;
      (** the derived per-cell PRNG seed ((master * 1000003) + (R * 1009)
          + index) actually used, recorded for standalone replay *)
  params : string;  (** {!spec_params} of the cell's attack *)
  redundancy : int;
  bits : int;
  carriers : int;  (** pairs read = redundancy * bits *)
  erased : int;
  erasure_rate : float;
  bit_errors : int;  (** Hamming distance decoded vs embedded *)
  ber : float;
  pvalue : float;  (** id-match p-value over surviving carriers *)
  accused : bool;
      (** [pvalue] at or below the {!Detector.sidak}-corrected threshold
          (alpha 0.01) over the {e full} grid: every cell scores one
          ownership hypothesis, so the grid is a family of simultaneous
          tests and the uncorrected per-cell alpha would overstate the
          evidence.  Computed before any [only] filtering, so replayed
          cells keep their verdicts. *)
  distortion : int option;
      (** global budget d' spent, for weight-level attacks *)
  recovered : bool;  (** survivable detector got the exact message *)
  naive_recovered : bool;  (** the aligned detector path did too *)
  type_drift : bool option;
      (** [Edited] cells only: did the attack create or suppress a
          neighborhood type (Theorem 8's re-mark condition), measured by
          incremental reindex against the base index *)
  rec_recovered : bool;
      (** repair-then-detect ({!Recovery.detect_repaired}) got the exact
          message *)
  recovered_bits : int;
      (** message bits wrong before repair and right after — what the
          certificates bought *)
  false_repairs : int;
      (** message bits right before repair and wrong after — repair
          actively hurting, e.g. under [Capsule_mix] *)
  groups_repaired : int;
  groups_unrepairable : int;
  groups_distorted : int;  (** audit result on the unrepaired suspect *)
  groups_erased : int;
}

type report = {
  workload : string;
  message : Bitvec.t;
  capacity : int;
  active : int;
  rows : outcome list;
}

val default_grid : active:int -> spec list
(** Budgets scaled to the workload: flip counts at 10%/30% of the active
    set, deletions at 10–30%, a half sample, 10% noise rows, a shuffle,
    plus a zero-delta offset as the no-attack baseline row; appended after
    those, edit-script cells (tuple drops at 10%/30%, a 10% element
    graft) that also report type drift. *)

val run :
  ?options:Local_scheme.options ->
  ?seed:int ->
  ?redundancies:int list ->
  ?message_bits:int ->
  ?grid:spec list ->
  ?only:int list ->
  ?workload:string ->
  Weighted.structure ->
  Query.t ->
  (report, string) result
(** Prepare the Theorem 3 scheme once, then sweep — one grid cell per
    {!Wm_par.Pool} task.  Every cell owns a PRNG derived from (seed,
    redundancy, grid position), so the report is bit-identical for every
    job count.
    [only] restricts the sweep to the listed grid indices {e without}
    changing their derived PRNGs — any cell from a previous report or
    trace span replays standalone with identical numbers.  Redundancies
    that do not fit the capacity are skipped; [Error _] when none fits or
    the scheme cannot be prepared. *)

val to_csv : report -> string
(** Machine-readable form, one line per cell, RFC-4180-quoted attack
    labels. *)

val to_json : report -> Wm_util.Json.t
(** The report as JSON ([wmark attack --json], the bench trajectory). *)

val render : report -> string
(** Human-readable table. *)

val pp : Format.formatter -> report -> unit
