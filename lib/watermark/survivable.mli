(** Degraded-mode detection after structural attacks.

    The aligned detectors ({!Local_scheme.detect_weights},
    {!Tree_scheme.detect_weights}, {!Pipeline.detect_xml}) assume the
    suspect is a weights-only copy of the original: carriers are keyed by
    element id / node id, so the moment a redistributor deletes tuples,
    samples a subset, renumbers the universe or prunes XML subtrees, they
    read garbage — or raise.  This module re-aligns the surviving carriers
    against the original before reading:

    {ul
    {- relational elements are matched by their display names (the key
       columns of the row, materialized by the structural attacks),
       through {!Wm_relational.Structure.name_index};}
    {- XML value nodes are matched by their root-to-node path, where each
       ancestor is identified by its tag and the non-numeric text of its
       subtree, plus an ordinal among same-path siblings.}}

    Carriers with no surviving endpoint become {e erasures}
    ({!Detector.verdict}[.erased]), not errors: they are excluded from the
    sign statistics and from {!Detector.match_pvalue}'s trials, so
    detection confidence degrades gracefully with the attack budget
    instead of collapsing.  Carrier location and classification are
    per-carrier local: the regime studied for locally treelike
    databases (Chattopadhyay–Praveen, arXiv:1909.11369) and graph
    watermarking under node deletion (Eppstein et al., arXiv:1605.09425). *)

type alignment = {
  observed : int Tuple.Map.t;
      (** surviving carrier (keyed by {e original} tuple / node id) ->
          its weight in the suspect *)
  total : int;
  matched : int;
  missing : int;
}

val align_trees :
  original:Wm_xml.Utree.t -> suspect:Wm_xml.Utree.t -> alignment
(** Align the original's value nodes against the suspect by path
    signature.  Reordered subtrees still match (signatures carry no
    sibling position); same-path siblings match by surviving ordinal, so
    deleting one exam of a student erases at most that student's later
    exams. *)

(** {1 Redundant (Fact 1 wrapper) decoding with erasures} *)

val match_pvalue : expected:Bitvec.t -> Robust.verdict -> float
(** Carrier-level p-value of the suspect agreeing with [expected],
    conditioned on surviving carriers only. *)

(** {1 End-to-end conveniences} *)

val detect_structure :
  Carriers.t -> times:int -> length:int ->
  original:Weighted.structure -> suspect:Weighted.structure ->
  Robust.verdict * alignment
(** Align (on the carriers' pair endpoints) and decode in one step; the
    carriers come from {!Multi_scheme.carriers}. *)

val detect_tree :
  Carriers.t -> times:int -> length:int ->
  original:Wm_xml.Utree.t -> Wm_xml.Utree.t ->
  Robust.verdict * alignment
(** [detect_tree c ~times ~length ~original suspect] — same for XML
    documents, with the carriers of {!Tree_scheme.carriers} (node ids in
    the binary encoding coincide with document node ids). *)
