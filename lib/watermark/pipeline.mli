(** End-to-end helpers for XML documents: document + pattern --(encode,
    compile, Theorem 5)--> marked document.  (A relational structure
    needs no wrapper: {!Local_scheme.prepare} then {!Local_scheme.mark}.)

    Preparation is deterministic given (document, query, options), so the
    owner re-runs it at detection time and reads the mark from the suspect
    server's answers. *)

type xml_scheme = {
  scheme : Tree_scheme.t;
  binary : Wm_trees.Btree.t;  (** abstract binary view of the original *)
  pattern : Wm_xml.Pattern.t;
}

val prepare_xml :
  ?options:Tree_scheme.options ->
  Wm_xml.Utree.t -> Wm_xml.Pattern.t -> (xml_scheme, string) result

val mark_xml : xml_scheme -> message:Bitvec.t -> Wm_xml.Utree.t -> Wm_xml.Utree.t
(** Rewrites the value nodes of the document (which must be the prepared
    document or a weights-only update of it). *)

val detect_xml :
  xml_scheme -> original:Wm_xml.Utree.t -> suspect:Wm_xml.Utree.t ->
  length:int -> Bitvec.t
(** The suspect document must be structurally identical (weights-only
    distortions) — the paper's model where structure is parameter data. *)
