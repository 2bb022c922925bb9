(** Query-preserving watermarking — the public umbrella.

    One [open Qpwm] (or qualified access) reaches the whole system:

    - {!Prng}, {!Bitvec}, {!Codec}, {!Stats}, {!Texttab}, {!Json}:
      utilities ({!Codec.vote} is the one repetition-code majority
      decoder);
    - {!Obs}, {!Obs_report}: observability — counters, timers and trace
      spans ([WMARK_STATS] / [--stats] / [--trace-json] control);
    - {!Par}: the multicore execution engine (domain pool, deterministic
      parallel combinators, [WMARK_JOBS] / [--jobs] control);
    - {!Tuple}, {!Schema}, {!Relation}, {!Structure}, {!Weighted},
      {!Gaifman}, {!Iso}, {!Neighborhood}: relational substrate;
    - {!Fo}, {!Mso}, {!Eval}, {!Query}, {!Locality}, {!Parser}: logic;
    - {!Btree}, {!Alphabet}, {!Dta}, {!Nta}, {!Mso_compile}, {!Tree_query}:
      trees and automata;
    - {!Xml}, {!Utree}, {!Encode}, {!Pattern}: XML documents;
    - {!Setfam}, {!Vc}, {!Query_vc}: VC-dimension;
    - {!Query_system}, {!Distortion}, {!Pairing}, {!Carriers} (the
      selected pairs and their message format, shared by both schemes),
      {!Multi_scheme} (and its one-query view {!Local_scheme}),
      {!Tree_scheme}, {!Detector}, {!Adversary}, {!Robust},
      {!Capacity}, {!Incremental}, {!Agrawal_kiernan}, {!Pipeline}:
      the watermarking core;
    - {!Serve_store}, {!Serve_protocol}, {!Serve_engine}, {!Frame}: the
      [wmark serve] layer — persistent dataset store, length-prefixed
      wire protocol and batching scheduler;
    - {!Paper_examples}, {!Random_struct}, {!Shatter}, {!Grid},
      {!Trees_gen}, {!School_xml}, {!Bipartite}: workloads.

    The frozen reference implementations the tests compare against
    ([Neighborhood_ref], [Relation_ref], [Weighted_ref], [Tree_ref]) are
    not part of this API: they live in the private test-only library
    [wm_oracle] under [test/oracle/]. *)

(* utilities *)
module Prng = Wm_util.Prng
module Bitvec = Wm_util.Bitvec
module Codec = Wm_util.Codec
module Stats = Wm_util.Stats
module Texttab = Wm_util.Texttab
module Json = Wm_util.Json

(* observability: counters, timers, trace spans (see lib/obs) *)
module Obs = Wm_obs.Obs
module Obs_report = Wm_util.Obs_report

(* multicore execution engine *)
module Par = Wm_par.Pool

(* relational substrate *)
module Tuple = Wm_relational.Tuple
module Schema = Wm_relational.Schema
module Relation = Wm_relational.Relation
module Structure = Wm_relational.Structure
module Weighted = Wm_relational.Weighted
module Gaifman = Wm_relational.Gaifman
module Iso = Wm_relational.Iso
module Neighborhood = Wm_relational.Neighborhood
module Textio = Wm_relational.Textio

(* logic *)
module Fo = Wm_logic.Fo
module Mso = Wm_logic.Mso
module Eval = Wm_logic.Eval
module Query = Wm_logic.Query
module Locality = Wm_logic.Locality
module Parser = Wm_logic.Parser

(* trees and automata *)
module Btree = Wm_trees.Btree
module Alphabet = Wm_trees.Alphabet
module Dta = Wm_trees.Dta
module Nta = Wm_trees.Nta
module Mso_compile = Wm_trees.Mso_compile
module Tree_query = Wm_trees.Tree_query

(* XML *)
module Xml = Wm_xml.Xml
module Utree = Wm_xml.Utree
module Encode = Wm_xml.Encode
module Pattern = Wm_xml.Pattern

(* VC dimension *)
module Setfam = Wm_vc.Setfam
module Vc = Wm_vc.Vc
module Query_vc = Wm_vc.Query_vc

(* watermarking core *)
module Query_system = Wm_watermark.Query_system
module Distortion = Wm_watermark.Distortion
module Pairing = Wm_watermark.Pairing
module Carriers = Wm_watermark.Carriers
module Local_scheme = Wm_watermark.Local_scheme
module Tree_scheme = Wm_watermark.Tree_scheme
module Multi_scheme = Wm_watermark.Multi_scheme
module Detector = Wm_watermark.Detector
module Adversary = Wm_watermark.Adversary
module Robust = Wm_watermark.Robust
module Survivable = Wm_watermark.Survivable
module Recovery = Wm_watermark.Recovery
module Attack_suite = Wm_watermark.Attack_suite
module Fingerprint = Wm_watermark.Fingerprint
module Capacity = Wm_watermark.Capacity
module Incremental = Wm_watermark.Incremental
module Agrawal_kiernan = Wm_watermark.Agrawal_kiernan
module Pipeline = Wm_watermark.Pipeline

(* clique-width (Theorem 4) *)
module Cw_term = Wm_cliquewidth.Cw_term
module Cw_parse = Wm_cliquewidth.Cw_parse
module Cw_adjacency = Wm_cliquewidth.Cw_adjacency
module Treewidth = Wm_cliquewidth.Treewidth

(* serving layer: store, wire protocol, scheduler *)
module Serve_store = Wm_serve.Store
module Serve_protocol = Wm_serve.Protocol
module Serve_engine = Wm_serve.Engine
module Frame = Wm_util.Frame

(* workloads *)
module Paper_examples = Wm_workload.Paper_examples
module Random_struct = Wm_workload.Random_struct
module Shatter = Wm_workload.Shatter
module Grid = Wm_workload.Grid
module Trees_gen = Wm_workload.Trees_gen
module School_xml = Wm_workload.School_xml
module Biblio_xml = Wm_workload.Biblio_xml
module Bipartite = Wm_workload.Bipartite
