(** Gaifman-component sharding (DESIGN.md 5.11).

    A rho-sphere never leaves its connected component of the Gaifman
    graph, so neighborhood indexing and detection both decompose along
    components: shards run in parallel on the {!Wm_par.Pool}, and a
    sequential merge walks the global parameter order so the result —
    type numbering and representatives included — is bit-identical to
    the unsharded computation. *)

type plan
(** A component decomposition of one structure's universe. *)

val plan : Gaifman.t -> plan
val ncomps : plan -> int

val index :
  ?jobs:int ->
  Structure.t ->
  Gaifman.t ->
  plan ->
  rho:int ->
  Tuple.t list ->
  (Neighborhood.index, string) result
(** Sharded [Neighborhood.index g ~rho params]: each component's
    parameters are typed on its induced substructure, then classes are
    merged across shards by exact (certificate-filtered) neighborhood
    isomorphism, numbered by first occurrence in the global parameter
    order.  Only arity-1 parameter sets shard (higher arities may
    straddle components); other inputs return [Error].  Each shard runs
    the one {!Neighborhood.index} path, so a sphere gets the same
    decomposition code sharded or not. *)

val read_weights :
  ?jobs:int ->
  plan ->
  Pairing.pair list ->
  original:Weighted.t ->
  suspect:Weighted.t ->
  length:int ->
  Detector.verdict
(** Sharded [Detector.read_weights]: carriers are partitioned by their
    first endpoint's component, classified shard-by-shard in parallel,
    scattered back into slot order and accumulated by
    {!Detector.verdict_of_carriers} — the verdict equals the unsharded
    one by construction. *)
