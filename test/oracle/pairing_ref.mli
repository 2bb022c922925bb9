(** The pre-CSR pairing tail over [Tuple.t] containers, preserved as an
    executable reference for {!Wm_watermark.Pairing}: same contracts,
    with parameters and pair endpoints as tuples instead of ranks. *)

open Wm_watermark

val classes : Query_system.t -> canonical:Tuple.t list -> (Tuple.t * int list) list
val s_partition : Query_system.t -> canonical:Tuple.t list -> Pairing.pair list
val split_counts : Query_system.t -> Pairing.pair list -> (Tuple.t * int) list
val max_split : Query_system.t -> Pairing.pair list -> int

val select_random :
  Wm_util.Prng.t -> Query_system.t -> Pairing.pair list -> p:float -> budget:int ->
  Pairing.pair list option

val select_greedy :
  Wm_util.Prng.t -> Query_system.t -> Pairing.pair list -> budget:int ->
  Pairing.pair list * int
