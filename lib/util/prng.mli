(** Deterministic, splittable pseudo-random number generator.

    The watermarking algorithms of the paper are probabilistic (Definition 2
    speaks of a probability space [Omega] over the marker's coin flips), and
    detection requires the owner to replay the marker's choices exactly.  We
    therefore avoid the global [Stdlib.Random] state and thread an explicit
    generator everywhere.  The implementation is SplitMix64, which is fast,
    has a 64-bit state, and supports cheap splitting for independent
    substreams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Equal seeds give
    equal streams on every platform. *)

val copy : t -> t
(** [copy g] is an independent generator whose future output equals [g]'s. *)

val split : t -> t
(** [split g] advances [g] and returns a statistically independent child
    generator; used to give each pair / each experiment its own stream. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val float : t -> float -> float
(** [float g x] is uniform in [\[0, x)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p]. *)

val pm_one : t -> int
(** Uniform in {-1, +1}. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> 'a array -> 'a array
(** [sample g k a] draws [min k (Array.length a)] distinct elements uniformly
    without replacement (order unspecified). *)

val subset : t -> float -> 'a list -> 'a list
(** [subset g p xs] keeps each element independently with probability [p]. *)

val bools : t -> int -> int
(** [bools g k] makes [k] successive {!bool} draws and packs draw [i]
    into bit [i] of the result (1 for [true]); the generator ends where
    [k] calls of [bool] would leave it.  Branch-free per draw.  Requires
    [0 <= k <= 62], so the result is non-negative. *)
