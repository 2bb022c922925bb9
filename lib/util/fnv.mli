(** FNV-1a over native ints: the one keyed-hash primitive behind
    recovery certificates, recipient keys and copy digests.  Keyed uses
    mix the key in as a prefix ([string (string basis key) payload]), so
    without the key the output cannot be recomputed.  Arithmetic wraps
    modulo 2^63 (OCaml's native int), so values differ from the 64-bit
    reference FNV-1a but are stable across platforms with 63-bit ints. *)

val prime : int
(** The 64-bit FNV prime. *)

val basis : int
(** The 64-bit FNV offset basis, reduced modulo 2^63. *)

val string : int -> string -> int
(** [string h s] folds the bytes of [s] into the running hash [h]: for
    each byte [c], [h <- (h lxor c) * prime]. *)
