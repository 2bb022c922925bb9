(** Watermark message codec.

    A mark is a boolean word m in {0,1}^l (Definition 2).  Owners usually
    want to embed an identity — a server id or a short string — so this
    module converts between the representations used at the API boundary:
    integers, ASCII strings, and {!Bitvec.t} messages. *)

val of_int : bits:int -> int -> Bitvec.t
(** [of_int ~bits n] is the little-endian [bits]-long encoding of [n].
    Raises [Invalid_argument] unless [0 <= bits <= 62] and
    [0 <= n < 2^bits]. *)

val to_int : Bitvec.t -> int
(** Little-endian decoding; raises [Invalid_argument] on messages longer
    than 62 bits. *)

val of_string : string -> Bitvec.t
(** 8 bits per byte, little-endian within each byte. *)

val to_string : Bitvec.t -> string
(** Inverse of {!of_string}; raises [Invalid_argument] unless the length
    is divisible by 8. *)

val of_bool_list : bool list -> Bitvec.t
val to_bool_list : Bitvec.t -> bool list

val random : Prng.t -> int -> Bitvec.t
(** [random g l] is a uniform message of length [l]. *)

val hamming : Bitvec.t -> Bitvec.t -> int
(** Number of positions where the two messages differ; raises
    [Invalid_argument] on a length mismatch. *)

val repeat : times:int -> Bitvec.t -> Bitvec.t
(** [repeat ~times m] concatenates [times] copies of [m]: the redundancy
    encoding used by the adversarial (Khanna-Zane style) wrapper. *)

val vote : times:int -> length:int -> (int -> bool option) -> bool option array
(** Inverse of {!repeat}: a per-position vote over [times] interleaved
    copies of a [length]-bit message.  Carrier [t*length + i] votes for
    bit [i]; [carrier j = None] abstains (an erased or silent carrier).
    Bit [i] is [Some b] on a strict majority of the non-abstaining votes
    for [b], and [None] on a tie or when every carrier abstains.  Raises
    [Invalid_argument] unless [times > 0] and [length >= 0]. *)

val redundancy : capacity:int -> length:int -> int
(** The default repetition factor: the largest odd [R] with
    [R * length <= capacity], and at least 1.  Odd, so a vote over all
    [R] copies never ties.  Raises [Invalid_argument] unless
    [length > 0]. *)
