(** Small descriptive-statistics helpers for the experiment harness.

    The Agrawal-Kiernan baseline (experiment E12) is judged by the paper on
    whether it preserves the mean and variance of numerical attributes; the
    experiment tables also report maxima, quantiles and rates. *)

val mean : float array -> float
(** Arithmetic mean; 0. on the empty array. *)

val variance : float array -> float
(** Population variance; 0. on arrays of length < 2. *)

val stddev : float array -> float

val min_max : float array -> float * float
(** Smallest and largest value; raises [Invalid_argument] on empty input. *)

val quantile : float -> float array -> float
(** [quantile q a] with [0 <= q <= 1]; nearest-rank on a sorted copy. *)

val imax : int array -> int
(** Largest element; [imax] of an empty array is 0 (all our uses measure
    non-negative distortions, where 0 is the correct neutral element).
    On non-empty input the true maximum is returned even when every
    element is negative. *)

val rate : int -> int -> float
(** [rate num den] is [num/den] as a float, 0. when [den = 0]. *)

val histogram : bins:int -> float array -> (float * float * int) array
(** [histogram ~bins a] splits the value range into [bins] equal intervals
    and returns [(lo, hi, count)] per bin.  Raises [Invalid_argument] when
    [bins <= 0]. *)
