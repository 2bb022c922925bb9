(* The 64-bit state lives unboxed in an 8-byte buffer: a mutable [int64]
   record field would box a fresh value on every draw.  [mix] and
   [bits64] are inlined into the draws below, so [bool] and [int] keep
   the whole step in registers and allocate nothing.  Callers in other
   modules see only the abstract type; under [-opaque] (dune's dev
   profile) nothing is inlined across modules, so a per-draw hot loop
   elsewhere should call [bool]/[int], not [bits64], whose result is
   boxed at the call boundary (DESIGN.md 5.13). *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  set64 g 0 s;
  g

let create seed = of_state (Int64.of_int seed)

let copy g = Bytes.copy g

(* SplitMix64 output function (Steele, Lea, Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 g =
  let s = Int64.add (get64 g 0) golden_gamma in
  set64 g 0 s;
  mix s

let split g = of_state (mix (bits64 g))

let int g n =
  assert (n > 0);
  (* Rejection-free for our sizes: take 62 non-negative bits and mod.  The
     modulo bias is < 2^-50 for any n we use. *)
  let x = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  x mod n

let bool g = Int64.logand (bits64 g) 1L = 1L

(* [k] successive [bool] draws, draw [i] in bit [i]: the low bit of each
   output is or-ed in, so no draw ends in a data-dependent branch, and
   the state is stored once. *)
let bools g k =
  if k < 0 || k > 62 then invalid_arg "Prng.bools: want 0 <= k <= 62";
  let s = ref (get64 g 0) and acc = ref 0 in
  for i = 0 to k - 1 do
    s := Int64.add !s golden_gamma;
    acc := !acc lor ((Int64.to_int (mix !s) land 1) lsl i)
  done;
  set64 g 0 !s;
  !acc

let[@inline] float g x =
  let b = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  b /. 9007199254740992.0 *. x

let bernoulli g p = float g 1.0 < p

let pm_one g = if bool g then 1 else -1

let choose g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample g k a =
  let a = Array.copy a in
  shuffle g a;
  Array.sub a 0 (min k (Array.length a))

let subset g p xs = List.filter (fun _ -> bernoulli g p) xs
