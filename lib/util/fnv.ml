let prime = 0x100000001B3
let basis = Int64.to_int 0xCBF29CE484222325L (* 64-bit basis mod 2^63 *)

(* A plain loop: a [String.iter] closure would box the running hash. *)
let string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * prime
  done;
  !h
