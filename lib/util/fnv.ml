let prime = 0x100000001B3
let basis = Int64.to_int 0xCBF29CE484222325L (* 64-bit basis mod 2^63 *)

let string h s =
  let h = ref h in
  String.iter (fun c -> h := (!h lxor Char.code c) * prime) s;
  !h
