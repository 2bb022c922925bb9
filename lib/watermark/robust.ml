let redundancy_for c ~message_length =
  Codec.redundancy ~capacity:(Carriers.capacity c) ~length:message_length

let mark c ~times message w =
  let capacity = Carriers.capacity c in
  if times * Bitvec.length message > capacity then
    invalid_arg "Robust.mark: over capacity";
  (* the repeated message, zero-padded to every carrier *)
  let padded =
    Bitvec.of_list capacity (Bitvec.to_list (Codec.repeat ~times message))
  in
  Carriers.mark c padded w

let detect c ~times ~length ~original ~server =
  let raw = Carriers.detect c ~original ~server ~length:(Carriers.capacity c) in
  let votes = Codec.vote ~times ~length (fun j -> Some (Bitvec.get raw j)) in
  Bitvec.of_bools (Array.map (( = ) (Some true)) votes)
