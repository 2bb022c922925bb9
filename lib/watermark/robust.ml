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

type verdict = {
  message : Bitvec.t;
  carriers : Detector.verdict;
  times : int;
  erased_bits : int;
  all_erased : bool;
}

let vote ~times ~length (carriers : Detector.verdict) =
  let { Detector.decoded; erasure; erased; _ } = carriers in
  if Bitvec.length decoded <> times * length then
    invalid_arg "Robust.vote: verdict length is not times * length";
  let votes =
    Codec.vote ~times ~length (fun j ->
        if Bitvec.get erasure j then None else Some (Bitvec.get decoded j))
  in
  let erased_bits = ref 0 in
  for i = 0 to length - 1 do
    let lost = ref true in
    for t = 0 to times - 1 do
      if not (Bitvec.get erasure ((t * length) + i)) then lost := false
    done;
    if !lost then incr erased_bits
  done;
  (* Total wipe-out is an explicit verdict, not a zero-trials binomial
     call decoding to a confident all-zero message. *)
  {
    message = Bitvec.of_bools (Array.map (( = ) (Some true)) votes);
    carriers;
    times;
    erased_bits = !erased_bits;
    all_erased = erased = times * length;
  }

let detect c ~times ~length ~original ~suspect =
  let carriers =
    Detector.read_weights (Carriers.pairs c) ~original ~suspect
      ~length:(times * length)
  in
  (vote ~times ~length carriers).message
