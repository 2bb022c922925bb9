type base = {
  capacity : int;
  embed : Bitvec.t -> Weighted.t -> Weighted.t;
  extract : original:Weighted.t -> server:Query_system.server -> Bitvec.t;
}

let of_local scheme =
  {
    capacity = Multi_scheme.capacity scheme;
    embed = (fun m w -> Multi_scheme.mark scheme m w);
    extract =
      (fun ~original ~server ->
        Multi_scheme.detect scheme ~original ~server
          ~length:(Multi_scheme.capacity scheme));
  }

let of_tree scheme =
  {
    capacity = Tree_scheme.capacity scheme;
    embed = (fun m w -> Tree_scheme.mark scheme m w);
    extract =
      (fun ~original ~server ->
        Tree_scheme.detect scheme ~original ~server
          ~length:(Tree_scheme.capacity scheme));
  }

let redundancy_for base ~message_length =
  Codec.redundancy ~capacity:base.capacity ~length:message_length

let pad v n =
  let out = Bitvec.create n in
  for i = 0 to min (Bitvec.length v) n - 1 do
    Bitvec.set out i (Bitvec.get v i)
  done;
  out

let mark base ~times message w =
  let l = Bitvec.length message in
  if times * l > base.capacity then invalid_arg "Robust.mark: over capacity";
  base.embed (pad (Codec.repeat ~times message) base.capacity) w

let detect base ~times ~length ~original ~server =
  let raw = base.extract ~original ~server in
  let votes = Codec.vote ~times ~length (fun j -> Some (Bitvec.get raw j)) in
  Bitvec.of_bools (Array.map (( = ) (Some true)) votes)
