type t = { qs : Query_system.t; pairs : Pairing.pair list; capacity : int }

let make qs pairs = { qs; pairs; capacity = List.length pairs }

let prefix t n =
  if n < 0 || n > t.capacity then invalid_arg "Carriers.prefix: out of range";
  let[@tail_mod_cons] rec take n = function
    | p :: rest when n > 0 -> p :: take (n - 1) rest
    | _ -> []
  in
  { t with pairs = take n t.pairs; capacity = n }

let capacity t = t.capacity
let pairs t = t.pairs
let query_system t = t.qs

let mark t message w =
  if Bitvec.length message > t.capacity then
    invalid_arg "Carriers.mark: message longer than capacity";
  Weighted.apply_mark_iter w (Pairing.iter_orientation_marks t.pairs message)

let detect t ~original ~server ~length =
  let observed = Query_system.reconstruct t.qs server in
  (Detector.read t.pairs ~original ~observed ~length).Detector.decoded

let detect_weights t ~original ~suspect ~length =
  (Detector.read_weights t.pairs ~original ~suspect ~length).Detector.decoded
