let of_int ~bits n =
  if bits < 0 || bits > 62 then
    invalid_arg "Codec.of_int: bits must be in [0, 62]";
  if n < 0 || (bits < 62 && n >= 1 lsl bits) then
    invalid_arg
      (Printf.sprintf "Codec.of_int: %d does not fit in %d bits" n bits);
  let v = Bitvec.create bits in
  for i = 0 to bits - 1 do
    Bitvec.set v i ((n lsr i) land 1 = 1)
  done;
  v

let to_int v =
  if Bitvec.length v > 62 then
    invalid_arg "Codec.to_int: message longer than 62 bits";
  let n = ref 0 in
  for i = Bitvec.length v - 1 downto 0 do
    n := (!n lsl 1) lor (if Bitvec.get v i then 1 else 0)
  done;
  !n

let of_string s =
  let v = Bitvec.create (8 * String.length s) in
  String.iteri
    (fun i c ->
      let c = Char.code c in
      for b = 0 to 7 do
        Bitvec.set v ((8 * i) + b) ((c lsr b) land 1 = 1)
      done)
    s;
  v

let to_string v =
  let n = Bitvec.length v in
  if n mod 8 <> 0 then
    invalid_arg "Codec.to_string: length must be a multiple of 8";
  String.init (n / 8) (fun i ->
      let c = ref 0 in
      for b = 7 downto 0 do
        c := (!c lsl 1) lor (if Bitvec.get v ((8 * i) + b) then 1 else 0)
      done;
      Char.chr !c)

let of_bool_list bs = Bitvec.of_bools (Array.of_list bs)
let to_bool_list v = Array.to_list (Bitvec.to_bools v)

let random g l =
  let v = Bitvec.create l in
  for i = 0 to l - 1 do
    Bitvec.set v i (Prng.bool g)
  done;
  v

let hamming a b =
  if Bitvec.length a <> Bitvec.length b then
    invalid_arg "Codec.hamming: length mismatch";
  Bitvec.popcount (Bitvec.diff (Bitvec.union a b) (Bitvec.inter a b))

let repeat ~times m =
  let l = Bitvec.length m in
  let v = Bitvec.create (l * times) in
  for t = 0 to times - 1 do
    for i = 0 to l - 1 do
      Bitvec.set v ((t * l) + i) (Bitvec.get m i)
    done
  done;
  v

let vote ~times ~length carrier =
  if times <= 0 then invalid_arg "Codec.vote: times must be positive";
  if length < 0 then invalid_arg "Codec.vote: negative length";
  Array.init length (fun i ->
      let ones = ref 0 and votes = ref 0 in
      for t = 0 to times - 1 do
        match carrier ((t * length) + i) with
        | Some b ->
            incr votes;
            if b then incr ones
        | None -> ()
      done;
      if 2 * !ones > !votes then Some true
      else if 2 * !ones < !votes then Some false
      else None)

let redundancy ~capacity ~length =
  if length <= 0 then invalid_arg "Codec.redundancy: length must be positive";
  let r = max 1 (capacity / length) in
  if r mod 2 = 0 then max 1 (r - 1) else r
