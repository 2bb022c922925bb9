type t = { len : int; data : Bytes.t }

let create n =
  assert (n >= 0);
  { len = n; data = Bytes.make ((n + 7) / 8) '\000' }

let length v = v.len

let get v i =
  assert (i >= 0 && i < v.len);
  Char.code (Bytes.get v.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set v i b =
  assert (i >= 0 && i < v.len);
  let byte = Char.code (Bytes.get v.data (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if b then byte lor mask else byte land lnot mask in
  Bytes.set v.data (i lsr 3) (Char.chr byte)

let copy v = { len = v.len; data = Bytes.copy v.data }

let equal a b = a.len = b.len && Bytes.equal a.data b.data

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Bytes.compare a.data b.data

let hash v = Hashtbl.hash (v.len, Bytes.to_string v.data)

let popcount_byte =
  let t = Array.make 256 0 in
  for i = 1 to 255 do
    t.(i) <- t.(i lsr 1) + (i land 1)
  done;
  t

let popcount v =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_byte.(Char.code c)) v.data;
  !n

let map2 f a b =
  assert (a.len = b.len);
  let r = create a.len in
  for i = 0 to Bytes.length a.data - 1 do
    let c = f (Char.code (Bytes.get a.data i)) (Char.code (Bytes.get b.data i)) in
    Bytes.set r.data i (Char.chr (c land 0xff))
  done;
  r

let union = map2 ( lor )
let inter = map2 ( land )
let diff = map2 (fun x y -> x land lnot y)

let is_subset a b =
  assert (a.len = b.len);
  let ok = ref true in
  for i = 0 to Bytes.length a.data - 1 do
    let x = Char.code (Bytes.get a.data i) and y = Char.code (Bytes.get b.data i) in
    if x land lnot y <> 0 then ok := false
  done;
  !ok

let to_list v =
  let acc = ref [] in
  for i = v.len - 1 downto 0 do
    if get v i then acc := i :: !acc
  done;
  !acc

let of_list n ixs =
  let v = create n in
  List.iter (fun i -> set v i true) ixs;
  v

let of_bools a =
  let v = create (Array.length a) in
  Array.iteri (fun i b -> if b then set v i true) a;
  v

let to_bools v = Array.init v.len (get v)

let pp fmt v =
  for i = 0 to v.len - 1 do
    Format.pp_print_char fmt (if get v i then '1' else '0')
  done
