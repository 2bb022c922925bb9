type t = int array

(* The row toolkit behind [Relation] and [Weighted] (DESIGN.md 5.12):
   rows of [len] cells stored back to back in one flat int buffer.
   Plain loops throughout: a local recursive helper would allocate a
   closure on every call, and every [Set]/[Map] step, row search and
   sort comparison makes one.  [cmp_cells] is unchecked; its callers
   here keep both ranges in bounds. *)
let cmp_cells len (a : int array) i (b : int array) j =
  let p = ref 0 and c = ref 0 in
  while !c = 0 && !p < len do
    c := Int.compare (Array.unsafe_get a (i + !p)) (Array.unsafe_get b (j + !p));
    incr p
  done;
  !c

let compare_at len a i b j =
  if len < 0 || i < 0 || j < 0 || i + len > Array.length a || j + len > Array.length b
  then invalid_arg "Tuple.compare_at";
  cmp_cells len a i b j

(* Shorter tuples first, then lexicographic. *)
let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else cmp_cells la a 0 b 0

let find_row len (buf : int array) n (t : t) =
  if Array.length t < len || n * len > Array.length buf then
    invalid_arg "Tuple.find_row";
  let lo = ref 0 and hi = ref n and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = cmp_cells len buf (mid * len) t 0 in
    if c = 0 then found := mid else if c < 0 then lo := mid + 1 else hi := mid
  done;
  if !found >= 0 then !found else - !lo - 1

(* Bulk sources are usually already ascending (a relation's own rows, a
   file saved by Textio), so sortedness is checked in one sweep first;
   such input is then only compacted in place.  Otherwise a stable sort
   of the row indices keeps equal rows in input order, and the rows are
   copied back in sorted order.  Either way the last row of each run is
   its last input occurrence. *)
let sort_rows len (buf : int array) k last =
  if len < 1 || k < 0 || k * len > Array.length buf then invalid_arg "Tuple.sort_rows";
  let sorted = ref true and i = ref 1 in
  while !sorted && !i < k do
    if cmp_cells len buf ((!i - 1) * len) buf (!i * len) > 0 then sorted := false;
    incr i
  done;
  let order =
    if !sorted then [||]
    else begin
      let order = Array.init k Fun.id in
      Array.stable_sort (fun r s -> cmp_cells len buf (r * len) buf (s * len)) order;
      let src = Array.sub buf 0 (k * len) in
      Array.iteri (fun p r -> Array.blit src (r * len) buf (p * len) len) order;
      order
    end
  in
  let n = ref 0 in
  for r = 0 to k - 1 do
    if !n = 0 || cmp_cells len buf ((!n - 1) * len) buf (r * len) <> 0 then begin
      if !n > 0 then last (!n - 1) (if !sorted then r - 1 else order.(r - 1));
      if !n < r then Array.blit buf (r * len) buf (!n * len) len;
      incr n
    end
  done;
  if k > 0 then last (!n - 1) (if !sorted then k - 1 else order.(k - 1));
  !n

let of_row len (buf : int array) off =
  if off = 0 && Array.length buf = len then buf else Array.sub buf off len

let overlay_limit n = max 64 (n / 4)

let equal a b = compare a b = 0

let hash (a : t) =
  Array.fold_left (fun acc x -> (acc * 1000003) + x + 1) 17 a

let arity = Array.length

let of_list = Array.of_list
let to_list = Array.to_list

let singleton x = [| x |]
let pair x y = [| x; y |]

let concat = Array.append

let mem_elt x t = Array.exists (( = ) x) t

let max_elt t = Array.fold_left max (-1) t

let pp fmt t =
  match Array.length t with
  | 1 -> Format.pp_print_int fmt t.(0)
  | _ ->
      Format.fprintf fmt "(%s)"
        (String.concat "," (List.map string_of_int (Array.to_list t)))

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Hashtbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
