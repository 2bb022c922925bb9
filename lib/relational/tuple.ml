type t = int array

(* Shorter tuples first, then lexicographic.  A plain loop: a local
   recursive helper would allocate a closure on every call, and every
   [Set]/[Map] step below makes one. *)
let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let i = ref 0 and c = ref 0 in
    while !c = 0 && !i < la do
      c := Int.compare (Array.unsafe_get a !i) (Array.unsafe_get b !i);
      incr i
    done;
    !c
  end

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
