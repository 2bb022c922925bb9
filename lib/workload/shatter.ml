let query =
  Query.make ~params:[ "u" ] ~results:[ "v" ] (Fo.atom "E" [ "u"; "v" ])

let weigh g = Weighted.weigh (fun _ -> 100) g

let full n =
  if n < 1 || n > 16 then invalid_arg "Shatter.full: need 1 <= n <= 16";
  let subsets = 1 lsl n in
  let size = subsets + n in
  let g = ref (Structure.create Schema.graph size) in
  for i = 0 to subsets - 1 do
    for b = 0 to n - 1 do
      if (i lsr b) land 1 = 1 then
        g := Structure.add_tuple !g "E" (Tuple.pair i (subsets + b))
    done
  done;
  weigh !g

let half n =
  if n < 2 || n > 20 || n mod 2 <> 0 then
    invalid_arg "Shatter.half: need even n with 2 <= n <= 20";
  let h = n / 2 in
  let subsets = 1 lsl h in
  let size = subsets + 1 + n in
  let first_active = subsets + 1 in
  let hub = subsets in
  let g = ref (Structure.create Schema.graph size) in
  (* Subset enumerators cover the first n/2 active vertices. *)
  for i = 0 to subsets - 1 do
    for b = 0 to h - 1 do
      if (i lsr b) land 1 = 1 then
        g := Structure.add_tuple !g "E" (Tuple.pair i (first_active + b))
    done
  done;
  (* The hub sees every active vertex. *)
  for b = 0 to n - 1 do
    g := Structure.add_tuple !g "E" (Tuple.pair hub (first_active + b))
  done;
  weigh !g

let half_free n =
  let h = n / 2 in
  let first_active = (1 lsl h) + 1 in
  List.init h (fun b -> first_active + h + b)

let half_hub n = 1 lsl (n / 2)
