let grid_schema =
  Schema.make [ { Schema.name = "H"; arity = 2 }; { Schema.name = "V"; arity = 2 } ]

let vertex ~h i j = (i * h) + j

let structure ~w ~h =
  if w < 1 || h < 1 then invalid_arg "Grid.structure";
  let s = ref (Structure.create grid_schema (w * h)) in
  for i = 0 to w - 1 do
    for j = 0 to h - 1 do
      if i + 1 < w then
        s := Structure.add_tuple !s "H" (Tuple.pair (vertex ~h i j) (vertex ~h (i + 1) j));
      if j + 1 < h then
        s := Structure.add_tuple !s "V" (Tuple.pair (vertex ~h i j) (vertex ~h i (j + 1)))
    done
  done;
  Weighted.weigh (fun _ -> 10) !s

let neighbors_query =
  let open Fo in
  Query.make ~params:[ "u" ] ~results:[ "v" ]
    (disj
       [
         atom "H" [ "u"; "v" ];
         atom "H" [ "v"; "u" ];
         atom "V" [ "u"; "v" ];
         atom "V" [ "v"; "u" ];
       ])
