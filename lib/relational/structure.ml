module Smap = Map.Make (String)

type t = {
  schema : Schema.t;
  size : int;
  names : string array option;
  rels : Relation.t Smap.t;
}

let create ?names schema size =
  if size < 0 then invalid_arg "Structure.create: negative size";
  (match names with
  | Some a when Array.length a <> size ->
      invalid_arg "Structure.create: names length mismatch"
  | _ -> ());
  let rels =
    List.fold_left
      (fun m (s : Schema.symbol) -> Smap.add s.name (Relation.empty s.arity) m)
      Smap.empty (Schema.symbols schema)
  in
  { schema; size; names; rels }

let schema g = g.schema
let size g = g.size

let universe g = List.init g.size Fun.id

let iter_universe f g =
  for i = 0 to g.size - 1 do
    f i
  done

let fold_universe f g acc =
  let acc = ref acc in
  for i = 0 to g.size - 1 do
    acc := f i !acc
  done;
  !acc

let name_of g i =
  match g.names with Some a -> a.(i) | None -> string_of_int i

(* -1 marks a name carried by several elements.  The table is built by
   the call and only read by the closure, so the lookup can be shared
   across wm_par domains. *)
let name_index g =
  let h = Hashtbl.create (max 16 g.size) in
  for x = 0 to g.size - 1 do
    let n = name_of g x in
    Hashtbl.replace h n (if Hashtbl.mem h n then -1 else x)
  done;
  fun n ->
    match Hashtbl.find_opt h n with Some x when x >= 0 -> Some x | _ -> None

let has_names g = g.names <> None

let with_default_names g =
  match g.names with
  | Some _ -> g
  | None -> { g with names = Some (Array.init g.size string_of_int) }

let with_names g names =
  if Array.length names <> g.size then
    invalid_arg "Structure.with_names: names length mismatch";
  { g with names = Some names }

let relation g name =
  match Smap.find_opt name g.rels with
  | Some r -> r
  | None -> raise Not_found

let check_tuple g t =
  if Array.exists (fun x -> x < 0 || x >= g.size) t then
    invalid_arg "Structure.add_tuple: element out of range"

let add_tuple g name t =
  check_tuple g t;
  let r = relation g name in
  { g with rels = Smap.add name (Relation.add t r) g.rels }

let add_pairs g name ps =
  List.fold_left (fun g (a, b) -> add_tuple g name (Tuple.pair a b)) g ps

let set_relation g name r =
  if not (Schema.mem g.schema name) then raise Not_found;
  if Relation.arity r <> Schema.arity_of g.schema name then
    invalid_arg "Structure.set_relation: arity mismatch";
  let a = Relation.arity r in
  Relation.iter_flat
    (fun buf off ->
      for p = 0 to a - 1 do
        let x = buf.(off + p) in
        if x < 0 || x >= g.size then
          invalid_arg "Structure.add_tuple: element out of range"
      done)
    r;
  { g with rels = Smap.add name r g.rels }

let fold_relations f g acc = Smap.fold f g.rels acc

let tuples_count g =
  fold_relations (fun _ r acc -> acc + Relation.cardinal r) g 0

let induced g sub =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun x ->
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x (Hashtbl.length seen);
        order := x :: !order
      end)
    sub;
  let old = Array.of_list (List.rev !order) in
  let k = Array.length old in
  let names =
    match g.names with
    | None -> None
    | Some a -> Some (Array.map (fun o -> a.(o)) old)
  in
  let keep x = Hashtbl.mem seen x in
  let rename x = Hashtbl.find seen x in
  let rels =
    Smap.map (fun r -> Relation.rename rename (Relation.restrict keep r)) g.rels
  in
  ({ schema = g.schema; size = k; names; rels }, old)

(* --- edits ---------------------------------------------------------- *)

type edit =
  | Insert_tuple of string * Tuple.t
  | Delete_tuple of string * Tuple.t
  | Add_element of string option
  | Remove_element of int

let remove_tuple g name t =
  check_tuple g t;
  let r = relation g name in
  { g with rels = Smap.add name (Relation.remove t r) g.rels }

let apply_edit g = function
  | Insert_tuple (name, t) ->
      let g' = add_tuple g name t in
      (g', List.sort_uniq compare (Array.to_list t))
  | Delete_tuple (name, t) ->
      if Relation.mem t (relation g name) then
        (remove_tuple g name t, List.sort_uniq compare (Array.to_list t))
      else (g, [])
  | Add_element name ->
      let fresh = g.size in
      let names =
        match (g.names, name) with
        | None, None -> None
        | _ ->
            let base =
              match g.names with
              | Some a -> a
              | None -> Array.init g.size string_of_int
            in
            Some
              (Array.init (g.size + 1) (fun i ->
                   if i < g.size then base.(i)
                   else Option.value ~default:(string_of_int i) name))
      in
      ({ g with size = g.size + 1; names }, [ fresh ])
  | Remove_element x ->
      if x <> g.size - 1 then
        invalid_arg
          (Printf.sprintf
             "Structure.apply_edit: can only remove the last element (%d, \
              universe has %d)"
             x g.size);
      (* Incident tuples go with the element; their surviving endpoints are
         the dirty set (the removed id itself no longer exists). *)
      let dirty = ref [] in
      let rels =
        Smap.map
          (fun r ->
            Relation.filter
              (fun t ->
                if Tuple.mem_elt x t then begin
                  Array.iter (fun y -> if y <> x then dirty := y :: !dirty) t;
                  false
                end
                else true)
              r)
          g.rels
      in
      let names =
        match g.names with Some a -> Some (Array.sub a 0 x) | None -> None
      in
      ( { g with size = x; names; rels },
        List.sort_uniq compare !dirty )

let apply_edits g edits =
  let g', dirty =
    List.fold_left
      (fun (g, acc) e ->
        let g', d = apply_edit g e in
        (g', List.rev_append d acc))
      (g, []) edits
  in
  (* Dirty ids are reported against the *final* universe: ids that no
     longer exist (a later Remove_element) are dropped — their former
     neighbors are already dirty via the removal itself. *)
  (g', List.sort_uniq compare (List.filter (fun x -> x < g'.size) dirty))

let equal a b =
  a.size = b.size && Smap.equal Relation.equal a.rels b.rels

let pp fmt g =
  Format.fprintf fmt "@[<v>universe: %d elements@," g.size;
  Smap.iter
    (fun name r -> Format.fprintf fmt "%s: %a@," name Relation.pp r)
    g.rels;
  Format.fprintf fmt "@]"
