(* The line-splitting Textio codec, frozen verbatim as the equivalence
   reference for the one-pass [Textio] (DESIGN.md 5.16): a cons-list of
   lines and words per file, [Relation.of_list] per relation, and a fold
   of [Weighted.set] for the weights; [Printf] per cell on output.  Every
   input must parse to the same structure or fail with the same
   {line; message}, and every structure must print to the same bytes;
   test/test_fuzz.ml drives spliced files and edit scripts through both.
   The file IO of the library module is left out.  One deliberate
   deviation: it carries the library's cap on the declared [size], so a
   file both reject stays an equal error. *)

exception Format_error of string

type error = { line : int; message : string }

let error_to_string e =
  if e.line > 0 then Printf.sprintf "line %d: %s" e.line e.message
  else e.message

(* Names may contain characters the line format cannot carry raw: '#'
   starts a comment, leading/trailing/doubled spaces are eaten by trim and
   word splitting, '%' is our escape lead, and control bytes (every
   [< 0x20] plus DEL) would corrupt a line- or frame-oriented transport —
   the serve wire protocol carries these texts verbatim.  Escape exactly
   those on write and decode exactly the escapes we emit on read, so old
   files (which never contain escapes) parse unchanged. *)
let must_escape ch =
  ch = '%' || ch = '#' || Char.code ch < 0x20 || Char.code ch = 0x7f

let escape_name s =
  let n = String.length s in
  let buf = Buffer.create n in
  String.iteri
    (fun i ch ->
      let boundary = i = 0 || i = n - 1 in
      let doubled = i > 0 && s.[i - 1] = ' ' && ch = ' ' in
      if must_escape ch then
        Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code ch))
      else if ch = ' ' && (boundary || doubled) then
        Buffer.add_string buf "%20"
      else Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let hex_digit = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let unescape_name s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    let unescaped =
      if s.[!i] = '%' && !i + 2 < n then
        match (hex_digit s.[!i + 1], hex_digit s.[!i + 2]) with
        | Some hi, Some lo ->
            let c = Char.chr ((hi lsl 4) lor lo) in
            (* Decode only codes [escape_name] emits, so unescape o
               escape is the identity and raw '%'s in old files (always
               escaped on write, but tolerated on read) pass through. *)
            if must_escape c || c = ' ' then Some c else None
        | _ -> None
      else None
    in
    match unescaped with
    | Some c ->
        Buffer.add_char buf c;
        i := !i + 3
    | None ->
        Buffer.add_char buf s.[!i];
        incr i
  done;
  Buffer.contents buf

let to_string (ws : Weighted.structure) =
  let g = ws.Weighted.graph in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# qpwm weighted structure\n";
  add "schema %s\n"
    (String.concat " "
       (List.map
          (fun (s : Schema.symbol) -> Printf.sprintf "%s/%d" s.name s.arity)
          (Schema.symbols (Structure.schema g))));
  add "weight_arity %d\n" (Schema.weight_arity (Structure.schema g));
  add "size %d\n" (Structure.size g);
  Structure.iter_universe
    (fun x ->
      let n = Structure.name_of g x in
      if n <> string_of_int x then add "name %d %s\n" x (escape_name n))
    g;
  Structure.fold_relations
    (fun name r () ->
      let a = Relation.arity r in
      Relation.iter_flat
        (fun rbuf off ->
          add "rel %s" name;
          for p = 0 to a - 1 do
            add " %d" rbuf.(off + p)
          done;
          add "\n")
        r)
    g ();
  let wa = Weighted.arity ws.Weighted.weights in
  Weighted.iter_bindings_flat
    (fun wbuf off v ->
      add "weight";
      for p = 0 to wa - 1 do
        add " %d" wbuf.(off + p)
      done;
      add " %d\n" v)
    ws.Weighted.weights;
  Buffer.contents buf

(* The total parser.  Every failure path — including library-level
   [Invalid_argument]s from schema/structure construction — comes back as
   [Error] with the best line information available. *)
let of_string_result text =
  let exception Fail of error in
  let fail ?(line = 0) fmt =
    Printf.ksprintf (fun message -> raise (Fail { line; message })) fmt
  in
  try
    let lines = String.split_on_char '\n' text in
    let schema = ref None in
    let weight_arity = ref 1 in
    let size = ref None in
    let names = ref [] in
    let rels = ref [] in
    let weights = ref [] in
    List.iteri
      (fun lineno line ->
        let lineno = lineno + 1 in
        let int_of s =
          match int_of_string_opt s with
          | Some n -> n
          | None -> fail ~line:lineno "not an integer: %S" s
        in
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        if line <> "" then begin
          let words = String.split_on_char ' ' line |> List.filter (( <> ) "") in
          match words with
          | "schema" :: syms ->
              let parse_sym s =
                match String.split_on_char '/' s with
                | [ name; ar ] -> { Schema.name; arity = int_of ar }
                | _ -> fail ~line:lineno "bad symbol %S" s
              in
              schema := Some (lineno, List.map parse_sym syms)
          | [ "weight_arity"; a ] -> weight_arity := int_of a
          | [ "size"; n ] -> size := Some (lineno, int_of n)
          | "name" :: x :: rest ->
              names :=
                (lineno, int_of x, unescape_name (String.concat " " rest))
                :: !names
          | "rel" :: name :: elts ->
              rels := (lineno, name, List.map int_of elts) :: !rels
          | "weight" :: parts -> begin
              match List.rev parts with
              | v :: rev_t ->
                  weights :=
                    (lineno, List.rev_map int_of rev_t, int_of v) :: !weights
              | [] -> fail ~line:lineno "empty weight"
            end
          | _ -> fail ~line:lineno "unknown directive %S" line
        end)
      lines;
    let schema_line, symbols =
      match !schema with Some s -> s | None -> fail "missing schema"
    in
    let size_line, size =
      match !size with Some n -> n | None -> fail "missing size"
    in
    if size < 0 then fail ~line:size_line "negative size %d" size;
    if size > Textio.max_size then
      fail ~line:size_line "size %d exceeds the limit of %d elements" size Textio.max_size;
    let schema =
      match Schema.make ~weight_arity:!weight_arity symbols with
      | s -> s
      | exception Invalid_argument m -> fail ~line:schema_line "bad schema: %s" m
    in
    let name_arr =
      if !names = [] then None
      else begin
        let a = Array.init size string_of_int in
        List.iter
          (fun (line, x, n) ->
            if x < 0 || x >= size then
              fail ~line "name index %d out of range" x;
            a.(x) <- n)
          !names;
        Some a
      end
    in
    let g0 = Structure.create ?names:name_arr schema size in
    (* Bulk load: validate the lines in file order with exactly the
       checks (and messages) the per-line [Structure.add_tuple] fold
       performed — range, then symbol, then arity — then group by
       relation and build each with one [Relation.of_list] sort instead
       of a million functional inserts. *)
    let by_rel = Hashtbl.create 8 in
    List.iter
      (fun (line, name, elts) ->
        let t = Tuple.of_list elts in
        if Array.exists (fun x -> x < 0 || x >= size) t then
          fail ~line "bad tuple for %s: %s" name
            "Structure.add_tuple: element out of range";
        if not (Schema.mem schema name) then
          fail ~line "unknown relation %S" name;
        if Tuple.arity t <> Schema.arity_of schema name then
          fail ~line "bad tuple for %s: %s" name "Relation.add: arity mismatch";
        let prev = try Hashtbl.find by_rel name with Not_found -> [] in
        Hashtbl.replace by_rel name (t :: prev))
      (List.rev !rels);
    let g =
      ref
        (List.fold_left
           (fun g (s : Schema.symbol) ->
             match Hashtbl.find_opt by_rel s.name with
             | None -> g
             | Some ts ->
                 Structure.set_relation g s.name
                   (Relation.of_list s.arity (List.rev ts)))
           g0 (Schema.symbols schema))
    in
    let w =
      List.fold_left
        (fun w (line, t, v) ->
          match Weighted.set w (Tuple.of_list t) v with
          | w' -> w'
          | exception Invalid_argument m -> fail ~line "bad weight: %s" m)
        (Weighted.create !weight_arity)
        (List.rev !weights)
    in
    match Weighted.make !g w with
    | ws -> Ok ws
    | exception Invalid_argument m -> fail "inconsistent weights: %s" m
  with
  | Fail e -> Error e
  | Invalid_argument m | Failure m -> Error { line = 0; message = m }

let of_string text =
  match of_string_result text with
  | Ok ws -> ws
  | Error e -> raise (Format_error (error_to_string e))

(* ------------------------------------------------------------------ *)
(* Edit scripts: the line-oriented form of Structure.edit lists that
   [wmark update] consumes.  Same comment and escaping conventions as the
   structure format. *)

let edits_to_string edits =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# qpwm edit script\n";
  List.iter
    (fun e ->
      match (e : Structure.edit) with
      | Structure.Insert_tuple (name, t) ->
          add "insert %s %s\n" name
            (String.concat " " (List.map string_of_int (Tuple.to_list t)))
      | Structure.Delete_tuple (name, t) ->
          add "delete %s %s\n" name
            (String.concat " " (List.map string_of_int (Tuple.to_list t)))
      | Structure.Add_element None -> add "add\n"
      | Structure.Add_element (Some n) -> add "add %s\n" (escape_name n)
      | Structure.Remove_element x -> add "remove %d\n" x)
    edits;
  Buffer.contents buf

let edits_of_string_result text =
  let exception Fail of error in
  let fail ~line fmt =
    Printf.ksprintf (fun message -> raise (Fail { line; message })) fmt
  in
  try
    let edits = ref [] in
    List.iteri
      (fun lineno line ->
        let lineno = lineno + 1 in
        let int_of s =
          match int_of_string_opt s with
          | Some n -> n
          | None -> fail ~line:lineno "not an integer: %S" s
        in
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        if line <> "" then begin
          let words = String.split_on_char ' ' line |> List.filter (( <> ) "") in
          let edit =
            match words with
            | "insert" :: name :: (_ :: _ as elts) ->
                Structure.Insert_tuple
                  (name, Tuple.of_list (List.map int_of elts))
            | "delete" :: name :: (_ :: _ as elts) ->
                Structure.Delete_tuple
                  (name, Tuple.of_list (List.map int_of elts))
            | [ "add" ] -> Structure.Add_element None
            | "add" :: rest ->
                Structure.Add_element
                  (Some (unescape_name (String.concat " " rest)))
            | [ "remove"; x ] -> Structure.Remove_element (int_of x)
            | _ -> fail ~line:lineno "unknown edit %S" line
          in
          edits := edit :: !edits
        end)
      (String.split_on_char '\n' text);
    Ok (List.rev !edits)
  with Fail e -> Error e

let edits_of_string text =
  match edits_of_string_result text with
  | Ok es -> es
  | Error e -> raise (Format_error (error_to_string e))

