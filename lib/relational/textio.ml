exception Format_error of string

type error = { line : int; message : string }

let error_to_string e =
  if e.line > 0 then Printf.sprintf "line %d: %s" e.line e.message
  else e.message

(* Readers allocate per element, so a declared size beyond this is an
   error, not an allocation failure. *)
let max_size = 1 lsl 24

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

(* --- printing --------------------------------------------------------

   Cells go straight into one pre-sized buffer as decimal digits — the
   bytes [Printf "%d"] writes, without a format interpretation or a
   string per cell. *)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

let to_buffer (ws : Weighted.structure) =
  let g = ws.Weighted.graph in
  let schema = Structure.schema g in
  let size = Structure.size g in
  let wa = Weighted.arity ws.Weighted.weights in
  (* Room for every tuple and weight line, taking a cell (a weight
     included) at the digits of [size] plus a space; names grow it. *)
  let cell = String.length (string_of_int size) + 1 in
  let nw = ref 0 in
  Weighted.iter_bindings_flat (fun _ _ _ -> incr nw) ws.Weighted.weights;
  let guess =
    Structure.fold_relations
      (fun name r n ->
        n + (Relation.cardinal r * (5 + String.length name + (Relation.arity r * cell))))
      g
      (256 + (!nw * (7 + ((wa + 1) * cell))))
  in
  let buf = Buffer.create (min guess Sys.max_string_length) in
  let line s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
  line "# qpwm weighted structure";
  line
    ("schema "
    ^ String.concat " "
        (List.map
           (fun (s : Schema.symbol) -> Printf.sprintf "%s/%d" s.name s.arity)
           (Schema.symbols schema)));
  line ("weight_arity " ^ string_of_int (Schema.weight_arity schema));
  line ("size " ^ string_of_int size);
  if Structure.has_names g then
    Structure.iter_universe
      (fun x ->
        let n = Structure.name_of g x in
        if n <> string_of_int x then
          line (Printf.sprintf "name %d %s" x (escape_name n)))
      g;
  Structure.fold_relations
    (fun name r () ->
      let a = Relation.arity r in
      Relation.iter_flat
        (fun rbuf off ->
          Buffer.add_string buf "rel ";
          Buffer.add_string buf name;
          for p = 0 to a - 1 do
            Buffer.add_char buf ' ';
            add_int buf rbuf.(off + p)
          done;
          Buffer.add_char buf '\n')
        r)
    g ();
  Weighted.iter_bindings_flat
    (fun wbuf off v ->
      Buffer.add_string buf "weight";
      for p = 0 to wa - 1 do
        Buffer.add_char buf ' ';
        add_int buf wbuf.(off + p)
      done;
      Buffer.add_char buf ' ';
      add_int buf v;
      Buffer.add_char buf '\n')
    ws.Weighted.weights;
  buf

let to_string ws = Buffer.contents (to_buffer ws)

(* --- scanning -------------------------------------------------------

   Both parsers (structures and edit scripts) walk the text through one
   scanner.  A line is cut at its first '#', trimmed like [String.trim],
   and skipped when nothing is left; its words are the maximal runs of
   bytes other than ' ' (a tab inside a line belongs to a word, as
   with [String.split_on_char ' ']).  Positions index the text itself:
   no line or word is copied unless a caller asks for its string. *)

exception Fail of error

let fail ?(line = 0) fmt =
  Printf.ksprintf (fun message -> raise (Fail { line; message })) fmt

let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

(* [f lineno lo hi] for every non-empty line, [lo, hi) its content;
   lines are numbered from 1 like the elements of
   [String.split_on_char '\n' text]. *)
let iter_lines text f =
  let n = String.length text in
  let lineno = ref 1 and start = ref 0 in
  while !start <= n do
    let cut = ref !start in
    while
      !cut < n
      &&
      let c = String.unsafe_get text !cut in
      c <> '\n' && c <> '#'
    do
      incr cut
    done;
    let stop =
      if !cut < n && text.[!cut] = '#' then
        match String.index_from_opt text !cut '\n' with Some i -> i | None -> n
      else !cut
    in
    let lo = ref !start and hi = ref !cut in
    while !lo < !hi && is_blank text.[!lo] do incr lo done;
    while !hi > !lo && is_blank text.[!hi - 1] do decr hi done;
    if !lo < !hi then f !lineno !lo !hi;
    incr lineno;
    start := stop + 1
  done

(* The first word at or after [i], or [hi]; and the end of the word
   that starts at [i]. *)
let word_start text i hi =
  let i = ref i in
  while !i < hi && String.unsafe_get text !i = ' ' do incr i done;
  !i

let word_stop text i hi =
  let i = ref i in
  while !i < hi && String.unsafe_get text !i <> ' ' do incr i done;
  !i

let words text lo hi =
  let rec go i acc =
    let i = word_start text i hi in
    if i >= hi then List.rev acc
    else
      let j = word_stop text i hi in
      go j (String.sub text i (j - i) :: acc)
  in
  go lo []

(* Plain loops here and below: a local recursive helper would allocate
   a closure per call, i.e. per line or per cell. *)
let span_is text i j s =
  j - i = String.length s
  &&
  let p = ref 0 in
  while !p < j - i && String.unsafe_get text (i + !p) = String.unsafe_get s !p do
    incr p
  done;
  !p = j - i

let int_word ~line s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail ~line "not an integer: %S" s

exception Not_int

(* The integer spelled by the word [i, j).  An optional '-' and at most
   18 decimal digits (which cannot overflow) are read in place; any
   other spelling ('+4', '0x1', '1_0', 19 digits and more) goes to
   [int_of_string_opt], so the accepted integers are exactly its. *)
let int_span text i j =
  let neg = text.[i] = '-' in
  let d0 = if neg then i + 1 else i in
  let acc = ref 0 and p = ref d0 in
  if d0 < j && j - d0 <= 18 then
    while
      !p < j
      &&
      let c = Char.code (String.unsafe_get text !p) - 48 in
      c >= 0 && c <= 9 && (acc := (!acc * 10) + c; true)
    do
      incr p
    done;
  if !p = j && d0 < j then if neg then - !acc else !acc
  else
    match int_of_string_opt (String.sub text i (j - i)) with
    | Some n -> n
    | None -> raise_notrace Not_int

(* A growable int buffer. *)
type ints = { mutable a : int array; mutable n : int }

let ints () = { a = [||]; n = 0 }

let push b x =
  if b.n = Array.length b.a then begin
    let a = Array.make ((2 * b.n) + 64) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  Array.unsafe_set b.a b.n x;
  b.n <- b.n + 1

(* --- parsing ---------------------------------------------------------

   One pass over the text.  [rel] and [weight] lines, nearly all of a
   file, are read in place: a relation's cells go to its own flat
   buffer, a row→(relation, line, length) side table keeps file order,
   and weight keys and values go to two more.  The rarer directives
   keep a per-line word list.  Tuple and weight checks run after the
   scan, row by row in file order, so every error keeps the line and
   message a per-line fold of [Structure.add_tuple] and [Weighted.set]
   gave; then each relation is built with one [Relation.of_flat] and the
   weights with one [Weighted.of_flat].

   The total parser: every failure path — including library-level
   [Invalid_argument]s from schema/structure construction — comes back
   as [Error] with the best line information available. *)
let of_string_result text =
  try
    let schema = ref None in
    let weight_arity = ref 1 in
    let size = ref None in
    let names = ref [] in
    (* Relations by first appearance, as (name, cells).  [last] caches
       the previous line's relation: files group rows by relation. *)
    let rel_ids = Hashtbl.create 8 in
    let rels = ref [||] and nrel = ref 0 and last = ref (-1) in
    let rel_id i j =
      if !last < 0 || not (span_is text i j (fst !rels.(!last))) then begin
        let name = String.sub text i (j - i) in
        match Hashtbl.find_opt rel_ids name with
        | Some id -> last := id
        | None ->
            if !nrel = Array.length !rels then
              rels := Array.append !rels (Array.make (!nrel + 4) ("", ints ()));
            !rels.(!nrel) <- (name, ints ());
            Hashtbl.add rel_ids name !nrel;
            last := !nrel;
            incr nrel
      end;
      !last
    in
    let rows = ints () in (* (relation, line, cells) per rel line *)
    let wkeys = ints () and wvals = ints () in
    let wrows = ints () in (* (line, key cells) per weight line *)
    iter_lines text (fun line lo hi ->
        let w1 = word_stop text lo hi in
        if span_is text lo w1 "rel" && word_start text w1 hi < hi then begin
          let ns = word_start text w1 hi in
          let ne = word_stop text ns hi in
          let cells = snd !rels.(rel_id ns ne) in
          let n0 = cells.n in
          let p = ref (word_start text ne hi) in
          while !p < hi do
            let q = word_stop text !p hi in
            (match int_span text !p q with
            | x -> push cells x
            | exception Not_int ->
                fail ~line "not an integer: %S" (String.sub text !p (q - !p)));
            p := word_start text q hi
          done;
          push rows !last;
          push rows line;
          push rows (cells.n - n0)
        end
        else if span_is text lo w1 "weight" then begin
          (* The value is the last word.  A line with several bad words
             reports the last one, as the reference fold did. *)
          let n0 = wkeys.n and bad = ref (-1) and bad_end = ref (-1) in
          let p = ref (word_start text w1 hi) in
          if !p >= hi then fail ~line "empty weight";
          while !p < hi do
            let q = word_stop text !p hi in
            (match int_span text !p q with
            | x -> push wkeys x
            | exception Not_int ->
                bad := !p;
                bad_end := q;
                push wkeys 0);
            p := word_start text q hi
          done;
          if !bad >= 0 then
            fail ~line "not an integer: %S" (String.sub text !bad (!bad_end - !bad));
          wkeys.n <- wkeys.n - 1;
          push wvals wkeys.a.(wkeys.n);
          push wrows line;
          push wrows (wkeys.n - n0)
        end
        else
          let int_of = int_word ~line in
          match words text lo hi with
          | "schema" :: syms ->
              let parse_sym s =
                match String.split_on_char '/' s with
                | [ name; ar ] -> { Schema.name; arity = int_of ar }
                | _ -> fail ~line "bad symbol %S" s
              in
              schema := Some (line, List.map parse_sym syms)
          | [ "weight_arity"; a ] -> weight_arity := int_of a
          | [ "size"; n ] -> size := Some (line, int_of n)
          | "name" :: x :: rest ->
              names :=
                (line, int_of x, unescape_name (String.concat " " rest))
                :: !names
          | _ -> fail ~line "unknown directive %S" (String.sub text lo (hi - lo)));
    let schema_line, symbols =
      match !schema with Some s -> s | None -> fail "missing schema"
    in
    let size_line, size =
      match !size with Some n -> n | None -> fail "missing size"
    in
    if size < 0 then fail ~line:size_line "negative size %d" size;
    if size > max_size then
      fail ~line:size_line "size %d exceeds the limit of %d elements" size max_size;
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
    (* The per-line checks of [Structure.add_tuple], in file order:
       range, then symbol, then arity. *)
    let arity_of =
      Array.init !nrel (fun id ->
          let name = fst !rels.(id) in
          if Schema.mem schema name then Schema.arity_of schema name else -1)
    in
    let offset = Array.make !nrel 0 in
    for r = 0 to (rows.n / 3) - 1 do
      let id = rows.a.(3 * r) and line = rows.a.((3 * r) + 1) in
      let len = rows.a.((3 * r) + 2) in
      let name, cells = !rels.(id) in
      let cells = cells.a in
      let off = offset.(id) in
      for p = off to off + len - 1 do
        if cells.(p) < 0 || cells.(p) >= size then
          fail ~line "bad tuple for %s: %s" name
            "Structure.add_tuple: element out of range"
      done;
      if arity_of.(id) < 0 then fail ~line "unknown relation %S" name;
      if len <> arity_of.(id) then
        fail ~line "bad tuple for %s: %s" name "Relation.add: arity mismatch";
      offset.(id) <- off + len
    done;
    let g =
      List.fold_left
        (fun g (s : Schema.symbol) ->
          match Hashtbl.find_opt rel_ids s.name with
          | None -> g
          | Some id ->
              let cells = snd !rels.(id) in
              Structure.set_relation g s.name
                (Relation.of_flat s.arity cells.a (cells.n / s.arity)))
        g0 (Schema.symbols schema)
    in
    let wa = !weight_arity in
    for r = 0 to (wrows.n / 2) - 1 do
      if wrows.a.((2 * r) + 1) <> wa then
        fail ~line:wrows.a.(2 * r) "bad weight: %s" "Weighted.set: arity mismatch"
    done;
    let w = Weighted.of_flat wa wkeys.a wvals.a wvals.n in
    match Weighted.make g w with
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
   [wmark update] consumes.  Same scanner, comment and escaping
   conventions as the structure format. *)

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
  try
    let edits = ref [] in
    iter_lines text (fun line lo hi ->
        let int_of = int_word ~line in
        let edit =
          match words text lo hi with
          | "insert" :: name :: (_ :: _ as elts) ->
              Structure.Insert_tuple (name, Tuple.of_list (List.map int_of elts))
          | "delete" :: name :: (_ :: _ as elts) ->
              Structure.Delete_tuple (name, Tuple.of_list (List.map int_of elts))
          | [ "add" ] -> Structure.Add_element None
          | "add" :: rest ->
              Structure.Add_element (Some (unescape_name (String.concat " " rest)))
          | [ "remove"; x ] -> Structure.Remove_element (int_of x)
          | _ -> fail ~line "unknown edit %S" (String.sub text lo (hi - lo))
        in
        edits := edit :: !edits);
    Ok (List.rev !edits)
  with Fail e -> Error e

let edits_of_string text =
  match edits_of_string_result text with
  | Ok es -> es
  | Error e -> raise (Format_error (error_to_string e))

let save path ws =
  let buf = to_buffer ws in
  Wm_util.Atomic_file.write path (fun oc -> Buffer.output_buffer oc buf)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path = of_string (read_file path)

let load_result path =
  match read_file path with
  | text -> of_string_result text
  | exception Sys_error m -> Error { line = 0; message = m }
