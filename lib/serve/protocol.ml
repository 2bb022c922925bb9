(* qpwm-serve/1 wire protocol (DESIGN.md 5.11).

   Transport: length-prefixed frames ({!Wm_util.Frame}); every frame
   payload is text.  A request payload is a header line — op and
   space-separated operands — optionally followed by '\n' and a body
   (Textio structure text, edit scripts, batched sub-frames).  A
   response payload is "ok <op>" or "err <message>" on line 1, then one
   "key value" line per result field, then an optional body after a
   blank line.  Responses carry no timings or other nondeterminism:
   byte-identical requests against equal store state produce
   byte-identical responses at every job count, which is what the
   scheduler's determinism tests pin. *)

type query_spec =
  | Identity
  | Fo of { params : string list; results : string list; formula : string }

type req =
  | Ping
  | Stats
  | Shutdown
  | Info of string
  | Put of string * string
  | Gen of { id : string; n : int; seed : int }
  | Load of string * string option
  | Snapshot of string * string option
  | Prepare of {
      id : string;
      seed : int;
      rho : int option;
      epsilon : float;
      shard : bool;
      qspec : query_spec;
    }
  | Mark of string * string
  | Detect of { id : string; length : int; shard : bool }
  | Setw of { id : string; value : int; elt : int list }
  | Update of string * string
  | Protect of { id : string; key : int; redundancy : int; group_size : int }
  | Audit of string
  | Repair of string
  | Fingerprint of {
      id : string;
      master : int;
      length : int option;
      times : int option;
      prefix : string;
      count : int;
    }
  | Trace of {
      id : string;
      master : int;
      length : int option;
      times : int option;
      prefix : string;
      count : int;
      alpha : float;
      suspect : string option;
    }
  | Batch of string list

let op_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Info _ -> "info"
  | Put _ -> "put"
  | Gen _ -> "gen"
  | Load _ -> "load"
  | Snapshot _ -> "snapshot"
  | Prepare _ -> "prepare"
  | Mark _ -> "mark"
  | Detect _ -> "detect"
  | Setw _ -> "setw"
  | Update _ -> "update"
  | Protect _ -> "protect"
  | Audit _ -> "audit"
  | Repair _ -> "repair"
  | Fingerprint _ -> "fingerprint"
  | Trace _ -> "trace"
  | Batch _ -> "batch"

(* --- request encoding ----------------------------------------------- *)

let with_body header = function
  | "" -> header
  | body -> header ^ "\n" ^ body

let string_of_qspec = function
  | Identity -> "@identity"
  | Fo { params; results; formula } ->
      Printf.sprintf "@fo %s %s %s" (String.concat "," params)
        (String.concat "," results)
        formula

let encode_request = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Info id -> "info " ^ id
  | Put (id, body) -> with_body ("put " ^ id) body
  | Gen { id; n; seed } -> Printf.sprintf "gen %s rings %d %d" id n seed
  | Load (id, path) ->
      "load " ^ id ^ (match path with None -> "" | Some p -> " " ^ p)
  | Snapshot (id, path) ->
      "snapshot " ^ id ^ (match path with None -> "" | Some p -> " " ^ p)
  | Prepare { id; seed; rho; epsilon; shard; qspec } ->
      Printf.sprintf "prepare %s %d %s %g %d %s" id seed
        (match rho with None -> "-" | Some r -> string_of_int r)
        epsilon
        (if shard then 1 else 0)
        (string_of_qspec qspec)
  | Mark (id, bits) -> Printf.sprintf "mark %s %s" id bits
  | Detect { id; length; shard } ->
      Printf.sprintf "detect %s %d %d" id length (if shard then 1 else 0)
  | Setw { id; value; elt } ->
      Printf.sprintf "setw %s %d %s" id value
        (String.concat " " (List.map string_of_int elt))
  | Update (id, body) -> with_body ("update " ^ id) body
  | Protect { id; key; redundancy; group_size } ->
      Printf.sprintf "protect %s %d %d %d" id key redundancy group_size
  | Audit id -> "audit " ^ id
  | Repair id -> "repair " ^ id
  | Fingerprint { id; master; length; times; prefix; count } ->
      Printf.sprintf "fingerprint %s %d %s %s %s %d" id master
        (match length with None -> "-" | Some l -> string_of_int l)
        (match times with None -> "-" | Some r -> string_of_int r)
        prefix count
  | Trace { id; master; length; times; prefix; count; alpha; suspect } ->
      with_body
        (Printf.sprintf "trace %s %d %s %s %s %d %g" id master
           (match length with None -> "-" | Some l -> string_of_int l)
           (match times with None -> "-" | Some r -> string_of_int r)
           prefix count alpha)
        (match suspect with None -> "" | Some s -> s)
  | Batch subs ->
      with_body
        (Printf.sprintf "batch %d" (List.length subs))
        (String.concat "" (List.map Frame.encode subs))

(* --- request parsing ------------------------------------------------ *)

let ( let* ) = Result.bind

let split_header payload =
  match String.index_opt payload '\n' with
  | None -> (payload, "")
  | Some i ->
      ( String.sub payload 0 i,
        String.sub payload (i + 1) (String.length payload - i - 1) )

let tokens line =
  List.filter (fun s -> s <> "") (String.split_on_char ' ' line)

let int_arg what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" what s)

let float_arg what s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: expected a number, got %S" what s)

let bool_arg what s =
  match s with
  | "0" -> Ok false
  | "1" -> Ok true
  | _ -> Error (Printf.sprintf "%s: expected 0 or 1, got %S" what s)

let id_arg s =
  if Store.valid_id s then Ok s
  else Error (Printf.sprintf "invalid dataset id %S" s)

(* "-" means "use the scheme's default" (the prepare-rho convention). *)
let opt_int_arg what s =
  if s = "-" then Ok None else Result.map Option.some (int_arg what s)

let csv s = List.filter (fun x -> x <> "") (String.split_on_char ',' s)

(* The formula is the tail of the header line, spaces included — recover
   it from the original line rather than re-joining tokens. *)
let tail_after line n =
  let rec skip i n =
    if n = 0 then i
    else
      match String.index_from_opt line i ' ' with
      | None -> String.length line
      | Some j ->
          let rec eat j =
            if j < String.length line && line.[j] = ' ' then eat (j + 1) else j
          in
          skip (eat j) (n - 1)
  in
  let rec eat i =
    if i < String.length line && line.[i] = ' ' then eat (i + 1) else i
  in
  let i = skip (eat 0) n in
  String.sub line i (String.length line - i)

let parse_qspec line ~skip toks =
  match toks with
  | [ "@identity" ] -> Ok Identity
  | "@fo" :: params :: results :: _ :: _ ->
      let formula = tail_after line (skip + 3) in
      Ok (Fo { params = csv params; results = csv results; formula })
  | _ -> Error "expected @identity or @fo <params> <results> <formula>"

let rec decode_subframes body pos acc =
  match Frame.decode body ~pos with
  | Error e -> Error (Frame.error_to_string e)
  | Ok None -> Ok (List.rev acc)
  | Ok (Some (payload, pos')) -> decode_subframes body pos' (payload :: acc)

let decode_request payload =
  let header, body = split_header payload in
  match tokens header with
  | [] -> Error "empty request"
  | op :: args -> (
      match (op, args) with
      | "ping", [] -> Ok Ping
      | "stats", [] -> Ok Stats
      | "shutdown", [] -> Ok Shutdown
      | "info", [ id ] ->
          let* id = id_arg id in
          Ok (Info id)
      | "put", [ id ] ->
          let* id = id_arg id in
          Ok (Put (id, body))
      | "gen", [ id; "rings"; n; seed ] ->
          let* id = id_arg id in
          let* n = int_arg "gen n" n in
          let* seed = int_arg "gen seed" seed in
          if n <= 0 then Error "gen n: must be positive" else Ok (Gen { id; n; seed })
      | "load", [ id ] ->
          let* id = id_arg id in
          Ok (Load (id, None))
      | "load", [ id; path ] ->
          let* id = id_arg id in
          Ok (Load (id, Some path))
      | "snapshot", [ id ] ->
          let* id = id_arg id in
          Ok (Snapshot (id, None))
      | "snapshot", [ id; path ] ->
          let* id = id_arg id in
          Ok (Snapshot (id, Some path))
      | "prepare", id :: seed :: rho :: epsilon :: shard :: qtoks ->
          let* id = id_arg id in
          let* seed = int_arg "prepare seed" seed in
          let* rho =
            if rho = "-" then Ok None
            else Result.map Option.some (int_arg "prepare rho" rho)
          in
          let* epsilon = float_arg "prepare epsilon" epsilon in
          let* shard = bool_arg "prepare shard" shard in
          let* qspec = parse_qspec header ~skip:6 qtoks in
          Ok (Prepare { id; seed; rho; epsilon; shard; qspec })
      | "mark", [ id; bits ] ->
          let* id = id_arg id in
          if bits <> "" && String.for_all (fun c -> c = '0' || c = '1') bits
          then Ok (Mark (id, bits))
          else Error "mark: message must be a nonempty string of 0s and 1s"
      | "detect", [ id; length; shard ] ->
          let* id = id_arg id in
          let* length = int_arg "detect length" length in
          let* shard = bool_arg "detect shard" shard in
          if length <= 0 then Error "detect length: must be positive"
          else Ok (Detect { id; length; shard })
      | "setw", id :: value :: (_ :: _ as elt) ->
          let* id = id_arg id in
          let* value = int_arg "setw value" value in
          let* elt =
            List.fold_right
              (fun e acc ->
                let* acc = acc in
                let* e = int_arg "setw element" e in
                Ok (e :: acc))
              elt (Ok [])
          in
          Ok (Setw { id; value; elt })
      | "update", [ id ] ->
          let* id = id_arg id in
          Ok (Update (id, body))
      | "protect", [ id; key; redundancy; group_size ] ->
          let* id = id_arg id in
          let* key = int_arg "protect key" key in
          let* redundancy = int_arg "protect redundancy" redundancy in
          let* group_size = int_arg "protect group_size" group_size in
          if redundancy < 1 || group_size < 1 then
            Error "protect: redundancy and group_size must be >= 1"
          else Ok (Protect { id; key; redundancy; group_size })
      | "audit", [ id ] ->
          let* id = id_arg id in
          Ok (Audit id)
      | "repair", [ id ] ->
          let* id = id_arg id in
          Ok (Repair id)
      | "fingerprint", [ id; master; length; times; prefix; count ] ->
          let* id = id_arg id in
          let* master = int_arg "fingerprint master" master in
          let* length = opt_int_arg "fingerprint length" length in
          let* times = opt_int_arg "fingerprint times" times in
          let* count = int_arg "fingerprint count" count in
          if count <= 0 then Error "fingerprint count: must be positive"
          else Ok (Fingerprint { id; master; length; times; prefix; count })
      | "trace", [ id; master; length; times; prefix; count; alpha ] ->
          let* id = id_arg id in
          let* master = int_arg "trace master" master in
          let* length = opt_int_arg "trace length" length in
          let* times = opt_int_arg "trace times" times in
          let* count = int_arg "trace count" count in
          let* alpha = float_arg "trace alpha" alpha in
          if count <= 0 then Error "trace count: must be positive"
          else if not (alpha > 0. && alpha <= 1.) then
            Error "trace alpha: must be in (0, 1]"
          else
            Ok
              (Trace
                 {
                   id;
                   master;
                   length;
                   times;
                   prefix;
                   count;
                   alpha;
                   suspect = (if body = "" then None else Some body);
                 })
      | "batch", [ n ] ->
          let* n = int_arg "batch count" n in
          let* subs = decode_subframes body 0 [] in
          if List.length subs <> n then
            Error
              (Printf.sprintf "batch: header says %d sub-requests, body has %d"
                 n (List.length subs))
          else Ok (Batch subs)
      | _, _ -> Error (Printf.sprintf "malformed request %S" header))

(* --- responses ------------------------------------------------------ *)

type resp = {
  status : [ `Ok of string | `Err of string ];
  fields : (string * string) list;
  body : string option;
}

let ok_payload op ?body fields =
  let b = Buffer.create 128 in
  Buffer.add_string b "ok ";
  Buffer.add_string b op;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b '\n';
      Buffer.add_string b k;
      Buffer.add_char b ' ';
      Buffer.add_string b v)
    fields;
  (match body with
  | None -> ()
  | Some body ->
      Buffer.add_string b "\n\n";
      Buffer.add_string b body);
  Buffer.contents b

(* Error text can contain anything (parser positions quote raw input);
   Textio's name escaping keeps the payload single-line and lossless. *)
let err_payload message = "err " ^ Textio.escape_name message

(* First occurrence of "\n\n" splits fields from body. *)
let cut_body payload =
  let n = String.length payload in
  let rec find i =
    if i + 1 >= n then None
    else if payload.[i] = '\n' && payload.[i + 1] = '\n' then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> (payload, None)
  | Some i ->
      (String.sub payload 0 i, Some (String.sub payload (i + 2) (n - i - 2)))

let decode_response payload =
  let head, rest = cut_body payload in
  match String.split_on_char '\n' head with
  | [] -> Error "empty response"
  | first :: lines -> (
      let fields =
        List.map
          (fun line ->
            match String.index_opt line ' ' with
            | None -> (line, "")
            | Some i ->
                ( String.sub line 0 i,
                  String.sub line (i + 1) (String.length line - i - 1) ))
          lines
      in
      match String.index_opt first ' ' with
      | Some i when String.sub first 0 i = "ok" ->
          Ok
            {
              status = `Ok (String.sub first (i + 1) (String.length first - i - 1));
              fields;
              body = rest;
            }
      | Some i when String.sub first 0 i = "err" ->
          Ok
            {
              status =
                `Err
                  (Textio.unescape_name
                     (String.sub first (i + 1) (String.length first - i - 1)));
              fields;
              body = rest;
            }
      | _ -> Error (Printf.sprintf "malformed response line %S" first))

let field resp k = List.assoc_opt k resp.fields
