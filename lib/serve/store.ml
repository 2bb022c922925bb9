(* Persistent dataset store (DESIGN.md 5.11).

   One entry per dataset id: the structure, its published weights, and
   the derived state the endpoints reuse across requests — Gaifman
   graph and its component count, prepared scheme, recovery capsule.
   Derived state is deterministic from (structure, options), so only
   the weighted structure itself is persisted (Textio under [dir]);
   everything else is rebuilt on demand after a restart.

   Concurrency contract: the registry mutex only guards the id table.
   Each entry carries its own writer mutex; a writer recomputes a fresh
   [dataset] value and publishes it with a single mutable-field store,
   so readers never lock — they snapshot the current pointer and work on
   an immutable value while the next version is being built. *)

type prep = {
  scheme : Multi_scheme.t;
  query : Query.t;
  qspec : string;  (* the query text the client sent, echoed by [info] *)
}

type dataset = {
  id : string;
  base : Weighted.structure;  (* original weights — detection reference *)
  cur : Weighted.t;  (* published (possibly marked) weights *)
  gf : Gaifman.t;
  components : int;  (* connected components of [gf] *)
  prep : prep option;
  cap : (Recovery.options * Recovery.capsule) option;
}

type entry = { emu : Mutex.t; mutable ds : dataset }
type t = { mu : Mutex.t; tbl : (string, entry) Hashtbl.t; dir : string option }

let valid_id id =
  let ok = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true
    | _ -> false
  in
  String.length id > 0
  && String.length id <= 128
  && id.[0] <> '.'
  && String.for_all ok id

let create ?dir () = { mu = Mutex.create (); tbl = Hashtbl.create 16; dir }
let dir t = t.dir

let of_structure id (ws : Weighted.structure) =
  let gf = Gaifman.of_structure ws.Weighted.graph in
  {
    id;
    base = ws;
    cur = ws.Weighted.weights;
    gf;
    components = snd (Gaifman.component_labels gf);
    prep = None;
    cap = None;
  }

let with_mu mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let find t id = with_mu t.mu (fun () -> Hashtbl.find_opt t.tbl id)

let get t id =
  match find t id with None -> None | Some e -> Some e.ds

let ids t =
  with_mu t.mu (fun () ->
      List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.tbl []))

let put t ds =
  if not (valid_id ds.id) then Error "invalid dataset id"
  else begin
    with_mu t.mu (fun () ->
        match Hashtbl.find_opt t.tbl ds.id with
        | Some e -> with_mu e.emu (fun () -> e.ds <- ds)
        | None -> Hashtbl.add t.tbl ds.id { emu = Mutex.create (); ds });
    Ok ()
  end

(* Run a writer against the dataset's current version, holding its
   writer lock for the whole read-compute-publish cycle so concurrent
   writers to the same id serialize; readers keep seeing the previous
   version until the single publishing store. *)
let update t id f =
  match find t id with
  | None -> Error (Printf.sprintf "unknown dataset %S" id)
  | Some e ->
      with_mu e.emu (fun () ->
          match f e.ds with
          | Error _ as err -> err
          | Ok (ds', out) ->
              e.ds <- ds';
              Ok out)

let path_of t id =
  match t.dir with
  | None -> None
  | Some d -> Some (Filename.concat d (id ^ ".qpwm"))

let snapshot t id ?path () =
  match get t id with
  | None -> Error (Printf.sprintf "unknown dataset %S" id)
  | Some ds -> (
      match (path, path_of t id) with
      | None, None -> Error "no store directory and no explicit path"
      | Some p, _ | None, Some p ->
          (try
             Textio.save p
               { Weighted.graph = ds.base.Weighted.graph; weights = ds.cur };
             Ok p
           with Sys_error m -> Error m))

let load t id ?path () =
  if not (valid_id id) then Error "invalid dataset id"
  else
    match (path, path_of t id) with
    | None, None -> Error "no store directory and no explicit path"
    | Some p, _ | None, Some p -> (
        match
          (try Textio.load_result p
           with Sys_error m -> Error { Textio.line = 0; message = m })
        with
        | Error e -> Error (Textio.error_to_string e)
        | Ok ws ->
            Result.map (fun () -> p) (put t (of_structure id ws)))
