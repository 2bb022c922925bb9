(** Persistent dataset store keyed by dataset id (DESIGN.md 5.11).

    Holds, per id, the weighted structure plus the derived state the
    serving endpoints reuse across requests: the cached Gaifman graph
    and its component count, the prepared scheme (with its query-system
    table and neighborhood index), and a recovery capsule.
    Only the weighted structure persists to disk (one Textio file per id
    under the store directory); derived state is a deterministic
    function of it and is rebuilt on demand after a restart.

    Readers never lock: they snapshot the entry's current immutable
    [dataset] value.  Writers serialize per id and publish a fresh value
    with a single store, so in-flight readers keep the version they
    started from. *)

type prep = {
  scheme : Multi_scheme.t;
  query : Query.t;
  qspec : string;  (** the query text the client sent, echoed by info *)
}

type dataset = {
  id : string;
  base : Weighted.structure;  (** original weights — detection reference *)
  cur : Weighted.t;  (** published (possibly marked) weights *)
  gf : Gaifman.t;
  components : int;  (** connected components of [gf], reported by info *)
  prep : prep option;
  cap : (Recovery.options * Recovery.capsule) option;
}

type t

val create : ?dir:string -> unit -> t
val dir : t -> string option

val valid_id : string -> bool
(** Wire-safe ids: nonempty, <= 128 chars of [A-Za-z0-9._-], not
    starting with a dot (ids double as file names under the store
    directory). *)

val of_structure : string -> Weighted.structure -> dataset
(** A fresh dataset: [cur = base.weights], Gaifman graph and its
    component count computed, nothing prepared. *)

val put : t -> dataset -> (unit, string) result
(** Insert or replace (id taken from the dataset). *)

val get : t -> string -> dataset option
(** Lock-free reader snapshot of the latest published version. *)

val update :
  t -> string -> (dataset -> (dataset * 'a, string) result) ->
  ('a, string) result
(** Run a writer under the dataset's writer lock: reads the current
    version, and publishes the returned one unless the writer fails.
    Writers to the same id serialize; readers proceed on the previous
    version meanwhile. *)

val ids : t -> string list
(** All dataset ids, sorted. *)

val snapshot : t -> string -> ?path:string -> unit -> (string, string) result
(** Write the dataset's structure with its {e current} weights to
    [path], defaulting to [<dir>/<id>.qpwm]; returns the path used. *)

val load : t -> string -> ?path:string -> unit -> (string, string) result
(** (Re)load a dataset from its Textio file, replacing any in-memory
    version; the loaded weights become both [base] and [cur]. *)
