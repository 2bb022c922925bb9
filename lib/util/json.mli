(** Minimal JSON emission (no parsing, no dependencies).

    The CLI exports machine-readable results — attack grids behind
    [wmark attack --json], [qpwm-trace/1] snapshots behind
    [--trace-json] — without pulling a JSON library into the
    dependency cone.  Output is UTF-8, RFC 8259: strings are escaped,
    non-finite floats degrade to [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialize; [pretty] (default [true]) indents with two spaces. *)

val to_file : string -> t -> unit
(** Write [to_string] plus a trailing newline to a file, through
    {!Atomic_file.write}: a failed write leaves the old file in place. *)
