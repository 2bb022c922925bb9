(** The qpwm-serve/1 wire protocol (DESIGN.md 5.11).

    Frames ({!Wm_util.Frame}) carry text payloads.  A request is a
    header line ([op] and space-separated operands), optionally followed
    by a newline and a body.  A response starts with ["ok <op>"] or
    ["err <message>"], followed by ["key value"] lines and an optional
    body after a blank line.  Responses are free of timings and other
    nondeterminism: equal requests against equal store state yield
    byte-identical responses at every job count.

    [prepare] and [detect] still carry a [shard] operand: it must be 0
    or 1, and it changes nothing, since the engine has one index path
    and one detector.  It stays on the wire so that existing clients
    (the load generator, the pipeline bench's serve workload) keep
    working unchanged. *)

type query_spec =
  | Identity
      (** weight-arity-1 identity query — every element is its own
          parameter and result (the Remark 1 escape hatch, evaluated in
          O(1) per parameter) *)
  | Fo of { params : string list; results : string list; formula : string }
      (** an FO formula for the generic evaluator *)

type req =
  | Ping
  | Stats  (** observability report (text body) *)
  | Shutdown
  | Info of string
  | Put of string * string  (** id, Textio structure text as body *)
  | Gen of { id : string; n : int; seed : int }  (** synthetic rings *)
  | Load of string * string option
  | Snapshot of string * string option
  | Prepare of {
      id : string;
      seed : int;
      rho : int option;  (** [None] = the scheme's default rank *)
      epsilon : float;
      shard : bool;  (** validated, then ignored (see above) *)
      qspec : query_spec;
    }
  | Mark of string * string  (** id, message as 0/1 text *)
  | Detect of { id : string; length : int; shard : bool }
      (** [shard] is validated, then ignored (see above) *)
  | Setw of { id : string; value : int; elt : int list }
      (** weights-only update of one tuple (Theorem 7 territory) *)
  | Update of string * string  (** id, edit script as body *)
  | Protect of { id : string; key : int; redundancy : int; group_size : int }
  | Audit of string
  | Repair of string
  | Fingerprint of {
      id : string;
      master : int;
      length : int option;  (** codeword bits; [None] = scheme default *)
      times : int option;  (** repetitions; [None] = scheme default *)
      prefix : string;
      count : int;
    }
      (** generate [count] fingerprinted copies for recipients
          [prefix ^ i], fanned onto the pool; the response body lists one
          "rid hex-digest" line per copy plus a combined digest field, so
          batch generation is verifiable without shipping the copies *)
  | Trace of {
      id : string;
      master : int;
      length : int option;
      times : int option;
      prefix : string;
      count : int;  (** candidate recipients [prefix ^ 0 .. prefix ^ (count-1)] *)
      alpha : float;  (** family-wise error level before correction *)
      suspect : string option;
          (** Textio structure text of the suspect copy as the request
              body; [None] traces the dataset's current weights *)
    }
  | Batch of string list
      (** raw sub-request payloads, framed back-to-back in the body *)

val string_of_qspec : query_spec -> string

val op_name : req -> string
(** The histogram/latency label, e.g. ["detect"]. *)


val encode_request : req -> string
val decode_request : string -> (req, string) result

type resp = {
  status : [ `Ok of string | `Err of string ];
  fields : (string * string) list;
  body : string option;
}

val ok_payload : string -> ?body:string -> (string * string) list -> string
val err_payload : string -> string
val decode_response : string -> (resp, string) result
val field : resp -> string -> string option
