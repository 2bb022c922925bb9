(** A reusable domain pool with deterministic combinators.

    The attack grid, the fingerprint collusion grid, trace scoring over
    many candidates, recovery groups and the serve engine's fingerprint
    copies are coarse per-item work over an array whose items never
    communicate (DESIGN.md 5.6 lists why finer loops such as typing and
    carrier reads stay sequential).  This module runs such loops on a
    pool of OCaml 5 domains while keeping one hard contract:

    {b Determinism.}  For every combinator, the result is bit-identical
    to the plain sequential loop, for every job count.  [parallel_map]
    writes each slot of the output exactly where the sequential
    [Array.map] would.  A job count of 1 bypasses the pool entirely and
    runs the ordinary sequential code — it is the reference semantics,
    and larger job counts are only allowed to be faster, never
    different.

    {b One decision, made here.}  Callers pass no job count.  A
    combinator runs on the pool when {!jobs} exceeds 1 and the array has
    more than one item; a combinator called while a pool task body runs
    (a nested section) is the plain sequential loop, since the enclosing
    section already keeps every runner busy.

    The pool is spawned on first use with exactly {!jobs} runners (the
    calling domain plus [jobs - 1] worker domains) and fed through a work
    queue; callers block until their batch completes, helping with
    queued work while they wait.  A task that raises does not wedge the
    pool: the first exception of a batch is re-raised in the caller once
    the batch has drained, and the workers survive for the next batch.

    Job count resolution, in priority order: {!set_jobs} (the [--jobs]
    CLI flag), then the [WMARK_JOBS] environment variable, then
    [Domain.recommended_domain_count ()]. *)

val default_jobs : unit -> int
(** [WMARK_JOBS] when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()].  A set-but-rejected value is
    reported once on stderr at startup rather than ignored silently. *)

val set_jobs : int option -> unit
(** Process-wide override (the [--jobs] flag); [None] restores the
    environment/hardware default.  Values below 1 are clamped to 1. *)

val jobs : unit -> int
(** The effective job count every combinator uses. *)

val parallel_map : ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map f a] is [Array.map f a], computed on up to {!jobs}
    domains.  [f] must be safe to call from several domains at once on
    distinct elements (pure functions over immutable data are). *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** [List.map] via {!parallel_map}; order preserved. *)

val pool_size : unit -> int
(** Number of runners (worker domains + the calling domain) the pool
    can bring to bear; 1 when no pool has been spawned yet.  The pool
    grows on demand: a combinator run at more jobs than there are
    runners spawns the missing domains first, so a [set_jobs] above the
    first-call size is honored rather than clamped. *)
