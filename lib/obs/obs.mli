(** wm_obs — low-overhead observability: counters, timers, trace spans.

    The three performance-critical subsystems (the wm_par domain pool,
    the neighborhood-type indexer, the query system / detector stack)
    instrument themselves through this module.  Design rules:

    - {b Domain safety without contention.}  Every counter, timer and
      span buffer accumulates into a per-domain cell ({!Domain.DLS});
      the only shared mutation is a one-time registration of each cell
      under a mutex, at a domain's first touch.  Instrumenting a hot
      path therefore never adds lock traffic to the path it measures.
    - {b No-ops when disabled.}  All record operations first read one
      atomic flag and return immediately when observation is off, so
      [jobs=1] microbenchmarks are unaffected by the instrumentation
      being compiled in.
    - {b No effect on results.}  Instrumentation only writes to
      observation cells; enabling or disabling it leaves every computed
      value bit-identical (property-tested in test/test_obs.ml).

    The flag starts enabled iff the environment variable [WMARK_STATS]
    is set to anything other than ["0"] or [""]; [wmark --stats],
    [--trace-json] and the bench harness flip it at startup.

    Handles ({!counter}, {!timer}) are meant to be created once, at
    module initialization of the instrumented library, and used from any
    domain. *)

(** {1 Enable / disable} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Counters — named monotonic integers} *)

type counter

val counter : string -> counter
(** [counter name] registers a counter.  Names are a dotted vocabulary
    ([pool.tasks_enqueued], [nbh.iso_checks], ... — see DESIGN.md 5.8);
    creating two counters with the same name merges their totals at
    snapshot time. *)

val incr : counter -> unit
val add : counter -> int -> unit

(** {1 Timers — accumulated wall-clock time per name} *)

type timer

val timer : string -> timer

val time : timer -> (unit -> 'a) -> 'a
(** [time t f] runs [f ()], charging its wall-clock duration and one
    call to [t] on the current domain.  Exceptions propagate; the
    partial duration is still recorded.  When disabled this is [f ()]. *)

(** {1 Histograms — fixed-bucket latency distributions}

    Counters answer "how many", timers answer "how long in total";
    histograms answer "how were the individual durations distributed" —
    what a serving endpoint's p50/p99 needs.  Every histogram shares one
    fixed log-spaced bucket layout ({!histo_bounds}: 1 us doubling to
    ~8.4 s, plus an overflow bucket), so per-domain accumulation and
    snapshot merging are plain integer-array sums. *)

type histo

val histo : string -> histo
(** [histo name] registers a histogram; same naming vocabulary and
    same-name merge-at-snapshot semantics as {!counter}. *)

val observe : histo -> float -> unit
(** Record one observation (seconds).  Like {!add}, a no-op when
    disabled; a plain domain-local write otherwise. *)

val observe_span : histo -> (unit -> 'a) -> 'a
(** [observe_span h f] runs [f ()] and records its wall-clock duration.
    Exceptions propagate; the partial duration is still recorded. *)

val histo_bounds : float array
(** The shared finite bucket upper bounds, ascending, in seconds.
    Bucket [i] of a {!histo_total} counts observations
    [<= histo_bounds.(i)] (and above the previous bound); the final
    extra bucket counts overflows. *)

(** {1 Trace spans — individual timed events, nestable} *)

val span : ?detail:string -> timer -> (unit -> 'a) -> 'a
(** [span t f] is {!time} plus one trace event recording the span's
    start, duration, owning domain and nesting depth (spans on the same
    domain nest; depth is per-domain).  [detail] annotates the event
    (e.g. the attack-grid cell being run) and is carried verbatim into
    the [qpwm-trace/1] output. *)

(** {1 Snapshots} *)

type timer_total = { calls : int; seconds : float }

type span_event = {
  sp_name : string;
  sp_detail : string option;
  sp_domain : int;  (** integer id of the domain that ran the span *)
  sp_depth : int;  (** nesting depth on that domain, outermost = 0 *)
  sp_start : float;  (** seconds since process start *)
  sp_dur : float;  (** seconds *)
}

type histo_total = {
  count : int;
  sum : float;  (** sum of all observations, seconds *)
  buckets : int array;
      (** per-bucket counts, length [Array.length histo_bounds + 1] *)
}

type snapshot = {
  taken : float;  (** seconds since process start *)
  counters : (string * int) list;  (** sorted by name, zeros dropped *)
  timers : (string * timer_total) list;  (** sorted by name *)
  histos : (string * histo_total) list;  (** sorted by name, empties dropped *)
  spans : span_event list;  (** sorted by (start, domain, name) *)
}

val snapshot : unit -> snapshot
(** Merge all per-domain cells.  Safe to call while other domains keep
    recording; the result is a consistent-enough view for reporting
    (counts of still-running work may be mid-update). *)

val diff : since:snapshot -> snapshot -> snapshot
(** [diff ~since now]: counters and timers subtracted pairwise (entries
    that did not move are dropped), spans restricted to those starting
    at or after [since.taken].  The usual way to attribute activity to
    one experiment or one CLI run. *)

val reset : unit -> unit
(** Zero every cell and drop all recorded spans.  Meant for the start of
    a CLI invocation or between bench experiments; concurrent recorders
    may leak a few events across the reset, which only matters if the
    caller also failed to quiesce the work it is measuring. *)
