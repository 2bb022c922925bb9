(** Rendering for {!Wm_obs.Obs} snapshots: the human-readable [--stats]
    table and the machine-readable [qpwm-trace/1] JSON document. *)

val render : Wm_obs.Obs.snapshot -> string
(** Counters and timers as {!Texttab} tables (counters sorted by name;
    timers with call counts, totals and per-call means), followed by a
    per-name aggregation of trace spans.  Empty sections are omitted;
    an entirely empty snapshot renders a short hint instead. *)

val trace_json : Wm_obs.Obs.snapshot -> Json.t
(** The full snapshot under schema [qpwm-trace/1]: counters as a flat
    object, timers as [{name: {calls, seconds}}], latency histograms as
    [{name: {count, sum_s, p50_s, p90_s, p99_s, buckets}}] and the
    individual span events ([name], optional [detail], [domain],
    [depth], [start_s], [dur_s] — starts are seconds since process
    start).  A histogram quantile is the upper bound of the first bucket
    whose cumulative count reaches that fraction of the total (0 on an
    empty histogram); [buckets] lists only non-empty cells as
    [{le_s, n}] ([le_s] is ["inf"] for the overflow bucket). *)
