(** Span-based structured tracing over the same monotonic clock
    {!Deadline} uses, recorded into per-domain {!Ring}s and
    exported as Chrome trace-event JSON (loadable in
    [chrome://tracing] and Perfetto).

    Tracing is disabled by default; {!with_span} then costs one atomic
    flag load and runs the thunk directly. When enabled, each closing
    span appends one complete ("ph":"X") event to the calling domain's
    ring buffer and updates that domain's per-span aggregate (the
    [--profile] summary). If {!Metrics} is also enabled, every span
    duration additionally feeds the [rustudy_span_duration_ms]
    histogram.

    The clock is injectable ({!set_clock}) so tests and reproducible
    runs export byte-identical traces; sequential (single-domain) runs
    are byte-deterministic, parallel runs are deterministic up to
    thread ids and interleaving. *)

(** {1 Global switch} *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop every buffered event and aggregate (ring buffers survive). *)

(** {1 Clock} *)

val set_clock : (unit -> int64) option -> unit
(** Install an injectable nanosecond clock ([None] restores the
    monotonic clock). The injected clock must be monotone
    non-decreasing per domain or the exported trace will fail
    [tracecat] validation. *)

val now_ns : unit -> int64
(** The injected clock if any, else {!Deadline.now_ns}. *)

(** {1 Recording} *)

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f] and records one complete event on the
    calling domain. An exception escaping [f] still closes the span
    (with an ["error"] arg) before re-raising with the original
    backtrace. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** A zero-duration marker event. *)

val set_ring_capacity : int -> unit
(** Per-domain ring capacity (events) for shards created after the
    call; when a ring is full the oldest event is overwritten and
    counted, and the export emits one [trace_dropped] instant per
    affected domain. Default 32768. *)

val dropped_total : unit -> int
(** Events lost to ring wrap across all domains since the last
    {!reset} — the sum of the per-shard counts behind the exported
    [trace_dropped] instants. *)

(** {1 Export} *)

val export_chrome : unit -> string
(** A Chrome trace-event JSON array, one event per line, timestamps in
    microseconds, shards ordered by thread id, events in completion
    order. *)

(** {1 Profile aggregates} *)

type agg = {
  agg_name : string;
  agg_count : int;
  agg_total_ns : int64;
}

val aggregates : unit -> agg list
(** Per-span totals merged across domains, sorted by total time
    (descending), then name. *)

val profile_table : unit -> string
(** The [--profile] rendering of {!aggregates}: one row per span name
    with call count, total and mean wall time. *)
