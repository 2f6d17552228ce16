(** Always-on flight recorder: wide structured events in per-domain
    ring buffers, dumped as JSONL for postmortems.

    Where {!Trace} answers "where did the time go" and {!Metrics}
    answers "how much of everything happened", the flight recorder
    answers "what was the process doing right before it died". It is
    **enabled by default** (the inverse of the other two layers) and
    kept cheap enough to leave on in production: {!record} is one
    atomic flag load, a domain-local ring write, and no locks.

    Events are wide: one [kind] string plus free-form [(key, value)]
    string fields, all flattened into one JSON object per line on
    dump. Each domain records into its own fixed-capacity ring
    (default 8192 events), a {!Ring} like {!Trace}'s: a full ring
    overwrites the oldest event and counts the drop, so the dump always
    holds the *most recent* window with exact loss accounting.

    The "black box": point {!set_blackbox} at a path and the dump is
    written there on demand ({!write_blackbox}), on SIGQUIT
    ({!install_sigquit}), and on fatal exits via {!crash} — the CLI
    installs that hook so even a run dying on an uncaught exception
    leaves its last moments on disk. *)

(** {1 Global switch} *)

val enable : unit -> unit
val disable : unit -> unit

val enabled : unit -> bool
(** [true] by default — the recorder is always-on unless a bench or
    test turns it off. *)

(** {1 Recording} *)

val record : ?fields:(string * string) list -> string -> unit
(** [record ~fields kind] appends one event stamped with the flight
    clock ({!Trace.now_ns}, so injected clocks make dumps
    deterministic) to the calling domain's ring. No-op while
    disabled. *)

val set_ring_capacity : int -> unit
(** Ring capacity (events, min 16) for shards created after the call
    {e and} for the calling domain's own shard, which is cleared and
    resized in place (the caller owns it, so this is race-free).
    Other live domains keep their current rings. Default 8192. *)

val reset : unit -> unit
(** Drop every buffered event and zero all drop counters (rings
    survive). *)

(** {1 Accounting} *)

val events_total : unit -> int
(** Events currently buffered across all domains. *)

val dropped_total : unit -> int
(** Events overwritten (lost to ring wrap) across all domains since
    the last {!reset}. *)

(** {1 Dump} *)

val dump_jsonl : unit -> string
(** The black-box payload: one [flight.meta] header line carrying
    [version] / [pid] / [events] / [dropped], then every buffered
    event as one flat JSON object per line —
    [{"ts":<ns>,"dom":<shard>,"kind":"...",<field>:"...",...}] —
    merged across domains and sorted by timestamp (ties keep
    per-domain recording order). *)

(** {1 Black box} *)

val set_blackbox : string option -> unit
(** Install (or clear) the dump destination. *)

val blackbox_path : unit -> string option

val write_blackbox : unit -> string option
(** Write {!dump_jsonl} to the installed path via write-then-rename
    (a reader never sees a torn file). Returns the path written, or
    [None] when no path is installed or the write failed — it never
    raises, because it runs on crash paths. *)

val crash : ?reason:string -> unit -> unit
(** The fatal-exit hook: record a ["crash"] event (with a ["reason"]
    field when given) and write the black box. Never raises. *)

val install_sigquit : unit -> unit
(** Route SIGQUIT to "record a ["sigquit"] event and write the black
    box"; the process keeps running, so a live daemon can be asked for
    its black box with [kill -QUIT]. No-op on platforms without the
    signal. *)
