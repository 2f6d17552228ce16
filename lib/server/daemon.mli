(** The analysis daemon behind [rustudy serve]: a crash-safe,
    load-shedding server for check/detect/study requests over a
    Unix-domain socket (wire protocol in docs/SERVER.md).

    Contract: {e no request outcome is ever silent, and no input kills
    the process}. Every accepted request gets exactly one response —
    outcome-shaped on success, or a structured error/rejection
    ([W0501] shed, [W0504] draining, [E0502] bad frame, [W0503] worker
    lost, [E0501] retries exhausted). Malformed frames are answered
    (or the connection dropped) without disturbing other requests;
    worker domains that die are respawned; per-request deadline/fuel
    budgets are scoped to the worker domain and reset between
    requests; completed responses are journalled so a restarted server
    replays them byte-identically. *)

exception Kill_worker
(** Fault injection: raised from a {!config.before_handle} hook to
    simulate a worker domain dying mid-request. Escapes the
    per-request catch by design — the caller gets [W0503] and the
    monitor respawns the worker. *)

type config = {
  socket_path : string;
  workers : int;  (** worker domains (>= 1) *)
  queue_cap : int;  (** admission-queue bound; beyond it requests shed *)
  max_frame : int;  (** largest accepted frame payload, bytes *)
  default_deadline_ms : int;
      (** wall-clock budget for requests that carry none; 0 = none *)
  retries : int;  (** attempts per request (1 = no retry) *)
  retry_base_ms : float;  (** backoff before attempt 2 *)
  drain_ms : int;  (** drain grace for in-flight work, milliseconds *)
  journal : string option;  (** crash-safe request log *)
  access_log_cap : int;
      (** bounded in-memory access log (one structured line per
          request); beyond it the oldest lines are dropped, counted.
          Clamped to a minimum of 16 lines *)
  handler_domains : int;
      (** parallelism handed to corpus handlers (keep 1: workers never
          nest pools; results are domain-count-invariant anyway) *)
  before_handle : (Proto.request -> attempt:int -> unit) option;
      (** test/fault hook, run on the worker before every attempt *)
}

val default_config : socket_path:string -> config
(** 2 workers, queue 64, 8 MiB frames, 3 attempts, 5 s drain, no
    journal, no default deadline, 1024 access-log lines. *)

type stats = {
  requests : int;  (** well-formed requests received *)
  ok : int;  (** outcome-shaped responses (any exit code) *)
  errors : int;  (** error responses (E0501 exhaustion, W0503 lost) *)
  shed : int;  (** W0501 admission rejections *)
  rejected_draining : int;  (** W0504 rejections *)
  bad_frames : int;  (** torn / oversized / unparseable frames *)
  retried : int;  (** handler retries (extra attempts) *)
  worker_deaths : int;  (** worker domains lost and respawned *)
  replayed : int;  (** responses replayed from the journal *)
  timeouts : int;  (** requests that ran past their deadline *)
}

type t

val start : config -> t
(** Bind the socket, load the journal's replay table, spawn workers
    and the accept thread. Raises [Failure] if another server is live
    on the socket, [Unix.Unix_error] if the path is unbindable. *)

val stop : t -> unit
(** Graceful drain: stop accepting, give queued and in-flight work
    [drain_ms] to finish, reject what never started ([W0504]), answer
    what overstayed ([W0503]), sever connections, flush the journal.
    Idempotent; concurrent callers block until the drain completes. *)

val serve : t -> unit
(** Block until {!request_shutdown} (a SIGTERM handler or a [shutdown]
    frame sets it), then {!stop}. *)

val request_shutdown : t -> unit
(** Ask for a graceful drain. Only sets a flag — safe from a signal
    handler. *)

val shutdown_requested : t -> bool
val stopped : t -> bool

val wait : t -> unit
(** Block until the drain has fully completed. *)

val stats : t -> stats
val socket_path : t -> string

val uptime_ms : t -> int
(** Milliseconds since {!start}, on the monotonic clock. *)

val access_log : t -> Support.Sjson.t list
(** The bounded access log, oldest first: one object per answered
    request — [req] (server request id), [id] (client id, echoed),
    [op], [queue_ns], [attempts], [status], [code], [wall_ns],
    [bytes]. At most [access_log_cap] lines are retained. *)

val access_dropped : t -> int
(** Access-log lines lost to the ring bound since startup. *)
