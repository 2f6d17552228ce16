(** The request/response protocol spoken over {!Frame}s: one frame =
    one JSON object (see docs/SERVER.md for the wire grammar). *)

val version : int
(** Wire protocol version, bumped when ops or response fields grow;
    echoed by [ping] / [health] so probes detect daemon/client skew. *)

type cmd =
  | Ping  (** liveness probe; answered without touching a worker *)
  | Check of { file : string; source : string option; keep_going : bool }
      (** run all detectors on one file. [source] inline, or read from
          [file] when absent. *)
  | Detect  (** the §7 detector evaluation over the target corpus *)
  | Study  (** the full study report *)
  | Shutdown  (** begin a graceful drain, then exit *)
  | Stats  (** admin: live daemon counters; answered inline *)
  | Health  (** admin: liveness + identity; answered inline *)
  | Metrics_snapshot of { format : string }
      (** admin: a {!Support.Metrics} snapshot, [format] ["json"] or
          ["prometheus"]; answered inline *)
  | Flight_dump
      (** admin: the {!Support.Flight} black box + access log;
          answered inline *)

type request = {
  id : Support.Sjson.t;  (** echoed verbatim in the response; any JSON value *)
  cmd : cmd;
  deadline_ms : int option;  (** per-request wall-clock budget *)
  fuel : int option;  (** per-request fixpoint iteration budget *)
}

val cmd_name : cmd -> string

val parse_request : Support.Sjson.t -> (request, string) result

(** What a handler produced: the offline CLI's observable behaviour,
    reified. [out]/[err] are the exact bytes the CLI would write, and
    [exit_code] follows the 0/1/2/3 ladder. *)
type outcome = { out : string; err : string; exit_code : int }

val status_of_exit : int -> string
(** ["ok"], ["findings"], ["degraded"], or ["fatal"]. *)

val ok_response : ?req:int -> id:Support.Sjson.t -> outcome -> Support.Sjson.t
(** [?req] is the server-side request id, rendered as a ["req"] field
    right after ["id"]; the daemon stamps it on every response so a
    reply can be joined to its access-log line, spans, and journal
    record. Absent when the producer has no server context (offline
    tests). *)

val error_status : Support.Diag.code -> string
(** ["rejected"] for the shed/drain W-codes (the request was never
    attempted — safe to resend later), ["error"] otherwise. *)

val error_response :
  ?req:int ->
  id:Support.Sjson.t ->
  code:Support.Diag.code ->
  string ->
  Support.Sjson.t

val journal_key : request -> handler_domains:int -> string
(** Stable digest of everything that determines a request's response
    bytes, excluding the volatile [id] (patched back in at replay). *)
