(** The request/response protocol spoken over {!Frame}s.

    One frame = one JSON object. Requests carry an [id] the server
    echoes verbatim, a command, and optional per-request budgets
    ([deadline_ms], [fuel]). Responses are either outcome-shaped
    (the offline CLI's stdout/stderr/exit ladder, verbatim) or
    error-shaped (a stable diagnostic code from [Support.Diag] plus a
    message). See docs/SERVER.md for the wire grammar. *)

module Sjson = Support.Sjson

(* Bumped when the wire protocol grows ops or response fields; echoed
   by [ping] / [health] so probes can detect daemon/client skew. *)
let version = 2

type cmd =
  | Ping
  | Check of { file : string; source : string option; keep_going : bool }
  | Detect
  | Study
  | Shutdown
  | Stats
  | Health
  | Metrics_snapshot of { format : string }
  | Flight_dump

type request = {
  id : Sjson.t;  (** echoed verbatim in the response; any JSON value *)
  cmd : cmd;
  deadline_ms : int option;  (** per-request wall-clock budget *)
  fuel : int option;  (** per-request fixpoint iteration budget *)
}

let cmd_name = function
  | Ping -> "ping"
  | Check _ -> "check"
  | Detect -> "detect"
  | Study -> "study"
  | Shutdown -> "shutdown"
  | Stats -> "stats"
  | Health -> "health"
  | Metrics_snapshot _ -> "metrics"
  | Flight_dump -> "flight"

(* ---------------- request parsing ----------------------------------- *)

let parse_request (v : Sjson.t) : (request, string) result =
  match v with
  | Sjson.Obj _ -> (
      let id = Option.value ~default:Sjson.Null (Sjson.member "id" v) in
      let deadline_ms = Sjson.int_member "deadline_ms" v in
      let fuel = Sjson.int_member "fuel" v in
      let finish cmd = Ok { id; cmd; deadline_ms; fuel } in
      match Sjson.str_member "cmd" v with
      | None -> Error "request has no \"cmd\" string"
      | Some "ping" -> finish Ping
      | Some "check" -> (
          let source = Sjson.str_member "source" v in
          let keep_going =
            Option.value ~default:false (Sjson.bool_member "keep_going" v)
          in
          match (Sjson.str_member "file" v, source) with
          | None, None -> Error "check needs a \"file\" or a \"source\""
          | file, source ->
              let file = Option.value ~default:"<request>" file in
              finish (Check { file; source; keep_going }))
      | Some "detect" -> finish Detect
      | Some "study" -> finish Study
      | Some "shutdown" -> finish Shutdown
      | Some "stats" -> finish Stats
      | Some "health" -> finish Health
      | Some "metrics" -> (
          match
            Option.value ~default:"json" (Sjson.str_member "format" v)
          with
          | ("json" | "prometheus") as format ->
              finish (Metrics_snapshot { format })
          | other -> Error (Printf.sprintf "unknown metrics format %S" other))
      | Some "flight" -> finish Flight_dump
      | Some other -> Error (Printf.sprintf "unknown cmd %S" other))
  | _ -> Error "request frame is not a JSON object"

(* ---------------- responses ----------------------------------------- *)

(** What a handler produced: the offline CLI's observable behaviour,
    reified. [out]/[err] are the exact bytes the CLI would write. *)
type outcome = { out : string; err : string; exit_code : int }

(* The exit-code ladder, named (docs/ROBUSTNESS.md). *)
let status_of_exit = function
  | 0 -> "ok"
  | 1 -> "findings"
  | 2 -> "degraded"
  | _ -> "fatal"

(* The server request id: generated at admission, echoed in every
   response right after the client's [id], stamped on spans, the
   access log, and the journal record — the one key that joins a
   response to every piece of telemetry it produced. *)
let req_field req = ("req", Sjson.Num (float_of_int req))

let ok_response ?req ~(id : Sjson.t) (o : outcome) : Sjson.t =
  Sjson.Obj
    ((("id", id) :: (match req with None -> [] | Some r -> [ req_field r ]))
    @ [
        ("status", Sjson.Str (status_of_exit o.exit_code));
        ("exit", Sjson.Num (float_of_int o.exit_code));
        ("out", Sjson.Str o.out);
        ("err", Sjson.Str o.err);
      ])

(* W-codes (shed, draining) are rejections — the request was never
   attempted and is safe to resend elsewhere/later. E-codes are
   errors: the request was attempted (or unparseable) and retrying
   verbatim is unlikely to help. *)
let error_status (code : Support.Diag.code) =
  match code with
  | Support.Diag.Server_overload | Support.Diag.Server_draining -> "rejected"
  | _ -> "error"

let error_response ?req ~(id : Sjson.t) ~(code : Support.Diag.code)
    (msg : string) : Sjson.t =
  Sjson.Obj
    ((("id", id) :: (match req with None -> [] | Some r -> [ req_field r ]))
    @ [
        ("status", Sjson.Str (error_status code));
        ("code", Sjson.Str (Support.Diag.code_name code));
        ("msg", Sjson.Str msg);
      ])

(* ---------------- journal keys --------------------------------------- *)

(** A stable digest of everything that determines a request's response
    bytes — command, payload, budgets, and the handler parallelism
    (which analyses results are invariant to, but belt-and-braces).
    The crash-safe request journal is keyed by this, so a restarted
    server replays a completed response byte-identically iff the
    request is identical. The volatile [id] is deliberately excluded:
    it is patched back in at replay time. *)
let journal_key (r : request) ~(handler_domains : int) : string =
  let b = Buffer.create 128 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\000'
  in
  add (cmd_name r.cmd);
  (match r.cmd with
  | Check { file; source; keep_going } ->
      add file;
      add (match source with None -> "<file>" | Some s -> s);
      add (string_of_bool keep_going)
  | Metrics_snapshot { format } -> add format
  | Ping | Detect | Study | Shutdown | Stats | Health | Flight_dump -> ());
  add (match r.deadline_ms with None -> "-" | Some n -> string_of_int n);
  add (match r.fuel with None -> "-" | Some n -> string_of_int n);
  add (string_of_int handler_domains);
  Digest.to_hex (Digest.string (Buffer.contents b))
