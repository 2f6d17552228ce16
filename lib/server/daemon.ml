(** The analysis daemon behind [rustudy serve].

    A Unix-domain-socket server accepting concurrent check/detect/study
    requests as length-prefixed JSON {!Frame}s. The design goal is the
    supervisor's (docs/ROBUSTNESS.md) transplanted to a long-lived
    process: {e no request outcome is ever silent, and no input kills
    the process}.

    Shape:
    - an {b accept thread} takes connections and hands each to a
      {b connection thread} (threads share domain 0 — they only do
      blocking socket I/O and framing, never analysis);
    - analysis runs on {b worker domains} popping a {b bounded
      admission queue}: when the queue is full the request is shed
      immediately with a structured [W0501] rejection instead of
      queueing unboundedly;
    - every worker is watched by a {b monitor thread} that joins it
      and respawns it if it died mid-request ([W0503] to the caller);
    - per-request budgets ([deadline_ms], [fuel]) are installed
      scoped-per-domain, and {b reset between requests}
      ({!Support.Deadline.reset} / {!Support.Fuel.reset_domain}) so a
      leaked budget can never bleed across requests;
    - a graceful {b drain} (SIGTERM or a [shutdown] request) stops
      accepting, lets in-flight work finish inside [drain_ms], rejects
      what never started ([W0504]), severs what overstayed ([W0503]),
      flushes the journal and returns — exit 0 is the caller's;
    - completed responses are appended to a crash-safe
      {!Support.Journal} so a restarted server replays them
      byte-identically without recomputing. *)

module Sjson = Support.Sjson

exception Kill_worker
(** Fault injection: a {!config.before_handle} hook raises this to
    simulate a worker domain dying mid-request. It deliberately
    escapes the per-request catch — the caller still gets a structured
    [W0503] response and the monitor respawns the worker. *)

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
      (** bounded in-memory access log, one structured line per
          request; beyond it the oldest lines are dropped (counted) *)
  handler_domains : int;
      (** parallelism handed to corpus handlers. Kept at 1 so worker
          domains never nest pools; analysis results are
          domain-count-invariant either way. *)
  before_handle : (Proto.request -> attempt:int -> unit) option;
      (** test/fault hook, run on the worker before every attempt *)
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    queue_cap = 64;
    max_frame = 8 * 1024 * 1024;
    default_deadline_ms = 0;
    retries = 3;
    retry_base_ms = 5.0;
    drain_ms = 5_000;
    journal = None;
    access_log_cap = 1024;
    handler_domains = 1;
    before_handle = None;
  }

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

(* ---------------- metrics ------------------------------------------- *)

let m_requests =
  Support.Metrics.counter ~labels:[ "cmd"; "status" ]
    ~help:"Requests answered by the analysis server"
    "rustudy_server_requests_total"

let m_shed =
  Support.Metrics.counter
    ~help:"Requests shed at admission because the bounded queue was full"
    "rustudy_server_shed_total"

let m_bad_frames =
  Support.Metrics.counter
    ~help:"Torn, oversized or unparseable wire frames rejected"
    "rustudy_server_bad_frames_total"

let m_retries =
  Support.Metrics.counter ~help:"Per-request handler retries"
    "rustudy_server_retries_total"

let m_worker_deaths =
  Support.Metrics.counter
    ~help:"Worker domains lost mid-request and respawned"
    "rustudy_server_worker_deaths_total"

let m_replayed =
  Support.Metrics.counter
    ~help:"Responses replayed byte-identically from the request journal"
    "rustudy_server_replayed_total"

let m_request_ms =
  Support.Metrics.histogram ~labels:[ "cmd" ]
    ~help:"Wall time per handled request (ms)" "rustudy_server_request_ms"

(* ---------------- one-shot response cells ---------------------------- *)

(* The connection thread blocks on [take]; whoever decides the
   request's fate ([fill]s first) wins — worker success, worker-death
   backstop, or the drain sweep. Later fills are no-ops, which is what
   makes "exactly one response per request" easy to audit. *)
type cell = {
  cm : Mutex.t;
  cc : Condition.t;
  mutable value : Sjson.t option;
}

let new_cell () = { cm = Mutex.create (); cc = Condition.create (); value = None }

(* [before] runs only for the winning fill, before the waiter can
   wake: accounting done there (stats, access log, flight events) is
   visible by the time the client sees the response. *)
let fill ?(before = fun () -> ()) (c : cell) (v : Sjson.t) : bool =
  Mutex.lock c.cm;
  let filled =
    match c.value with
    | None ->
        before ();
        c.value <- Some v;
        Condition.broadcast c.cc;
        true
    | Some _ -> false
  in
  Mutex.unlock c.cm;
  filled

let take (c : cell) : Sjson.t =
  Mutex.lock c.cm;
  let rec go () =
    match c.value with
    | Some v -> v
    | None ->
        Condition.wait c.cc c.cm;
        go ()
  in
  let v = go () in
  Mutex.unlock c.cm;
  v

(* ---------------- daemon state --------------------------------------- *)

type state = Running | Draining | Stopped

type job = {
  job_id : int;
  req_id : int;  (** the server request id, threaded end-to-end *)
  admitted_ns : int64;  (** queue-wait accounting *)
  req : Proto.request;
  cell : cell;
}

type t = {
  cfg : config;
  started_ns : int64;
  listen_fd : Unix.file_descr;
  req_ids : int Atomic.t;  (** server request ids, minted at admission *)
  (* bounded access log: a ring of structured per-request lines, under
     its own lock so connection threads never contend with admission *)
  access_m : Mutex.t;
  access : Sjson.t Support.Ring.t;
  (* admission queue + lifecycle, all under [qm] *)
  qm : Mutex.t;
  q_nonempty : Condition.t;
  queue : job Queue.t;
  mutable q_len : int;
  mutable inflight : int;
  inflight_jobs : (int, job) Hashtbl.t;  (** under [qm] too *)
  mutable state : state;
  (* connections *)
  conns_m : Mutex.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  conn_ids : int Atomic.t;
  job_ids : int Atomic.t;
  (* lifecycle *)
  stop_requested : bool Atomic.t;
  stopped_flag : bool Atomic.t;
  live_workers : int Atomic.t;
  mutable accept_thread : Thread.t option;
  (* journal + replay *)
  jr : Support.Journal.t option;
  replay_m : Mutex.t;
  replay : (string, string) Hashtbl.t;
  (* plain-atomic stats, so tests and the bench see counters even with
     the metrics registry disabled *)
  s_requests : int Atomic.t;
  s_ok : int Atomic.t;
  s_errors : int Atomic.t;
  s_shed : int Atomic.t;
  s_rejected_draining : int Atomic.t;
  s_bad_frames : int Atomic.t;
  s_retried : int Atomic.t;
  s_worker_deaths : int Atomic.t;
  s_replayed : int Atomic.t;
  s_timeouts : int Atomic.t;
}

let socket_path t = t.cfg.socket_path

let stats t =
  {
    requests = Atomic.get t.s_requests;
    ok = Atomic.get t.s_ok;
    errors = Atomic.get t.s_errors;
    shed = Atomic.get t.s_shed;
    rejected_draining = Atomic.get t.s_rejected_draining;
    bad_frames = Atomic.get t.s_bad_frames;
    retried = Atomic.get t.s_retried;
    worker_deaths = Atomic.get t.s_worker_deaths;
    replayed = Atomic.get t.s_replayed;
    timeouts = Atomic.get t.s_timeouts;
  }

let now_ns = Support.Deadline.now_ns

let uptime_ms t =
  Int64.to_int (Int64.div (Int64.sub (now_ns ()) t.started_ns) 1_000_000L)

(* ---------------- access log ----------------------------------------- *)

(* One structured line per answered request. [queue_ns] is the time
   spent waiting for a worker (0 for inline ops), [attempts] the
   handler attempts consumed (0 when no handler ran), [wall_ns] the
   admission-to-response wall time, [bytes] the rendered response
   size. *)
let access_line ~req_id ~(id : Sjson.t) ~op ~queue_ns ~attempts
    ~(resp : Sjson.t) ~wall_ns : Sjson.t =
  let num n = Sjson.Num (float_of_int n) in
  let num64 n = Sjson.Num (Int64.to_float n) in
  Sjson.Obj
    [
      ("req", num req_id);
      ("id", id);
      ("op", Sjson.Str op);
      ("queue_ns", num64 queue_ns);
      ("attempts", num attempts);
      ( "status",
        Sjson.Str (Option.value ~default:"?" (Sjson.str_member "status" resp))
      );
      ("code", Sjson.Str (Option.value ~default:"" (Sjson.str_member "code" resp)));
      ("wall_ns", num64 wall_ns);
      ("bytes", num (String.length (Sjson.to_string resp)));
    ]

let log_access t ~req_id ~id ~op ~queue_ns ~attempts ~resp ~wall_ns : unit =
  let line = access_line ~req_id ~id ~op ~queue_ns ~attempts ~resp ~wall_ns in
  Mutex.protect t.access_m (fun () -> Support.Ring.push t.access line)

let access_log t : Sjson.t list =
  Mutex.protect t.access_m (fun () -> Support.Ring.to_list t.access)

let access_dropped t : int =
  Mutex.protect t.access_m (fun () -> Support.Ring.dropped t.access)

(* ---------------- journal keys & replay ------------------------------ *)

(* File-path checks without an inline source are keyed by the file's
   content digest, so an edited file can never replay a stale
   response. Unreadable files fall back to path keying (the handler
   will produce the fatal outcome anyway). *)
let journal_key_of t (req : Proto.request) : string =
  let req =
    match req.cmd with
    | Proto.Check { file; source = None; keep_going } -> (
        match Digest.file file with
        | d ->
            {
              req with
              Proto.cmd =
                Proto.Check
                  { file; source = Some ("digest:" ^ Digest.to_hex d); keep_going };
            }
        | exception _ -> req)
    | _ -> req
  in
  Proto.journal_key req ~handler_domains:t.cfg.handler_domains

(* Replay serves only responses loaded from the journal at startup:
   same-run duplicates recompute (so latency numbers measure analysis,
   not a memo table) and re-journal under the same key, which is a
   last-wins no-op. *)
let replay_lookup t key : Sjson.t option =
  Mutex.lock t.replay_m;
  let payload = Hashtbl.find_opt t.replay key in
  Mutex.unlock t.replay_m;
  match payload with
  | None -> None
  | Some p -> (
      match Sjson.parse_result p with Ok v -> Some v | Error _ -> None)

let journal_store t ~req_id (req : Proto.request) (o : Proto.outcome) : unit =
  match t.jr with
  | None -> ()
  | Some j -> (
      let key = journal_key_of t req in
      (* the record is stamped with the request id that computed it;
         like [id], it is volatile and patched at replay time, so the
         journal key stays purely semantic *)
      let payload =
        Sjson.to_string (Proto.ok_response ~req:req_id ~id:Sjson.Null o)
      in
      (* the journal's own lock makes this domain-safe; the only racy
         window is an append straddling a timed-out drain's close, and
         that must degrade to "not journalled", not to a crash *)
      try Support.Journal.append j ~key payload with _ -> ())

(* ---------------- handlers on worker domains ------------------------- *)

let run_handler t (req : Proto.request) : Proto.outcome =
  match req.cmd with
  | Proto.Ping | Proto.Shutdown | Proto.Stats | Proto.Health
  | Proto.Metrics_snapshot _ | Proto.Flight_dump ->
      (* answered inline by the connection thread; never queued *)
      { Proto.out = ""; err = ""; exit_code = 0 }
  | Proto.Check { file; source; keep_going } ->
      Handlers.check ~file ?source ~keep_going ()
  | Proto.Detect -> Handlers.detect_eval ~domains:t.cfg.handler_domains ()
  | Proto.Study -> Handlers.study ~domains:t.cfg.handler_domains ()

let run_attempt t (req : Proto.request) ~req_id ~attempt
    ~(timed_out : bool ref) : Proto.outcome =
  (match t.cfg.before_handle with Some h -> h req ~attempt | None -> ());
  Support.Flight.record "req.attempt"
    ~fields:
      [
        ("req", string_of_int req_id);
        ("cmd", Proto.cmd_name req.Proto.cmd);
        ("attempt", string_of_int attempt);
      ];
  let with_dl f =
    (* an explicit per-request deadline always installs (0 forces an
       already-expired one — deterministic timeouts for tests and the
       bench); the config default applies only when positive *)
    match req.Proto.deadline_ms with
    | Some ms -> Support.Deadline.with_deadline_ms ms f
    | None ->
        if t.cfg.default_deadline_ms > 0 then
          Support.Deadline.with_deadline_ms t.cfg.default_deadline_ms f
        else f ()
  in
  let with_fuel f =
    match req.Proto.fuel with
    | Some n -> Support.Fuel.with_domain_budget n f
    | None -> f ()
  in
  (* spans are recorded here on the worker domain, never on the shared
     connection threads: every worker owns its trace track, so spans
     nest properly per track and `tracecat validate` stays green *)
  Support.Trace.with_span "server.request"
    ~args:
      [
        ("req", string_of_int req_id);
        ("cmd", Proto.cmd_name req.Proto.cmd);
        ("attempt", string_of_int attempt);
      ]
    (fun () ->
      with_dl (fun () ->
          with_fuel (fun () ->
              let o = run_handler t req in
              (* the token is minted inside the deadline scope: expired
                 here means the handler ran past its budget (and its
                 fixpoints degraded en route) *)
              let tok = Support.Deadline.token () in
              if Support.Deadline.expired tok then timed_out := true;
              o)))

let handle_job t (job : job) : unit =
  let req = job.req in
  let req_id = job.req_id in
  (* cross-request hygiene: whatever the previous request on this
     domain leaked — a deadline that escaped its scope via a killed
     worker, a fuel override — dies here, not in this request *)
  Support.Deadline.reset ();
  Support.Fuel.reset_domain ();
  let timed_out = ref false in
  let attempts = ref 0 in
  let t0 = now_ns () in
  let queue_ns = Int64.max 0L (Int64.sub t0 job.admitted_ns) in
  let policy =
    {
      Support.Retry.default with
      Support.Retry.max_attempts = max 1 t.cfg.retries;
      base_delay_ms = t.cfg.retry_base_ms;
    }
  in
  let result =
    Support.Retry.run policy ~key:(Proto.cmd_name req.Proto.cmd)
      (fun ~attempt ->
        attempts := attempt;
        match run_attempt t req ~req_id ~attempt ~timed_out with
        | o -> Ok o
        | exception Kill_worker -> raise Kill_worker
        | exception e -> Error (Printexc.to_string e))
  in
  if !attempts > 1 then begin
    ignore (Atomic.fetch_and_add t.s_retried (!attempts - 1));
    Support.Metrics.incr m_retries ~by:(float_of_int (!attempts - 1))
  end;
  if !timed_out then begin
    ignore (Atomic.fetch_and_add t.s_timeouts 1);
    Support.Flight.record "req.deadline_hit"
      ~fields:[ ("req", string_of_int req_id) ]
  end;
  let ms = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6 in
  Support.Metrics.observe m_request_ms ~labels:[ Proto.cmd_name req.Proto.cmd ] ms;
  let finish resp ~stat =
    let before () =
      ignore (Atomic.fetch_and_add stat 1);
      let wall_ns = Int64.max 0L (Int64.sub (now_ns ()) job.admitted_ns) in
      log_access t ~req_id ~id:req.Proto.id ~op:(Proto.cmd_name req.Proto.cmd)
        ~queue_ns ~attempts:!attempts ~resp ~wall_ns;
      Support.Flight.record "req.finish"
        ~fields:
          [
            ("req", string_of_int req_id);
            ( "status",
              Option.value ~default:"?" (Sjson.str_member "status" resp) );
            ("attempts", string_of_int !attempts);
          ]
    in
    ignore (fill ~before job.cell resp)
  in
  match result with
  | Ok outcome ->
      journal_store t ~req_id req outcome;
      finish (Proto.ok_response ~req:req_id ~id:req.Proto.id outcome)
        ~stat:t.s_ok
  | Error msgs ->
      let last = match List.rev msgs with m :: _ -> m | [] -> "failed" in
      finish
        (Proto.error_response ~req:req_id ~id:req.Proto.id
           ~code:Support.Diag.Entry_failed
           (Printf.sprintf "handler failed after %d attempts: %s" !attempts
              last))
        ~stat:t.s_errors

(* ---------------- workers -------------------------------------------- *)

let pop t : job option =
  Mutex.lock t.qm;
  let rec go () =
    if not (Queue.is_empty t.queue) then begin
      let job = Queue.pop t.queue in
      t.q_len <- t.q_len - 1;
      t.inflight <- t.inflight + 1;
      Hashtbl.replace t.inflight_jobs job.job_id job;
      Some job
    end
    else if t.state = Stopped then None
    else begin
      Condition.wait t.q_nonempty t.qm;
      go ()
    end
  in
  let r = go () in
  Mutex.unlock t.qm;
  r

let finish_inflight t (job : job) =
  Mutex.lock t.qm;
  t.inflight <- t.inflight - 1;
  Hashtbl.remove t.inflight_jobs job.job_id;
  Mutex.unlock t.qm

let lost_response (job : job) =
  Proto.error_response ~req:job.req_id ~id:job.req.Proto.id
    ~code:Support.Diag.Server_worker_lost "worker lost mid-request (respawned)"

let fill_lost t (job : job) =
  let resp = lost_response job in
  let before () =
    ignore (Atomic.fetch_and_add t.s_errors 1);
    let wall_ns = Int64.max 0L (Int64.sub (now_ns ()) job.admitted_ns) in
    log_access t ~req_id:job.req_id ~id:job.req.Proto.id
      ~op:(Proto.cmd_name job.req.Proto.cmd) ~queue_ns:0L ~attempts:0 ~resp
      ~wall_ns
  in
  ignore (fill ~before job.cell resp)

let rec worker_loop t =
  match pop t with
  | None -> ()
  | Some job ->
      Fun.protect
        (fun () -> handle_job t job)
        ~finally:(fun () ->
          (* backstop: if [handle_job] escaped (Kill_worker, or any
             bug), the caller still gets a structured W0503 instead of
             a hung connection. No-op when the cell is already filled. *)
          fill_lost t job;
          finish_inflight t job);
      worker_loop t

let rec spawn_worker t =
  let d = Domain.spawn (fun () -> worker_loop t) in
  Atomic.incr t.live_workers;
  let monitor () =
    let died = match Domain.join d with () -> false | exception _ -> true in
    Atomic.decr t.live_workers;
    if died then begin
      ignore (Atomic.fetch_and_add t.s_worker_deaths 1);
      Support.Metrics.incr m_worker_deaths;
      Support.Flight.record "worker.death";
      Mutex.lock t.qm;
      let respawn = t.state <> Stopped in
      Mutex.unlock t.qm;
      (* a worker spawned by a lost race with [stop] pops None and
         exits immediately, so over-respawning is harmless *)
      if respawn then spawn_worker t
    end
  in
  ignore (Thread.create monitor ())

(* ---------------- connection threads --------------------------------- *)

let incr_bad t =
  ignore (Atomic.fetch_and_add t.s_bad_frames 1);
  Support.Metrics.incr m_bad_frames;
  Support.Flight.record "frame.bad"

let send _t fd ~cmd (resp : Sjson.t) : unit =
  let status =
    Option.value ~default:"?" (Sjson.str_member "status" resp)
  in
  Support.Metrics.incr m_requests ~labels:[ cmd; status ];
  Frame.write_fd fd (Sjson.to_string resp)

(* ---------------- admin ops ------------------------------------------ *)

(* Stats / Health / Metrics_snapshot / Flight_dump are answered right
   here on the connection thread, like Ping: introspecting a saturated
   server must not queue behind the saturation it is trying to
   observe. *)

let num n = Sjson.Num (float_of_int n)

let state_name = function
  | Running -> "running"
  | Draining -> "draining"
  | Stopped -> "stopped"

let queue_snapshot t =
  Mutex.lock t.qm;
  let q_len = t.q_len and inflight = t.inflight and state = t.state in
  Mutex.unlock t.qm;
  (q_len, inflight, state)

let admin_head ~req ~(id : Sjson.t) rest : Sjson.t =
  Sjson.Obj
    ((("id", id) :: ("req", num req) :: ("status", Sjson.Str "ok") :: rest))

let stats_response t ~req ~id : Sjson.t =
  let s = stats t in
  let q_len, inflight, state = queue_snapshot t in
  admin_head ~req ~id
    [
      ( "stats",
        Sjson.Obj
          [
            ("state", Sjson.Str (state_name state));
            ("uptime_ms", num (uptime_ms t));
            ("requests", num s.requests);
            ("ok", num s.ok);
            ("errors", num s.errors);
            ("shed", num s.shed);
            ("rejected_draining", num s.rejected_draining);
            ("bad_frames", num s.bad_frames);
            ("retried", num s.retried);
            ("worker_deaths", num s.worker_deaths);
            ("replayed", num s.replayed);
            ("timeouts", num s.timeouts);
            ("queue_len", num q_len);
            ("queue_cap", num t.cfg.queue_cap);
            ("inflight", num inflight);
            ("workers", num t.cfg.workers);
            ("workers_live", num (Atomic.get t.live_workers));
            ("access_dropped", num (access_dropped t));
            ("flight_events", num (Support.Flight.events_total ()));
            ("flight_dropped", num (Support.Flight.dropped_total ()));
          ] );
    ]

let health_response t ~req ~id : Sjson.t =
  let q_len, inflight, state = queue_snapshot t in
  admin_head ~req ~id
    [
      ( "health",
        Sjson.Obj
          [
            ("state", Sjson.Str (state_name state));
            ("pid", num (Unix.getpid ()));
            ("proto", num Proto.version);
            ("uptime_ms", num (uptime_ms t));
            ("workers", num t.cfg.workers);
            ("workers_live", num (Atomic.get t.live_workers));
            ("queue_len", num q_len);
            ("queue_cap", num t.cfg.queue_cap);
            ("inflight", num inflight);
          ] );
    ]

let metrics_response ~req ~id ~format : Sjson.t =
  let enabled = ("metrics_enabled", Sjson.Bool (Support.Metrics.enabled ())) in
  match format with
  | "prometheus" ->
      admin_head ~req ~id
        [
          ("format", Sjson.Str "prometheus");
          enabled;
          ("text", Sjson.Str (Support.Metrics.export_prometheus ()));
        ]
  | _ ->
      let families =
        match Sjson.parse_result (Support.Metrics.export_json ()) with
        | Ok v -> Option.value ~default:(Sjson.List []) (Sjson.member "metrics" v)
        | Error _ -> Sjson.List []
      in
      admin_head ~req ~id
        [ ("format", Sjson.Str "json"); enabled; ("metrics", families) ]

let flight_response t ~req ~id : Sjson.t =
  admin_head ~req ~id
    [
      ("flight", Sjson.Str (Support.Flight.dump_jsonl ()));
      ("flight_events", num (Support.Flight.events_total ()));
      ("flight_dropped", num (Support.Flight.dropped_total ()));
      ("access_log", Sjson.List (access_log t));
      ("access_dropped", num (access_dropped t));
    ]

(* The enriched liveness probe: still outcome-shaped (status/exit/
   out/err, so pre-v2 clients keep working) plus the identity fields a
   health prober needs to spot a stale or restarted daemon. *)
let ping_response t ~req ~(id : Sjson.t) : Sjson.t =
  Sjson.Obj
    [
      ("id", id);
      ("req", num req);
      ("status", Sjson.Str "ok");
      ("exit", num 0);
      ("out", Sjson.Str "");
      ("err", Sjson.Str "");
      ("pid", num (Unix.getpid ()));
      ("uptime_ms", num (uptime_ms t));
      ("proto", num Proto.version);
      ("workers", num t.cfg.workers);
      ("workers_live", num (Atomic.get t.live_workers));
    ]

(* Admission: replay, reject (draining), shed (queue full), or queue
   and block on the cell. Exactly one response in every path. *)
let dispatch t fd (req : Proto.request) : unit =
  let cmd = Proto.cmd_name req.Proto.cmd in
  let req_id = Atomic.fetch_and_add t.req_ids 1 in
  let admitted = now_ns () in
  Support.Flight.record "req.admit"
    ~fields:[ ("req", string_of_int req_id); ("cmd", cmd) ];
  (* answer on this connection thread, count, and access-log; every
     path that never reaches a worker funnels through here *)
  let inline ?(stat = t.s_ok) resp =
    ignore (Atomic.fetch_and_add stat 1);
    (* log before sending: by the time the client holds the response,
       its access-log line is already queryable *)
    let wall_ns = Int64.max 0L (Int64.sub (now_ns ()) admitted) in
    log_access t ~req_id ~id:req.Proto.id ~op:cmd ~queue_ns:0L ~attempts:0
      ~resp ~wall_ns;
    send t fd ~cmd resp
  in
  match req.Proto.cmd with
  | Proto.Ping -> inline (ping_response t ~req:req_id ~id:req.Proto.id)
  | Proto.Stats -> inline (stats_response t ~req:req_id ~id:req.Proto.id)
  | Proto.Health -> inline (health_response t ~req:req_id ~id:req.Proto.id)
  | Proto.Metrics_snapshot { format } ->
      inline (metrics_response ~req:req_id ~id:req.Proto.id ~format)
  | Proto.Flight_dump -> inline (flight_response t ~req:req_id ~id:req.Proto.id)
  | Proto.Shutdown ->
      (* answer first: once the flag is set the drain may sever this
         very connection *)
      inline
        (Proto.ok_response ~req:req_id ~id:req.Proto.id
           { Proto.out = ""; err = ""; exit_code = 0 });
      Atomic.set t.stop_requested true
  | Proto.Check _ | Proto.Detect | Proto.Study -> (
      let key = journal_key_of t req in
      match replay_lookup t key with
      | Some resp ->
          ignore (Atomic.fetch_and_add t.s_replayed 1);
          Support.Metrics.incr m_replayed;
          Support.Flight.record "req.replay"
            ~fields:[ ("req", string_of_int req_id) ];
          (* patch the two volatile fields back in: the journalled
             bytes are id- and req-independent by construction *)
          inline
            (Sjson.set_member "req" (num req_id)
               (Sjson.set_member "id" req.Proto.id resp))
      | None ->
          Mutex.lock t.qm;
          if t.state <> Running then begin
            Mutex.unlock t.qm;
            Support.Flight.record "req.reject_draining"
              ~fields:[ ("req", string_of_int req_id) ];
            inline ~stat:t.s_rejected_draining
              (Proto.error_response ~req:req_id ~id:req.Proto.id
                 ~code:Support.Diag.Server_draining "server is draining")
          end
          else if t.q_len >= t.cfg.queue_cap then begin
            Mutex.unlock t.qm;
            Support.Metrics.incr m_shed;
            Support.Flight.record "req.shed"
              ~fields:[ ("req", string_of_int req_id); ("cmd", cmd) ];
            inline ~stat:t.s_shed
              (Proto.error_response ~req:req_id ~id:req.Proto.id
                 ~code:Support.Diag.Server_overload "rejected: overloaded")
          end
          else begin
            let job =
              {
                job_id = Atomic.fetch_and_add t.job_ids 1;
                req_id;
                admitted_ns = admitted;
                req;
                cell = new_cell ();
              }
            in
            Queue.push job t.queue;
            t.q_len <- t.q_len + 1;
            Condition.signal t.q_nonempty;
            Mutex.unlock t.qm;
            send t fd ~cmd (take job.cell)
          end)

(* Unparseable traffic still gets a request id: the E0502 response,
   its access-log line and the flight event all share it, so even
   garbage is traceable. *)
let answer_bad t fd ~(id : Sjson.t) msg : unit =
  let req_id = Atomic.fetch_and_add t.req_ids 1 in
  let t0 = now_ns () in
  let resp =
    Proto.error_response ~req:req_id ~id ~code:Support.Diag.Server_bad_frame msg
  in
  log_access t ~req_id ~id ~op:"?" ~queue_ns:0L ~attempts:0 ~resp
    ~wall_ns:(Int64.max 0L (Int64.sub (now_ns ()) t0));
  send t fd ~cmd:"?" resp

let conn_loop t fd =
  let src = Frame.of_fd fd in
  let rec loop () =
    match Frame.read ~max_len:t.cfg.max_frame src with
    | Error Frame.Closed -> ()
    | Error (Frame.Torn _) ->
        (* the stream is no longer framed: drop the connection (an
           error frame could land mid-frame on the peer) *)
        incr_bad t
    | Error (Frame.Oversized n) ->
        incr_bad t;
        let msg =
          Printf.sprintf "oversized frame: %d bytes (max %d)" n t.cfg.max_frame
        in
        if Frame.skim src n then begin
          (* payload discarded: the stream is framed again, so answer
             and keep the connection *)
          answer_bad t fd ~id:Sjson.Null msg;
          loop ()
        end
        else
          (* unskimmable length: answer, then drop the connection *)
          answer_bad t fd ~id:Sjson.Null msg
    | Ok payload -> (
        match Sjson.parse_result payload with
        | Error msg ->
            incr_bad t;
            answer_bad t fd ~id:Sjson.Null ("malformed request: " ^ msg);
            loop ()
        | Ok json -> (
            match Proto.parse_request json with
            | Error msg ->
                incr_bad t;
                let id =
                  Option.value ~default:Sjson.Null (Sjson.member "id" json)
                in
                answer_bad t fd ~id msg;
                loop ()
            | Ok req ->
                ignore (Atomic.fetch_and_add t.s_requests 1);
                dispatch t fd req;
                loop ()))
  in
  loop ()

let conn_main t conn_id fd =
  Fun.protect
    (fun () ->
      (* the robustness contract: nothing a peer does — including
         vanishing mid-write — escapes the connection thread *)
      try conn_loop t fd with
      | Frame.Peer_gone | Unix.Unix_error _ | Sys_error _ -> ()
      | _ -> ())
    ~finally:(fun () ->
      Mutex.lock t.conns_m;
      Hashtbl.remove t.conns conn_id;
      Mutex.unlock t.conns_m;
      try Unix.close fd with _ -> ())

let accept_loop t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        Mutex.lock t.qm;
        let running = t.state = Running in
        Mutex.unlock t.qm;
        if not running then
          (* the drain's wake-up connect, or a late client: refuse and
             stop accepting *)
          try Unix.close fd with _ -> ()
        else begin
          let conn_id = Atomic.fetch_and_add t.conn_ids 1 in
          Mutex.lock t.conns_m;
          Hashtbl.replace t.conns conn_id fd;
          Mutex.unlock t.conns_m;
          ignore (Thread.create (fun () -> conn_main t conn_id fd) ());
          go ()
        end
  in
  go ()

(* ---------------- lifecycle ------------------------------------------ *)

let request_shutdown t = Atomic.set t.stop_requested true
let shutdown_requested t = Atomic.get t.stop_requested
let stopped t = Atomic.get t.stopped_flag

let start (cfg : config) : t =
  (* a peer vanishing mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  if Sys.file_exists cfg.socket_path then begin
    (* stale-socket handling: refuse to hijack a live server, silently
       replace a dead one's leftover *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      try
        Unix.connect probe (Unix.ADDR_UNIX cfg.socket_path);
        true
      with _ -> false
    in
    (try Unix.close probe with _ -> ());
    if live then
      failwith (cfg.socket_path ^ ": another server is already listening");
    try Unix.unlink cfg.socket_path with _ -> ()
  end;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  let replay = Hashtbl.create 64 in
  Option.iter
    (fun path ->
      List.iter
        (fun (k, v) -> Hashtbl.replace replay k v)
        (Support.Journal.load path))
    cfg.journal;
  let jr = Option.map Support.Journal.open_append cfg.journal in
  let t =
    {
      cfg;
      started_ns = now_ns ();
      listen_fd;
      req_ids = Atomic.make 1;
      access_m = Mutex.create ();
      access = Support.Ring.create (max 16 cfg.access_log_cap);
      qm = Mutex.create ();
      q_nonempty = Condition.create ();
      queue = Queue.create ();
      q_len = 0;
      inflight = 0;
      inflight_jobs = Hashtbl.create 16;
      state = Running;
      conns_m = Mutex.create ();
      conns = Hashtbl.create 16;
      conn_ids = Atomic.make 0;
      job_ids = Atomic.make 0;
      stop_requested = Atomic.make false;
      stopped_flag = Atomic.make false;
      live_workers = Atomic.make 0;
      accept_thread = None;
      jr;
      replay_m = Mutex.create ();
      replay;
      s_requests = Atomic.make 0;
      s_ok = Atomic.make 0;
      s_errors = Atomic.make 0;
      s_shed = Atomic.make 0;
      s_rejected_draining = Atomic.make 0;
      s_bad_frames = Atomic.make 0;
      s_retried = Atomic.make 0;
      s_worker_deaths = Atomic.make 0;
      s_replayed = Atomic.make 0;
      s_timeouts = Atomic.make 0;
    }
  in
  Support.Flight.record "server.start"
    ~fields:
      [
        ("socket", cfg.socket_path);
        ("workers", string_of_int (max 1 cfg.workers));
      ];
  for _ = 1 to max 1 cfg.workers do
    spawn_worker t
  done;
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let stop (t : t) : unit =
  Mutex.lock t.qm;
  let proceed =
    match t.state with
    | Running ->
        t.state <- Draining;
        true
    | Draining | Stopped -> false
  in
  Mutex.unlock t.qm;
  if not proceed then
    (* someone else is already draining: wait for them to finish *)
    while not (stopped t) do
      Thread.delay 0.005
    done
  else begin
    Support.Flight.record "server.drain";
    (* 1. stop accepting. A blocked accept(2) is not reliably woken by
       closing the fd from another thread, so poke it with a dummy
       connection that the Draining check immediately refuses. *)
    (let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     (try Unix.connect s (Unix.ADDR_UNIX t.cfg.socket_path) with _ -> ());
     try Unix.close s with _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (try Unix.unlink t.cfg.socket_path with _ -> ());
    (* 2. give queued + in-flight work [drain_ms] to finish *)
    let deadline =
      Int64.add (now_ns ()) (Int64.of_int (t.cfg.drain_ms * 1_000_000))
    in
    let drained () =
      Mutex.lock t.qm;
      let r = t.q_len = 0 && t.inflight = 0 in
      Mutex.unlock t.qm;
      r
    in
    while (not (drained ())) && now_ns () < deadline do
      Thread.delay 0.005
    done;
    (* 3. stop the workers; sweep up what never started (W0504) *)
    Mutex.lock t.qm;
    t.state <- Stopped;
    let leftovers = List.of_seq (Queue.to_seq t.queue) in
    Queue.clear t.queue;
    t.q_len <- 0;
    Condition.broadcast t.q_nonempty;
    Mutex.unlock t.qm;
    List.iter
      (fun (job : job) ->
        let resp =
          Proto.error_response ~req:job.req_id ~id:job.req.Proto.id
            ~code:Support.Diag.Server_draining
            "server shut down before this request started"
        in
        let before () =
          ignore (Atomic.fetch_and_add t.s_rejected_draining 1);
          let wall_ns =
            Int64.max 0L (Int64.sub (now_ns ()) job.admitted_ns)
          in
          log_access t ~req_id:job.req_id ~id:job.req.Proto.id
            ~op:(Proto.cmd_name job.req.Proto.cmd) ~queue_ns:wall_ns
            ~attempts:0 ~resp ~wall_ns
        in
        ignore (fill ~before job.cell resp))
      leftovers;
    (* 4. bounded wait for worker domains to exit, then deadline-kill
       whatever overstayed: fill its cell (W0503) so the client is
       answered even though the worker is still grinding *)
    let wdeadline =
      Int64.add (now_ns ()) (Int64.of_int (t.cfg.drain_ms * 1_000_000))
    in
    while Atomic.get t.live_workers > 0 && now_ns () < wdeadline do
      Thread.delay 0.005
    done;
    let overstayed =
      Mutex.lock t.qm;
      let l = List.of_seq (Hashtbl.to_seq_values t.inflight_jobs) in
      Mutex.unlock t.qm;
      l
    in
    List.iter (fun (job : job) -> fill_lost t job) overstayed;
    (* 5. let connection threads flush their final responses, then
       sever the sockets (shutdown(2) wakes a blocked reader where a
       bare close would not) *)
    Thread.delay 0.02;
    Mutex.lock t.conns_m;
    Hashtbl.iter
      (fun _ fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
      t.conns;
    Mutex.unlock t.conns_m;
    (* 6. flush the journal *)
    (match t.jr with
    | Some j -> ( try Support.Journal.close j with _ -> ())
    | None -> ());
    Support.Flight.record "server.stop";
    Atomic.set t.stopped_flag true
  end

(* Block until a shutdown is requested (SIGTERM handler or a
   [shutdown] frame), then drain. Polling instead of a condition
   because a signal handler can only set a flag. *)
let serve (t : t) : unit =
  while not (shutdown_requested t) do
    Thread.delay 0.05
  done;
  stop t

let wait (t : t) : unit =
  while not (stopped t) do
    Thread.delay 0.01
  done
