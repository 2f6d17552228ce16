(** Classification of corpus entries: re-derives from each program what
    the paper derived from code inspection — the bug's effect category,
    whether the effect lies in unsafe code, whether that unsafe code is
    interior (inside a safe function), the synchronization primitive of
    a blocking bug, and the data-sharing mechanism of a non-blocking
    bug. Only the cause-side safety (where the patch was applied) and
    the fix strategy come from entry metadata, as survey data. *)

open Ir

type analysis = {
  entry : Corpus.entry;
  program : Mir.program;
  findings : Detectors.Report.finding list;
  effect_unsafe : bool;
  effect_interior : bool;
      (** effect inside an unsafe region of a non-unsafe fn *)
  primitive : Corpus.blocking_primitive;
  sharing : Corpus.sharing;
}

let expected_finding (entry : Corpus.entry) findings =
  List.find_opt
    (fun (f : Detectors.Report.finding) ->
      List.mem f.Detectors.Report.kind entry.Corpus.expected)
    findings

(* ---------------- effect location ---------------------------------- *)

let effect_location (program : Mir.program) entry findings =
  match expected_finding entry findings with
  | Some f ->
      let in_unsafe = Mir.in_unsafe_region program f.Detectors.Report.span in
      let fn_unsafe =
        match Mir.find_body program f.Detectors.Report.fn_id with
        | Some b -> b.Mir.fn_unsafe
        | None -> false
      in
      (in_unsafe, in_unsafe && not fn_unsafe)
  | None -> (false, false)

(* ---------------- blocking primitive ------------------------------- *)

let detect_primitive (program : Mir.program) : Corpus.blocking_primitive =
  let has = Hashtbl.create 8 in
  List.iter
    (fun (body : Mir.body) ->
      Array.iter
        (fun (blk : Mir.block) ->
          match blk.Mir.term with
          | Mir.Call (c, _) -> (
              match c.Mir.callee with
              | Mir.Builtin
                  (Mir.CondvarWait | Mir.CondvarNotifyOne | Mir.CondvarNotifyAll)
                ->
                  Hashtbl.replace has `Condvar ()
              | Mir.Builtin Mir.OnceCallOnce -> Hashtbl.replace has `Once ()
              | Mir.Builtin
                  (Mir.ChannelRecv | Mir.ChannelSend | Mir.ChannelTryRecv) ->
                  Hashtbl.replace has `Channel ()
              | Mir.Builtin b when Mir.is_lock_acquire b || Mir.is_try_lock b ->
                  Hashtbl.replace has `Mutex ()
              | _ -> ())
          | _ -> ())
        body.Mir.blocks)
    (Mir.body_list program);
  if Hashtbl.mem has `Condvar then Corpus.Condvar
  else if Hashtbl.mem has `Once then Corpus.Once
  else if Hashtbl.mem has `Channel then Corpus.Channel
  else if Hashtbl.mem has `Mutex then Corpus.Mutex_rwlock
  else Corpus.Other_blk

(* ---------------- sharing mechanism -------------------------------- *)

let detect_sharing (program : Mir.program) : Corpus.sharing =
  let env = program.Mir.prog_env in
  let has_sync_impl = env.Sema.Env.sync_impls <> [] in
  let bodies = Mir.body_list program in
  let mut_static_access =
    List.exists
      (fun (body : Mir.body) ->
        Array.exists
          (fun (info : Mir.local_info) ->
            match info.Mir.l_name with
            | Some n when String.length n > 7 && String.sub n 0 7 = "static:"
              -> (
                match
                  Sema.Env.find_static env
                    (String.sub n 7 (String.length n - 7))
                with
                | Some sd -> sd.Syntax.Ast.st_mut
                | None -> false)
            | _ -> false)
          body.Mir.locals)
      bodies
  in
  let closure_captures_ptr =
    List.exists
      (fun (body : Mir.body) ->
        body.Mir.captures <> []
        && Array.exists
             (fun (info : Mir.local_info) -> Sema.Ty.is_raw_ptr info.Mir.l_ty)
             (Array.sub body.Mir.locals 0 body.Mir.arg_count))
      bodies
  in
  let scan pred =
    List.exists
      (fun (body : Mir.body) ->
        Array.exists
          (fun (blk : Mir.block) ->
            match blk.Mir.term with
            | Mir.Call (c, _) -> pred c.Mir.callee
            | _ -> false)
          body.Mir.blocks)
      bodies
  in
  let has_channel =
    scan (function
      | Mir.Builtin (Mir.ChannelSend | Mir.ChannelRecv | Mir.ChannelNew) -> true
      | _ -> false)
  in
  let has_atomic =
    scan (function
      | Mir.Builtin
          (Mir.AtomicLoad | Mir.AtomicStore | Mir.AtomicCas | Mir.AtomicFetch
          | Mir.AtomicSwap) ->
          true
      | _ -> false)
  in
  let has_lock = scan (fun c -> match c with Mir.Builtin b -> Mir.is_lock_acquire b | _ -> false) in
  let has_os_call =
    scan (function
      | Mir.Builtin (Mir.Extern name) ->
          String.length name > 0 && name.[String.length name - 1] <> '!'
      | _ -> false)
  in
  if has_sync_impl then Corpus.Sh_sync
  else if mut_static_access then Corpus.Sh_global
  else if closure_captures_ptr then Corpus.Sh_pointer
  else if has_channel then Corpus.Sh_msg
  else if has_atomic then Corpus.Sh_atomic
  else if has_lock then Corpus.Sh_mutex
  else if has_os_call then Corpus.Sh_os
  else Corpus.Sh_os

(* ---------------- entry analysis ----------------------------------- *)

let analysis_of_ctx (entry : Corpus.entry) ctx : analysis =
  let program = Analysis.Cache.program ctx in
  let findings = Detectors.All.bugs_ctx ctx in
  let effect_unsafe, effect_interior =
    effect_location program entry findings
  in
  {
    entry;
    program;
    findings;
    effect_unsafe;
    effect_interior;
    primitive = detect_primitive program;
    sharing = detect_sharing program;
  }

let analyze_entry (entry : Corpus.entry) : analysis =
  analysis_of_ctx entry
    (Analysis.Cache.load_ctx ~file:(entry.Corpus.id ^ ".rs")
       entry.Corpus.source)

(* ---------------- fault-tolerant driver ----------------------------- *)

(** Per-entry outcome of the fault-tolerant pipeline. *)
type outcome =
  | Analyzed of analysis  (** clean: no diagnostics *)
  | Degraded of analysis * Support.Diag.t list
      (** the entry was analyzed, but the frontend recovered from
          malformed regions and/or an analysis ran out of fuel or
          wall-clock; the findings cover only the healthy parts *)
  | Failed of string  (** nothing usable; printable cause *)
  | Quarantined of { attempts : int; errors : string list }
      (** the supervisor exhausted the retry budget on this entry
          (W0404); errors oldest-first, one per attempt *)
  | Skipped of string
      (** the whole-run deadline expired before this entry was
          analyzed (W0405) *)

(** Analyze one entry without ever raising: frontend errors degrade,
    anything escaping the rest of the pipeline fails the entry. Runs
    under the process default wall-clock budget, so [--deadline-ms]
    bounds even the unsupervised sweep. *)
let analyze_entry_result_plain (entry : Corpus.entry) : outcome =
  Support.Deadline.with_default_budget (fun () ->
      match
        Analysis.Cache.load_ctx_recovering ~file:(entry.Corpus.id ^ ".rs")
          entry.Corpus.source
      with
      | Error e -> Failed (Printexc.to_string e)
      | Ok ctx -> (
          match analysis_of_ctx entry ctx with
          | exception e -> Failed (Printexc.to_string e)
          | a -> (
              (* read the context diagnostics only now: fuel exhaustion
                 during the detector runs lands there too *)
              match Analysis.Cache.diags ctx with
              | [] -> Analyzed a
              | ds -> Degraded (a, ds))))

(* ---------------- per-entry provenance ------------------------------ *)

(** How one entry's outcome came to be: cache provenance, wall time,
    degradation count and the analysis work it triggered (per-domain
    metric deltas — entries run wholly on one domain, so concurrent
    entries do not bleed into each other's attribution). Captured only
    while tracing or metrics are enabled; free otherwise. *)
type provenance = {
  prov_id : string;
  prov_cache : string;  (** ["hit" | "miss" | "replayed"] *)
  prov_outcome : string;
      (** ["analyzed" | "degraded" | "failed" | "quarantined" | "skipped"] *)
  prov_wall_ns : int64;
      (** wall time of the whole entry (same clock as [Support.Trace]) *)
  prov_diags : int;  (** degradation diagnostics attached *)
  prov_counters : (string * float) list;
      (** nonzero per-analysis work deltas, e.g. [("pointsto_passes", 17.)] *)
}

let prov_tbl : (string, provenance) Hashtbl.t = Hashtbl.create 64
let prov_lock = Mutex.create ()

let record_prov p =
  Mutex.lock prov_lock;
  Hashtbl.replace prov_tbl p.prov_id p;
  Mutex.unlock prov_lock

let clear_provenance () =
  Mutex.lock prov_lock;
  Hashtbl.reset prov_tbl;
  Mutex.unlock prov_lock

(** Captured provenance records, sorted by entry id. *)
let provenances () : provenance list =
  Mutex.lock prov_lock;
  let ps = Hashtbl.fold (fun _ p acc -> p :: acc) prov_tbl [] in
  Mutex.unlock prov_lock;
  List.sort (fun a b -> String.compare a.prov_id b.prov_id) ps

(* Counter families whose per-domain deltas attribute analysis work to
   an entry. [Support.Metrics.counter] dedups by name, so these are the
   same families the analysis modules record into. *)
let tracked_counters =
  let c ?labels name =
    Support.Metrics.counter ?labels ~help:"(see registering module)" name
  in
  let a = c ~labels:[ "analysis" ] "rustudy_analysis_runs_total" in
  let sc = c ~labels:[ "analysis" ] "rustudy_summary_computed_total" in
  [
    ("pointsto_runs", c "rustudy_pointsto_runs_total", None);
    ("pointsto_passes", c "rustudy_pointsto_passes_total", None);
    ("dataflow_runs", c "rustudy_dataflow_runs_total", None);
    ("dataflow_transfers", c "rustudy_dataflow_transfers_total", None);
    ("alias_runs", a, Some [ "alias" ]);
    ("liveness_runs", a, Some [ "liveness" ]);
    ("callgraph_runs", a, Some [ "callgraph" ]);
    ("summary_dlock", sc, Some [ "double_lock" ]);
    ("summary_uaf", sc, Some [ "uaf" ]);
  ]

let sample_domain_counters () =
  List.map
    (fun (name, c, labels) ->
      (name, Support.Metrics.domain_counter_value ?labels c))
    tracked_counters

let outcome_tag = function
  | Analyzed _ -> "analyzed"
  | Degraded _ -> "degraded"
  | Failed _ -> "failed"
  | Quarantined _ -> "quarantined"
  | Skipped _ -> "skipped"

let outcome_diag_count = function
  | Degraded (_, ds) -> List.length ds
  | Analyzed _ | Failed _ | Quarantined _ | Skipped _ -> 0

let observability_on () =
  Support.Trace.enabled () || Support.Metrics.enabled ()

(** [analyze_entry_result_plain] plus observability: wraps the entry in
    an [entry.analyze] span and captures a {!provenance} record. The
    plain path runs unchanged when both tracing and metrics are off. *)
let analyze_entry_result (entry : Corpus.entry) : outcome =
  if not (observability_on ()) then analyze_entry_result_plain entry
  else begin
    let cache =
      if
        Analysis.Cache.mem_program ~file:(entry.Corpus.id ^ ".rs")
          entry.Corpus.source
      then "hit"
      else "miss"
    in
    let before = sample_domain_counters () in
    let t0 = Support.Trace.now_ns () in
    let o =
      Support.Trace.with_span ~cat:"entry"
        ~args:[ ("id", entry.Corpus.id) ]
        "entry.analyze"
        (fun () -> analyze_entry_result_plain entry)
    in
    let wall = Int64.sub (Support.Trace.now_ns ()) t0 in
    let counters =
      List.map2
        (fun (name, b0) (_, b1) -> (name, b1 -. b0))
        before
        (sample_domain_counters ())
      |> List.filter (fun (_, d) -> d <> 0.)
    in
    record_prov
      {
        prov_id = entry.Corpus.id;
        prov_cache = cache;
        prov_outcome = outcome_tag o;
        prov_wall_ns = wall;
        prov_diags = outcome_diag_count o;
        prov_counters = counters;
      };
    o
  end

(** Deterministic text block of every captured provenance record (the
    study report appends it when observability is on); empty string
    when nothing was captured. *)
let provenance_block () : string =
  match provenances () with
  | [] -> ""
  | ps ->
      let b = Buffer.create 1024 in
      Buffer.add_string b "== provenance (per entry) ==\n";
      List.iter
        (fun p ->
          Buffer.add_string b
            (Printf.sprintf "%s: outcome=%s cache=%s wall_ms=%.3f diags=%d%s\n"
               p.prov_id p.prov_outcome p.prov_cache
               (Int64.to_float p.prov_wall_ns /. 1e6)
               p.prov_diags
               (match p.prov_counters with
               | [] -> ""
               | cs ->
                   " "
                   ^ String.concat " "
                       (List.map
                          (fun (n, v) -> Printf.sprintf "%s=%.0f" n v)
                          cs))))
        ps;
      Buffer.contents b

let outcome_analysis = function
  | Analyzed a | Degraded (a, _) -> Some a
  | Failed _ | Quarantined _ | Skipped _ -> None

(** Fault-tolerant corpus sweep: one outcome per entry, in input order.
    A crashing worker is confined to its own slot ([Failed]); every
    other entry is still analyzed. Never raises. *)
let analyze_entries ?domains (entries : Corpus.entry list) :
    (Corpus.entry * outcome) list =
  Support.Domain_pool.try_map ?domains ~f:analyze_entry_result entries
  |> List.map2
       (fun e r ->
         ( e,
           match r with
           | Ok o -> o
           | Error exn -> Failed (Printexc.to_string exn) ))
       entries

let analyze_all_results ?domains () : (Corpus.entry * outcome) list =
  analyze_entries ?domains Corpus.all_bugs

let n_degraded results =
  List.length
    (List.filter
       (fun (_, o) ->
         match o with
         | Degraded _ | Failed _ | Quarantined _ | Skipped _ -> true
         | Analyzed _ -> false)
       results)

(** Deterministic one-line-per-entry summary of the degraded, failed,
    quarantined and skipped entries; empty string when every entry was
    clean. *)
let degraded_summary (results : (Corpus.entry * outcome) list) : string =
  let lines =
    List.filter_map
      (fun ((e : Corpus.entry), o) ->
        match o with
        | Analyzed _ -> None
        | Degraded (_, ds) ->
            Some
              (Printf.sprintf "degraded %s: %d diagnostic(s)%s"
                 e.Corpus.id (List.length ds)
                 (match ds with
                 | d :: _ -> "; first: " ^ Support.Diag.to_string d
                 | [] -> ""))
        | Failed msg -> Some (Printf.sprintf "failed %s: %s" e.Corpus.id msg)
        | Quarantined { attempts; errors } ->
            Some
              (Printf.sprintf "quarantined %s [W0404]: %d failed attempt(s)%s"
                 e.Corpus.id attempts
                 (match errors with
                 | m :: _ -> "; first: " ^ m
                 | [] -> ""))
        | Skipped reason ->
            Some (Printf.sprintf "skipped %s [W0405]: %s" e.Corpus.id reason))
      results
  in
  if lines = [] then "" else String.concat "\n" lines ^ "\n"

(** Memory-bug effect category: derived from which detector confirmed
    the entry (falling back to the metadata category only if no
    detector fired). *)
let mem_effect (a : analysis) : Corpus.mem_effect option =
  match a.entry.Corpus.class_ with
  | Corpus.Mem { effect; _ } -> (
      match expected_finding a.entry a.findings with
      | Some f -> (
          match f.Detectors.Report.kind with
          | Detectors.Report.Buffer_overflow -> Some Corpus.Buffer
          | Detectors.Report.Null_deref -> Some Corpus.Null
          | Detectors.Report.Uninit_read -> Some Corpus.Uninitialized
          | Detectors.Report.Invalid_free -> Some Corpus.Invalid
          | Detectors.Report.Use_after_free -> Some Corpus.UAF
          | Detectors.Report.Double_free -> Some Corpus.DoubleFree
          | _ -> Some effect)
      | None -> Some effect)
  | _ -> None

(** The paper's error-propagation row for a memory bug. *)
type propagation = Safe_safe | Unsafe_unsafe | Safe_unsafe | Unsafe_safe

let propagation_name = function
  | Safe_safe -> "safe"
  | Unsafe_unsafe -> "unsafe"
  | Safe_unsafe -> "safe -> unsafe"
  | Unsafe_safe -> "unsafe -> safe"

let propagation_of (a : analysis) : propagation option =
  match a.entry.Corpus.class_ with
  | Corpus.Mem { cause_unsafe; _ } -> (
      match (cause_unsafe, a.effect_unsafe) with
      | false, false -> Some Safe_safe
      | true, true -> Some Unsafe_unsafe
      | false, true -> Some Safe_unsafe
      | true, false -> Some Unsafe_safe)
  | _ -> None

(** Analyze the whole corpus once (memoised by the caller as needed).
    [domains] sizes the worker pool; [1] forces the sequential path.
    Results come back in corpus order either way. *)
let analyze_all ?domains () : analysis list =
  Support.Domain_pool.map ?domains ~f:analyze_entry Corpus.all_bugs

(* ---------------- checkpoint payload codec -------------------------- *)

(** Journal key of an entry: id plus source digest, mirroring the
    program cache's [(file, config)] keying — a resumed run only
    replays a record if the entry's source is byte-identical to what
    produced it. *)
let entry_key (entry : Corpus.entry) : string =
  entry.Corpus.id ^ "@" ^ Digest.to_hex (Digest.string entry.Corpus.source)

let all_kinds : Detectors.Report.kind list =
  [
    Detectors.Report.Use_after_free;
    Detectors.Report.Double_free;
    Detectors.Report.Invalid_free;
    Detectors.Report.Uninit_read;
    Detectors.Report.Null_deref;
    Detectors.Report.Buffer_overflow;
    Detectors.Report.Double_lock;
    Detectors.Report.Conflicting_lock_order;
    Detectors.Report.Condvar_lost_wakeup;
    Detectors.Report.Channel_deadlock;
    Detectors.Report.Sync_unsync_write;
    Detectors.Report.Atomicity_violation;
    Detectors.Report.Use_after_move;
    Detectors.Report.Borrow_conflict;
  ]

let kind_of_tag s =
  List.find_opt
    (fun k -> String.equal (Detectors.Report.kind_to_string k) s)
    all_kinds

let primitive_tag = function
  | Corpus.Mutex_rwlock -> "M"
  | Corpus.Condvar -> "C"
  | Corpus.Channel -> "N"
  | Corpus.Once -> "O"
  | Corpus.Other_blk -> "X"

let primitive_of_tag = function
  | "M" -> Some Corpus.Mutex_rwlock
  | "C" -> Some Corpus.Condvar
  | "N" -> Some Corpus.Channel
  | "O" -> Some Corpus.Once
  | "X" -> Some Corpus.Other_blk
  | _ -> None

let sharing_tag = function
  | Corpus.Sh_global -> "G"
  | Corpus.Sh_pointer -> "P"
  | Corpus.Sh_sync -> "Y"
  | Corpus.Sh_os -> "O"
  | Corpus.Sh_atomic -> "A"
  | Corpus.Sh_mutex -> "M"
  | Corpus.Sh_msg -> "S"

let sharing_of_tag = function
  | "G" -> Some Corpus.Sh_global
  | "P" -> Some Corpus.Sh_pointer
  | "Y" -> Some Corpus.Sh_sync
  | "O" -> Some Corpus.Sh_os
  | "A" -> Some Corpus.Sh_atomic
  | "M" -> Some Corpus.Sh_mutex
  | "S" -> Some Corpus.Sh_msg
  | _ -> None

let span_fields (s : Support.Span.t) =
  let pos (p : Support.Span.pos) =
    [
      string_of_int p.Support.Span.line;
      string_of_int p.Support.Span.col;
      string_of_int p.Support.Span.offset;
    ]
  in
  (Support.Span.file s :: pos (Support.Span.start_pos s))
  @ pos (Support.Span.end_pos s)

let take_span = function
  | file :: sl :: sc :: so :: el :: ec :: eo :: rest ->
      Some
        ( Support.Span.v ~file ~lo:(int_of_string so)
            ~lo_line:(int_of_string sl) ~lo_col:(int_of_string sc)
            ~hi:(int_of_string eo) ~hi_line:(int_of_string el)
            ~hi_col:(int_of_string ec),
          rest )
  | _ -> None

(** One-record serialization of an outcome: lines separated by ['\n'],
    tab-separated fields each escaped with {!Support.Journal.escape}.
    The first line's tag names the constructor (A/D/F/Q/S); [f] lines
    carry findings, [d] lines diagnostics, [e] lines quarantine
    errors. The [analysis] record's program is not serialized — resume
    re-lowers the (cached) source instead. *)
let payload_of_outcome (o : outcome) : string =
  let esc = Support.Journal.escape in
  let line fields = String.concat "\t" (List.map esc fields) in
  let bool_tag b = if b then "1" else "0" in
  let finding_line (f : Detectors.Report.finding) =
    line
      ([ "f"; Detectors.Report.kind_to_string f.Detectors.Report.kind;
         f.Detectors.Report.fn_id ]
      @ span_fields f.Detectors.Report.span
      @ span_fields f.Detectors.Report.related_span
      @ [
          (match f.Detectors.Report.confidence with
          | Detectors.Report.High -> "H"
          | Detectors.Report.Medium -> "M");
          f.Detectors.Report.message;
        ])
  in
  let diag_line (d : Support.Diag.t) =
    line
      ([ "d"; Support.Diag.code_name d.Support.Diag.code;
         (match d.Support.Diag.severity with
         | Support.Diag.Error -> "E"
         | Support.Diag.Warning -> "W"
         | Support.Diag.Note -> "N") ]
      @ span_fields d.Support.Diag.span
      @ [ d.Support.Diag.message ])
  in
  let header tag (a : analysis) =
    line
      [
        tag;
        bool_tag a.effect_unsafe;
        bool_tag a.effect_interior;
        primitive_tag a.primitive;
        sharing_tag a.sharing;
      ]
  in
  match o with
  | Analyzed a ->
      String.concat "\n" (header "A" a :: List.map finding_line a.findings)
  | Degraded (a, ds) ->
      String.concat "\n"
        ((header "D" a :: List.map finding_line a.findings)
        @ List.map diag_line ds)
  | Failed msg -> line [ "F"; msg ]
  | Quarantined { attempts; errors } ->
      String.concat "\n"
        (line [ "Q"; string_of_int attempts ]
        :: List.map (fun e -> line [ "e"; e ]) errors)
  | Skipped reason -> line [ "S"; reason ]

(** Inverse of {!payload_of_outcome}. [None] on any malformed payload
    (the caller then just re-analyzes the entry). Reconstructing an
    [Analyzed]/[Degraded] outcome re-lowers the entry's source through
    the program cache — parsing only; the journalled findings and
    diagnostics are used verbatim, nothing is re-analyzed. *)
let outcome_of_payload (entry : Corpus.entry) (payload : string) :
    outcome option =
  let ( let* ) = Option.bind in
  try
    let fields l =
      List.map Support.Journal.unescape (String.split_on_char '\t' l)
    in
    let lines = List.map fields (String.split_on_char '\n' payload) in
    let parse_finding rest =
      match rest with
      | kind :: fn_id :: rest ->
          let* kind = kind_of_tag kind in
          let* span, rest = take_span rest in
          let* related_span, rest = take_span rest in
          let* confidence =
            match rest with
            | [ "H"; _ ] -> Some Detectors.Report.High
            | [ "M"; _ ] -> Some Detectors.Report.Medium
            | _ -> None
          in
          let* message =
            match rest with [ _; m ] -> Some m | _ -> None
          in
          Some
            {
              Detectors.Report.kind;
              fn_id;
              span;
              related_span;
              message;
              confidence;
            }
      | _ -> None
    in
    let parse_diag rest =
      match rest with
      | code :: sev :: rest ->
          let* code = Support.Diag.code_of_name code in
          let* severity =
            match sev with
            | "E" -> Some Support.Diag.Error
            | "W" -> Some Support.Diag.Warning
            | "N" -> Some Support.Diag.Note
            | _ -> None
          in
          let* span, rest = take_span rest in
          let* message =
            match rest with [ m ] -> Some m | _ -> None
          in
          Some { Support.Diag.code; severity; span; message }
      | _ -> None
    in
    let rec parse_body findings diags = function
      | [] -> Some (List.rev findings, List.rev diags)
      | ("f" :: rest) :: tl ->
          let* f = parse_finding rest in
          parse_body (f :: findings) diags tl
      | ("d" :: rest) :: tl ->
          let* d = parse_diag rest in
          parse_body findings (d :: diags) tl
      | _ -> None
    in
    let rebuilt_analysis ~effect_unsafe ~effect_interior ~primitive ~sharing
        ~findings =
      match
        Analysis.Cache.load_ctx_recovering ~file:(entry.Corpus.id ^ ".rs")
          entry.Corpus.source
      with
      | Error _ -> None
      | Ok ctx ->
          Some
            {
              entry;
              program = Analysis.Cache.program ctx;
              findings;
              effect_unsafe;
              effect_interior;
              primitive;
              sharing;
            }
    in
    let parse_bool = function
      | "1" -> Some true
      | "0" -> Some false
      | _ -> None
    in
    match lines with
    | ([ tag; eu; ei; prim; shar ] :: body) when tag = "A" || tag = "D" ->
        let* effect_unsafe = parse_bool eu in
        let* effect_interior = parse_bool ei in
        let* primitive = primitive_of_tag prim in
        let* sharing = sharing_of_tag shar in
        let* findings, diags = parse_body [] [] body in
        let* a =
          rebuilt_analysis ~effect_unsafe ~effect_interior ~primitive ~sharing
            ~findings
        in
        if tag = "A" then if diags = [] then Some (Analyzed a) else None
        else Some (Degraded (a, diags))
    | [ [ "F"; msg ] ] -> Some (Failed msg)
    | [ "Q"; attempts ] :: body ->
        let attempts = int_of_string attempts in
        let* errors =
          List.fold_left
            (fun acc l ->
              match (acc, l) with
              | Some acc, [ "e"; m ] -> Some (m :: acc)
              | _ -> None)
            (Some []) body
        in
        Some (Quarantined { attempts; errors = List.rev errors })
    | [ [ "S"; reason ] ] -> Some (Skipped reason)
    | _ -> None
  with _ -> None

(* ---------------- supervised sweep ---------------------------------- *)

(** Final outcome of a supervisor verdict. A success on a retry gains
    a W0403 diagnostic (the entry is then [Degraded] — the report and
    exit ladder must show it was not analyzed cleanly). *)
let outcome_of_verdict (entry : Corpus.entry)
    (v : outcome Support.Supervisor.verdict) : outcome =
  match v with
  | Support.Supervisor.Done (o, attempt) ->
      if attempt <= 1 then o
      else begin
        let d =
          Support.Diag.warning ~code:Support.Diag.Entry_retried
            "entry %s succeeded on attempt %d after %d failed attempt(s)"
            entry.Corpus.id attempt (attempt - 1)
        in
        match o with
        | Analyzed a -> Degraded (a, [ d ])
        | Degraded (a, ds) -> Degraded (a, ds @ [ d ])
        | (Failed _ | Quarantined _ | Skipped _) as o -> o
      end
  | Support.Supervisor.Quarantined { attempts; errors } ->
      Quarantined { attempts; errors }
  | Support.Supervisor.Skipped reason -> Skipped reason

(* A deadline-degraded outcome is reported to the supervisor as a
   timed-out failure so it is retried (with the stale partial context
   purged first) and eventually quarantined; fuel exhaustion and parse
   recovery are deterministic, so those degradations are final. *)
let attempt_entry ~attempt:_ ~key:_ (entry : Corpus.entry) :
    (outcome, Support.Supervisor.failure) result =
  (* a failed attempt purges its (possibly partial or deadline-cut)
     cached context, so neither the retry nor any later deadline-free
     run can be served a poisoned cache hit *)
  let fail f =
    Analysis.Cache.remove_program ~file:(entry.Corpus.id ^ ".rs") ();
    Error f
  in
  match analyze_entry_result entry with
  | Failed msg -> fail { Support.Supervisor.f_msg = msg; f_timeout = false }
  | Degraded (_, ds) as o ->
      if
        List.exists
          (fun (d : Support.Diag.t) ->
            d.Support.Diag.code = Support.Diag.Analysis_deadline)
          ds
      then
        fail
          {
            Support.Supervisor.f_msg =
              "per-entry wall-clock deadline exceeded (W0402)";
            f_timeout = true;
          }
      else Ok o
  | o -> Ok o

(** Deadline-governed, self-healing, checkpointed corpus sweep.

    [resume] replays every journalled record whose key still matches
    an entry (same id and source) instead of re-analyzing it;
    [checkpoint] appends one fsync'd record per completed entry, so a
    killed run resumes where it stopped. When the two paths differ the
    replayed records are re-appended to the new checkpoint, keeping it
    self-contained. Returns the per-entry outcomes in input order, the
    supervisor's counters, and how many entries were replayed. *)
let analyze_entries_supervised ?(config = Support.Supervisor.default_config)
    ?checkpoint ?resume (entries : Corpus.entry list) :
    (Corpus.entry * outcome) list * Support.Supervisor.stats * int =
  let replayed : (string, outcome) Hashtbl.t = Hashtbl.create 16 in
  let replayed_raw = ref [] in
  (match resume with
  | None -> ()
  | Some path ->
      let keyed = Hashtbl.create 64 in
      List.iter
        (fun (k, p) -> Hashtbl.replace keyed k p)
        (Support.Journal.load path);
      List.iter
        (fun (e : Corpus.entry) ->
          let k = entry_key e in
          if not (Hashtbl.mem replayed k) then
            match Hashtbl.find_opt keyed k with
            | Some p -> (
                match outcome_of_payload e p with
                | Some o ->
                    Hashtbl.replace replayed k o;
                    replayed_raw := (k, p) :: !replayed_raw
                | None -> ())
            | None -> ())
        entries);
  (* the journal opens after the resume load: when both point at the
     same file, appending must not race the read *)
  let journal = Option.map Support.Journal.open_append checkpoint in
  (match (journal, checkpoint, resume) with
  | Some j, Some cp, Some rp when cp <> rp ->
      List.iter
        (fun (k, p) -> Support.Journal.append j ~key:k p)
        (List.rev !replayed_raw)
  | _ -> ());
  let pending =
    List.filter (fun e -> not (Hashtbl.mem replayed (entry_key e))) entries
  in
  let items = List.map (fun e -> (entry_key e, e)) pending in
  let entry_of_key = Hashtbl.create 64 in
  List.iter (fun (k, e) -> Hashtbl.replace entry_of_key k e) items;
  let on_done ~key v =
    match (journal, Hashtbl.find_opt entry_of_key key) with
    | Some j, Some e ->
        Support.Journal.append j ~key
          (payload_of_outcome (outcome_of_verdict e v))
    | _ -> ()
  in
  let verdicts, stats =
    Support.Supervisor.run ~config ~on_done ~f:attempt_entry items
  in
  (match journal with Some j -> Support.Journal.close j | None -> ());
  let vtbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace vtbl k v) verdicts;
  let results =
    List.map
      (fun e ->
        let k = entry_key e in
        match Hashtbl.find_opt replayed k with
        | Some o ->
            (* a replayed entry never ran this process: its provenance
               is the checkpoint itself, with no analysis work *)
            if observability_on () then
              record_prov
                {
                  prov_id = e.Corpus.id;
                  prov_cache = "replayed";
                  prov_outcome = outcome_tag o;
                  prov_wall_ns = 0L;
                  prov_diags = outcome_diag_count o;
                  prov_counters = [];
                };
            (e, o)
        | None -> (
            match Hashtbl.find_opt vtbl k with
            | Some v -> (e, outcome_of_verdict e v)
            | None -> (e, Failed "no verdict (supervisor internal error)")))
      entries
  in
  (results, stats, Hashtbl.length replayed)
