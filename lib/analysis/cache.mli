(** Shared analysis context (and process-wide program cache).

    Every detector run over the same program recomputed alias
    resolution, points-to, liveness and the call graph from scratch; a
    [Cache.t] computes each of them at most once per body (once per
    program for the call graph) and shares the results. Thread one
    context through a batch of detectors ([Detectors.All.bugs_ctx]) to
    get the sharing; the legacy [run : program -> findings] entry
    points create a private context per call.

    Contexts are domain-safe: lookups are mutex-guarded and computation
    runs outside the lock (racing misses both compute; the first
    insertion wins). *)

open Ir

type t

val create : ?diags:Support.Diag.t list -> Mir.program -> t
(** [?diags] seeds the context's diagnostics with the frontend
    recovery diagnostics of the program it wraps. *)

val program : t -> Mir.program

val diags : t -> Support.Diag.t list
(** All diagnostics attached to this context: seed (frontend recovery)
    diagnostics plus [Analysis_incomplete] (W0401, fuel) and
    [Analysis_deadline] (W0402, wall clock) warnings emitted when a
    memoised analysis stopped early. Deterministically sorted and
    deduplicated. An empty list means the entry is fully healthy. *)

val emit_diag : t -> Support.Diag.t -> unit
(** Attach a diagnostic to this context (mutex-guarded; the detectors'
    deadline-bounded replays report their own W0402s through this). *)

val deadline_warning : t -> string -> string -> unit
(** [deadline_warning t fn_id what] emits the canonical W0402
    "[what] analysis of [fn_id] stopped on an expired wall-clock
    deadline" warning. The message names no budget so it is
    byte-identical across runs regardless of remaining wall-clock. *)

val aliases : t -> Mir.body -> Alias.resolution
val pointsto : t -> Mir.body -> Pointsto.t
val storage : t -> Mir.body -> Dataflow.IntSetFlow.result
val callgraph : t -> Callgraph.t

(** Typed extension slots: detector-private per-body memos (e.g. lock
    acquisition maps) keyed by a generative key. *)
module Ext : sig
  type 'a key

  val create : unit -> 'a key
  (** Generative: each call mints a distinct slot. Declare one per
      memoised structure at module level. *)
end

val ext : t -> 'a Ext.key -> Mir.body -> compute:(Mir.body -> 'a) -> 'a
(** [ext t key body ~compute] returns the memoised [compute body] for
    this (key, body) pair. *)

val ext_program : t -> 'a Ext.key -> compute:(unit -> 'a) -> 'a
(** Program-level variant of {!ext}: one memoised slot per key for the
    whole context ([Analysis.Summary] keeps its SCC condensation and
    per-client summary tables here). [compute] runs outside the lock
    and may re-enter the context; on a race the first insertion
    wins. *)

type stats = {
  alias_memos : int;
  pointsto_memos : int;
  storage_memos : int;
  callgraph_memos : int;  (** 0 or 1 *)
  ext_memos : int;
  hits : int;  (** lookups answered from the memo tables *)
}

val stats : t -> stats

(* ------------------------------------------------------------------ *)
(* Program cache                                                       *)
(* ------------------------------------------------------------------ *)

val load_ctx : ?config:Lower.config -> file:string -> string -> t
(** Parse + lower [source] (as [Lower.program_of_source]) at most once
    per [(file, config)] key process-wide, returning the shared
    analysis context. If the same key is re-loaded with different
    source text the entry is recomputed and replaced.
    @raise Support.Diag.Parse_error on malformed input — including when
    a prior {!load_ctx_recovering} cached the entry with error
    diagnostics. *)

val load_ctx_recovering :
  ?cache:bool -> ?config:Lower.config -> file:string -> string ->
  (t, exn) result
(** Fault-tolerant [load_ctx]: the frontend runs in recovery mode
    (malformed regions become diagnostics on the context, see {!diags})
    and any exception escaping the rest of the pipeline is captured as
    [Error]. Never raises. Shares the program cache with [load_ctx],
    unless [~cache:false]: then the process-wide cache is neither
    consulted nor populated, and the caller gets a private context.
    The analysis server uses this for requests carrying their own
    deadline or fuel budget — their possibly-degraded analysis memos
    and incompleteness warnings must not bleed into later requests
    for the same source. *)

val load : ?config:Lower.config -> file:string -> string -> Mir.program
(** [program (load_ctx ...)]. *)

val clear_programs : unit -> unit
(** Drop every cached program (tests and cold-path benches). *)

val remove_program : ?config:Lower.config -> file:string -> unit -> unit
(** Drop one cached program. The supervisor purges a timed-out entry
    before retrying it: the cached context holds the partial,
    deadline-truncated analyses, and a retry that hit the cache would
    just replay them instead of recomputing. *)

val mem_program : ?config:Lower.config -> file:string -> string -> bool
(** Whether [(file, config)] is cached with exactly this source text —
    i.e. whether the next [load_ctx] would hit. Deterministic (unlike
    deltas of the global counters below, which other domains may be
    advancing concurrently); the study pipeline uses it to attribute
    cache provenance per entry. *)

val program_cache_counts : unit -> int * int
(** Cumulative (hits, misses) of the program cache. Also mirrored into
    {!Support.Metrics} when the registry is enabled:
    [rustudy_cache_program_events_total{event="hit"|"miss"|"purge"}]
    and [rustudy_cache_memo_total{analysis,outcome}] for the per-body
    memo tables. *)

(** {1 Retired store; kept for the benchmark probe}

    There is no process-wide summary store: summaries live only in a
    context's {!ext_program} slots. *)

val summary_cache_counts : unit -> int * int
(** Always [(0, 0)]. *)

val clear_summaries : unit -> unit
(** Does nothing. *)
