(** Analysis fuel: a process-wide iteration budget for the fixpoint
    analyses (points-to, dataflow, call-graph reachability).

    Every fixpoint loop consumes one unit of fuel per iteration and
    stops when the budget is exhausted, returning whatever it has with
    an [incomplete] marker instead of diverging on adversarial inputs.
    The budget is generous: no well-formed corpus program comes within
    two orders of magnitude of it, so exhaustion is itself a
    diagnostic signal. *)

val default_budget : int

val get : unit -> int
(** The current process-wide budget. *)

val set : int -> unit
(** Set the process-wide budget (atomic: visible to all domains).
    Values [<= 0] restore the default. *)

(** {1 Per-domain override}

    The one way to scope a budget. The override shadows the
    process-wide budget on the calling domain only, so concurrent
    requests on different domains (the analysis server's workers) never
    see each other's budgets. *)

val with_domain_budget : int -> (unit -> 'a) -> 'a
(** Run [f] with this domain's fuel budget set to [n] ([<= 0] means
    {!default_budget}), restoring the previous override afterwards.
    Other domains are unaffected. *)

val domain_budget : unit -> int option
(** The calling domain's override, if one is installed. *)

val reset_domain : unit -> unit
(** Clear the calling domain's override unconditionally — the
    {!Deadline.reset} analogue, called by the server between requests
    so a leaked override can never bleed into the next request. *)

val effective : unit -> int
(** The budget a fresh {!counter} on this domain starts from: the
    domain override when present, the process-wide budget otherwise. *)

(** {1 Per-run counters} *)

type counter
(** A mutable fuel counter for one analysis run, initialized from the
    effective budget (or an explicit [n]). *)

val counter : ?n:int -> unit -> counter

val burn : counter -> bool
(** Consume one unit; [false] when the budget is exhausted. *)

val exhausted : counter -> bool
