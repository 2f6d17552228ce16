(** Analysis fuel: a process-wide iteration budget for the fixpoint
    analyses (points-to, dataflow, call-graph reachability).

    Every fixpoint loop consumes one unit of fuel per iteration and
    stops when the budget is exhausted, returning whatever it has with
    an [incomplete] marker instead of diverging on adversarial inputs
    (deep nesting, enormous mutated bodies). The budget is generous:
    no well-formed corpus program comes within two orders of magnitude
    of it, so exhaustion is itself a diagnostic signal.

    The default lives in an [Atomic] so corpus workers on other domains
    observe a CLI [--fuel] override without synchronisation. *)

let default_budget = 100_000

let budget = Atomic.make default_budget

let get () = Atomic.get budget

(** Set the process-wide budget. Values [<= 0] restore the default. *)
let set n = Atomic.set budget (if n <= 0 then default_budget else n)

(* ---------------- per-domain override ------------------------------- *)

(* A scoped budget shadows the process-wide one on the calling domain
   only, so concurrent requests on different domains — the analysis
   server's workers — never see each other's budgets. *)
let domain_key : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let domain_budget () = Domain.DLS.get domain_key

let with_domain_budget n f =
  let outer = Domain.DLS.get domain_key in
  Domain.DLS.set domain_key (Some (if n <= 0 then default_budget else n));
  Fun.protect f ~finally:(fun () -> Domain.DLS.set domain_key outer)

(* Belt-and-braces analogue of [Deadline.reset]: clear any override a
   previous request leaked past the scoped restore. *)
let reset_domain () = Domain.DLS.set domain_key None

(** The budget a fresh counter on this domain starts from. *)
let effective () =
  match Domain.DLS.get domain_key with Some n -> n | None -> get ()

(** A mutable fuel counter for one analysis run. *)
type counter = { mutable remaining : int; mutable reported : bool }

let counter ?n () =
  {
    remaining = (match n with Some n -> n | None -> effective ());
    reported = false;
  }

(** Consume one unit; [false] when the budget is exhausted. *)
let burn c =
  if c.remaining <= 0 then begin
    (* one flight event per counter, at the moment the loop first hits
       the wall — not per denied burn, which would flood the ring *)
    if not c.reported then begin
      c.reported <- true;
      Flight.record "fuel.exhausted"
    end;
    false
  end
  else begin
    c.remaining <- c.remaining - 1;
    true
  end

let exhausted c = c.remaining <= 0
