(** Fixed-size domain pool for fanning pure per-item work across cores
    (OCaml 5 [Domain.spawn]; no external dependency). Results are
    collected positionally, so the output order always matches the
    input order regardless of which domain finished first.

    Worker exceptions never tear down the pool: each task's outcome is
    captured as a [result] in its own slot, every domain drains the
    whole queue regardless of other tasks failing, and the domains are
    always joined. [try_map] surfaces the captured outcomes to the
    caller; [map] re-raises the first failure (in input order) only
    after the pool has fully wound down. *)

let default_domains () =
  (* recommended_domain_count counts the running domain, so reserve one
     slot for it: spawning a worker per core leaves the coordinator
     competing for a core and used to report parallel sweeps running
     with a single effective domain. Never below 1. *)
  max 1 (Domain.recommended_domain_count () - 1)

(** Shared engine behind [try_map]/[map]: applies [f] to every element
    of [items], using up to [domains] domains (default:
    [default_domains ()]). Every call of [f] is
    isolated: an exception becomes [Error (exn, backtrace)] in that
    item's slot and the remaining items still run. The result list is
    in input order. [f] must be safe to run concurrently with itself
    from multiple domains. Falls back to a sequential loop (same
    isolation) when [domains <= 1] or the input has fewer than two
    elements. *)
let run_raw ?domains ~(f : 'a -> 'b) (items : 'a list) :
    ('b, exn * Printexc.raw_backtrace) result list =
  let one x =
    match f x with
    | v -> Ok v
    | exception e ->
        (* capture the backtrace before any other code runs: [map]
           re-raises the failure with it intact *)
        let bt = Printexc.get_raw_backtrace () in
        Error (e, bt)
  in
  let arr = Array.of_list items in
  let n = Array.length arr in
  let workers =
    let d = match domains with Some d -> d | None -> default_domains () in
    min d n
  in
  if workers <= 1 || n <= 1 then List.map one items
  else begin
    let results : ('b, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let next = Atomic.make 0 in
    (* claim runs of [chunk] indices per fetch_and_add so per-item
       contention on [next] amortizes; ~4 chunks per worker keeps the
       tail balanced when item costs are uneven *)
    let chunk = max 1 (n / (workers * 4)) in
    let worker () =
      let rec loop () =
        let i0 = Atomic.fetch_and_add next chunk in
        if i0 < n then begin
          for i = i0 to min (i0 + chunk - 1) (n - 1) do
            results.(i) <- Some (one arr.(i))
          done;
          loop ()
        end
      in
      loop ()
    in
    let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    Array.to_list results
    |> List.map (function
         | Some r -> r
         | None -> assert false (* every index was claimed *))
  end

let try_map ?domains ~(f : 'a -> 'b) (items : 'a list) :
    ('b, exn) result list =
  run_raw ?domains ~f items
  |> List.map (function Ok v -> Ok v | Error (e, _) -> Error e)

(** [map ?domains ~f items] is [List.map f items] computed by the pool.
    The first exception raised by [f] (in input order) is re-raised —
    with its original backtrace — after all domains have joined; the
    other items still ran. *)
let map ?domains ~(f : 'a -> 'b) (items : 'a list) : 'b list =
  run_raw ?domains ~f items
  |> List.map (function
       | Ok v -> v
       | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
