(** Condvar misuse detector: a thread blocks in [Condvar::wait] while no
    other code path can ever call [notify_one]/[notify_all] on the same
    condition variable (the dominant Condvar pattern in the paper's
    blocking-bug study: 8 of 10 Condvar bugs). *)

open Ir

type site = { root : string; fn : string; span : Support.Span.t }

let condvar_sites_with (aliases_of : Mir.body -> Analysis.Alias.resolution)
    (bodies : Mir.body list) : site list * site list =
  let waits = ref [] and notifies = ref [] in
  List.iter
    (fun (body : Mir.body) ->
      let aliases = aliases_of body in
      (* thread-crossing identity: substitute capture paths when this
         body is a spawned closure *)
      Array.iter
        (fun (blk : Mir.block) ->
          match blk.Mir.term with
          | Mir.Call (c, _) -> (
              let root_of_arg0 () =
                match c.Mir.args with
                | (Mir.Copy p | Mir.Move p) :: _ ->
                    Analysis.Alias.to_string
                      (Analysis.Alias.path_of_place aliases p)
                | _ -> "?"
              in
              match c.Mir.callee with
              | Mir.Builtin Mir.CondvarWait ->
                  waits :=
                    { root = root_of_arg0 (); fn = body.Mir.fn_id; span = c.Mir.call_span }
                    :: !waits
              | Mir.Builtin (Mir.CondvarNotifyOne | Mir.CondvarNotifyAll) ->
                  notifies :=
                    { root = root_of_arg0 (); fn = body.Mir.fn_id; span = c.Mir.call_span }
                    :: !notifies
              | _ -> ())
          | _ -> ())
        body.Mir.blocks)
    bodies;
  (!waits, !notifies)

let check (waits, notifies) : Report.finding list =
  (* Identity across threads is approximated by the field path suffix:
     the same condvar reached from different frames shares the trailing
     field name (e.g. ".cvar"). No-field roots compare by presence of
     any notify site at all. *)
  let suffix root =
    match String.rindex_opt root '.' with
    | Some i -> String.sub root i (String.length root - i)
    | None -> root
  in
  List.filter_map
    (fun w ->
      let notified =
        notifies <> []
        && (List.exists
              (fun n ->
                String.equal (suffix n.root) (suffix w.root)
                || String.equal n.root w.root)
              notifies
           || List.for_all (fun n -> String.equal n.root "?") notifies)
      in
      if notified then None
      else
        Some
          (Report.make ~kind:Report.Condvar_lost_wakeup ~fn_id:w.fn
             ~span:w.span
             "Condvar::wait on `%s` but no thread ever calls notify_one/notify_all on this condition variable"
             w.root))
    waits

let run_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  check
    (condvar_sites_with (Analysis.Cache.aliases ctx)
       (Gate.select ctx "condvar" ~gate:Gate.condvar))
