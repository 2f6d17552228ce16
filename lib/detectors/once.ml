(** [Once::call_once] recursion detector: the closure passed to
    [call_once] (transitively) calls [call_once] on the same [Once]
    object, which self-deadlocks (one of the paper's blocking bugs). *)

open Ir

let call_once_roots_with (aliases : Analysis.Alias.resolution)
    (body : Mir.body) : string list =
  Array.to_list body.Mir.blocks
  |> List.filter_map (fun (blk : Mir.block) ->
         match blk.Mir.term with
         | Mir.Call ({ Mir.callee = Mir.Builtin Mir.OnceCallOnce; args; _ }, _)
           -> (
             match args with
             | (Mir.Copy p | Mir.Move p) :: _ ->
                 Some
                   (Analysis.Alias.to_string
                      (Analysis.Alias.path_of_place aliases p))
             | _ -> None)
         | _ -> None)

let run_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  let program = Analysis.Cache.program ctx in
  (* both the outer and the nested site are [call_once] calls: without
     one anywhere there is no [Once_closure] edge to follow *)
  match Gate.select ctx "once" ~gate:Gate.once with
  | [] -> []
  | _ ->
      let cg = Analysis.Cache.callgraph ctx in
      let findings = ref [] in
      List.iter
        (fun (e : Analysis.Callgraph.edge) ->
          if e.Analysis.Callgraph.kind = Analysis.Callgraph.Once_closure then begin
            (* functions reachable from the closure *)
            let reach =
              Analysis.Callgraph.reachable cg e.Analysis.Callgraph.target
            in
            let nested_call_once =
              List.exists
                (fun f ->
                  match Mir.find_body program f with
                  | Some b ->
                      Gate.once (Analysis.Cache.sites ctx b)
                      && call_once_roots_with (Analysis.Cache.aliases ctx b) b
                         <> []
                  | None -> false)
                reach
            in
            if nested_call_once then
              findings :=
                Report.make ~kind:Report.Double_lock
                  ~fn_id:e.Analysis.Callgraph.caller
                  ~span:e.Analysis.Callgraph.site
                  "the closure passed to Once::call_once reaches another call_once; recursive initialization self-deadlocks"
                :: !findings
          end)
        cg.Analysis.Callgraph.edges;
      !findings
