(** Channel blocking detector: a blocking [recv] on a channel whose
    sending half can never produce a message (no send site reachable in
    any thread), the pattern behind 5 of the paper's 6 channel bugs. *)

open Ir

type site = { root : string; fn : string; span : Support.Span.t }

let channel_sites_with (aliases_of : Mir.body -> Analysis.Alias.resolution)
    (bodies : Mir.body list) : site list * site list =
  let recvs = ref [] and sends = ref [] in
  List.iter
    (fun (body : Mir.body) ->
      let aliases = aliases_of body in
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
              | Mir.Builtin Mir.ChannelRecv ->
                  recvs :=
                    { root = root_of_arg0 (); fn = body.Mir.fn_id; span = c.Mir.call_span }
                    :: !recvs
              | Mir.Builtin Mir.ChannelSend ->
                  sends :=
                    { root = root_of_arg0 (); fn = body.Mir.fn_id; span = c.Mir.call_span }
                    :: !sends
              | _ -> ())
          | _ -> ())
        body.Mir.blocks)
    bodies;
  (!recvs, !sends)

let check (recvs, sends) : Report.finding list =
  List.filter_map
    (fun r ->
      (* any send anywhere in the program may feed this receiver; only
         a program with zero sends is certainly blocked *)
      if sends <> [] then None
      else
        Some
          (Report.make ~kind:Report.Channel_deadlock ~fn_id:r.fn ~span:r.span
             "blocking recv on channel `%s` but no thread ever sends on any channel"
             r.root))
    recvs

let run_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  check
    (channel_sites_with (Analysis.Cache.aliases ctx)
       (Gate.select ctx "channel" ~gate:Gate.channel))
