(** Conflicting-lock-order (ABBA deadlock) detector.

    Collects, per function, the ordered pairs "lock A held while
    acquiring lock B". For closure bodies reached through
    [thread::spawn], lock roots are substituted through the capture
    mapping so that two threads locking the same two Arc<Mutex<_>>
    objects in opposite orders are recognized. A cycle in the resulting
    lock-order graph is reported as a potential deadlock. *)

open Ir

type edge = {
  from_root : string;
  to_root : string;
  in_fn : string;
  site : Support.Span.t;
}

let substituted_pairs_ctx (ctx : Analysis.Cache.t) : edge list =
  (* built only for the first body with a pair (two acquisitions in
     one body), so lock-poor programs never pay for it *)
  let cg = lazy (Analysis.Cache.callgraph ctx) in
  let edges = ref [] in
  List.iter
    (fun (body : Mir.body) ->
      let pairs = Double_lock.order_pairs_ctx ctx body in
      if pairs <> [] then begin
        (* In how many frames does this body run? Its own, plus any
           spawn site with captures substituted. *)
        let spawn_sites =
          List.filter
            (fun (e : Analysis.Callgraph.edge) ->
              String.equal e.Analysis.Callgraph.target body.Mir.fn_id)
            (Analysis.Callgraph.spawn_edges (Lazy.force cg))
        in
        let contexts =
          match spawn_sites with
          | [] -> [ (body.Mir.fn_id, None) ]
          | sites ->
              List.map
                (fun (e : Analysis.Callgraph.edge) ->
                  (e.Analysis.Callgraph.caller, Some e.Analysis.Callgraph.capture_paths))
                sites
        in
        List.iter
          (fun (frame, subst) ->
            List.iter
              (fun (a, b, span) ->
                let sub r =
                  match subst with
                  | Some actuals -> Analysis.Alias.substitute r actuals
                  | None -> r
                in
                let a = sub a and b = sub b in
                edges :=
                  {
                    from_root = frame ^ "/" ^ Analysis.Alias.to_string a;
                    to_root = frame ^ "/" ^ Analysis.Alias.to_string b;
                    in_fn = body.Mir.fn_id;
                    site = span;
                  }
                  :: !edges)
              pairs)
          contexts
      end)
    (Gate.select ctx "lock_order" ~gate:Gate.lock_order);
  !edges

let substituted_pairs (program : Mir.program) : edge list =
  substituted_pairs_ctx (Analysis.Cache.create program)

(** Find a cycle in the lock-order graph; returns the edges involved. *)
let find_cycle (edges : edge list) : edge list =
  let adj = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let cur = Option.value (Hashtbl.find_opt adj e.from_root) ~default:[] in
      Hashtbl.replace adj e.from_root (e :: cur))
    edges;
  let visiting = Hashtbl.create 16 in
  let done_ = Hashtbl.create 16 in
  let cycle = ref [] in
  let rec dfs node path =
    if !cycle = [] then
      if Hashtbl.mem visiting node then begin
        (* unwind the path back to node *)
        let rec take acc = function
          | [] -> acc
          | e :: rest ->
              if String.equal e.from_root node then e :: acc
              else take (e :: acc) rest
        in
        cycle := take [] path
      end
      else if not (Hashtbl.mem done_ node) then begin
        Hashtbl.replace visiting node ();
        List.iter
          (fun e -> dfs e.to_root (e :: path))
          (Option.value (Hashtbl.find_opt adj node) ~default:[]);
        Hashtbl.remove visiting node;
        Hashtbl.replace done_ node ()
      end
  in
  List.iter (fun e -> if !cycle = [] then dfs e.from_root []) edges;
  !cycle

let run_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  let edges = substituted_pairs_ctx ctx in
  match find_cycle edges with
  | [] -> []
  | cycle ->
      List.map
        (fun e ->
          Report.make ~kind:Report.Conflicting_lock_order ~fn_id:e.in_fn
            ~span:e.site
            "lock `%s` is acquired while holding `%s`; another thread acquires them in the opposite order (deadlock cycle)"
            e.to_root e.from_root)
        cycle
