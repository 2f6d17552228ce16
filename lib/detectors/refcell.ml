(** RefCell double-borrow detector.

    Four of the paper's non-blocking bugs are runtime panics from
    requesting a second mutable borrow of a [RefCell] while another
    borrow is outstanding ("When multiple threads request mutable
    references to a RefCell at the same time, a runtime panic will be
    triggered"). Within one body the same discipline applies
    sequentially: [borrow_mut] while a [borrow]/[borrow_mut] guard of
    the same cell is still alive panics deterministically. The detector
    mirrors the double-lock analysis with cell guards ([CellRef]/
    [CellRefMut]) in place of lock guards. *)

open Ir
module IntSet = Analysis.Dataflow.IntSet
module Flow = Analysis.Dataflow.IntSetFlow

type borrow_kind = BShared | BMut

let conflict a b = match (a, b) with BShared, BShared -> false | _ -> true

type cell_borrows = {
  borrows : (int, Analysis.Alias.t * borrow_kind * Support.Span.t) Hashtbl.t;
  holders : (Mir.local, int) Hashtbl.t;
  borrow_at_term : (int, int) Hashtbl.t;
}

let collect (aliases : Analysis.Alias.resolution) (body : Mir.body) :
    cell_borrows =
  let t =
    {
      borrows = Hashtbl.create 4;
      holders = Hashtbl.create 4;
      borrow_at_term = Hashtbl.create 4;
    }
  in
  let next = ref 0 in
  for _pass = 0 to 1 do
    Array.iteri
      (fun bi (blk : Mir.block) ->
        List.iter
          (fun (s : Mir.stmt) ->
            match s.Mir.kind with
            | Mir.Assign (dest, Mir.Use (Mir.Copy p | Mir.Move p))
              when Mir.place_is_local dest && Mir.place_is_local p -> (
                match Hashtbl.find_opt t.holders p.Mir.base with
                | Some a -> Hashtbl.replace t.holders dest.Mir.base a
                | None -> ())
            | _ -> ())
          blk.Mir.stmts;
        match blk.Mir.term with
        | Mir.Call (c, _) -> (
            let kind =
              match c.Mir.callee with
              | Mir.Builtin Mir.RefCellBorrow -> Some BShared
              | Mir.Builtin Mir.RefCellBorrowMut -> Some BMut
              | _ -> None
            in
            match kind with
            | Some k ->
                if not (Hashtbl.mem t.borrow_at_term bi) then begin
                  let id = !next in
                  incr next;
                  let root =
                    match c.Mir.args with
                    | (Mir.Copy p | Mir.Move p) :: _ ->
                        Analysis.Alias.path_of_place aliases p
                    | _ -> Analysis.Alias.unknown
                  in
                  Hashtbl.replace t.borrows id (root, k, c.Mir.call_span);
                  Hashtbl.replace t.borrow_at_term bi id
                end;
                if Mir.place_is_local c.Mir.dest then
                  Hashtbl.replace t.holders c.Mir.dest.Mir.base
                    (Hashtbl.find t.borrow_at_term bi)
            | None -> ())
        | _ -> ())
      body.Mir.blocks
  done;
  t

let check_body (aliases : Analysis.Alias.resolution) (body : Mir.body) :
    Report.finding list =
  let cells = collect aliases body in
  if Hashtbl.length cells.borrows = 0 then []
  else begin
    let transfer_stmt state (s : Mir.stmt) =
      match s.Mir.kind with
      | Mir.Drop p when Mir.place_is_local p -> (
          match Hashtbl.find_opt cells.holders p.Mir.base with
          | Some a -> IntSet.remove a state
          | None -> state)
      | _ -> state
    in
    let term_block = Hashtbl.create 4 in
    Array.iteri
      (fun bi (blk : Mir.block) ->
        match blk.Mir.term with
        | Mir.Call (c, _) -> Hashtbl.replace term_block c.Mir.call_span bi
        | _ -> ())
      body.Mir.blocks;
    let held =
      Flow.run body ~init:IntSet.empty ~transfer_stmt
        ~transfer_term:(fun state term ->
          match term with
          | Mir.Call (c, _) -> (
              match Hashtbl.find_opt term_block c.Mir.call_span with
              | Some bi -> (
                  match Hashtbl.find_opt cells.borrow_at_term bi with
                  | Some a -> IntSet.add a state
                  | None -> state)
              | None -> state)
          | _ -> state)
    in
    let findings = ref [] in
    Array.iteri
      (fun bi (blk : Mir.block) ->
        match Hashtbl.find_opt cells.borrow_at_term bi with
        | Some id ->
            let root, kind, span = Hashtbl.find cells.borrows id in
            if root.Analysis.Alias.root <> Analysis.Alias.Unknown_base then begin
              let state =
                List.fold_left transfer_stmt held.Flow.entry.(bi) blk.Mir.stmts
              in
              IntSet.iter
                (fun other ->
                  if other <> id then
                    match Hashtbl.find_opt cells.borrows other with
                    | Some (oroot, okind, ospan)
                      when Analysis.Alias.equal oroot root
                           && conflict okind kind ->
                        findings :=
                          Report.make ~kind:Report.Borrow_conflict
                            ~fn_id:body.Mir.fn_id ~span ~related_span:ospan
                            "RefCell `%s` is %s while a %s guard of the same cell is still alive: this panics at runtime"
                            (Analysis.Alias.to_string root)
                            (match kind with
                            | BMut -> "borrowed mutably"
                            | BShared -> "borrowed")
                            (match okind with
                            | BMut -> "borrow_mut"
                            | BShared -> "borrow")
                          :: !findings
                    | _ -> ())
                state
            end
        | None -> ())
      body.Mir.blocks;
    !findings
  end

let run_body (body : Mir.body) : Report.finding list =
  check_body (Analysis.Alias.resolve body) body

let run_ctx (ctx : Analysis.Cache.t) : Report.finding list =
  List.concat_map
    (fun b -> check_body (Analysis.Cache.aliases ctx b) b)
    (Gate.select ctx "refcell" ~gate:Gate.refcell)
