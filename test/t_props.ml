(* Property-based tests (qcheck): lexer round-trips, parser/lowering
   totality on generated programs, MIR structural invariants, dataflow
   termination, span algebra, and table rendering. *)

open QCheck

(* ---------------- span algebra ------------------------------------- *)

(* Spans are built the way the parser builds them: from byte offsets
   into a lexed buffer. Each comes paired with a reference model in the
   eager three-record layout spans used to have (a file and two
   line/col/offset records, line/col counted straight from the text),
   and the span operations must agree with the model's. *)
module Eager = struct
  type pos = { line : int; col : int; offset : int }
  type t = { file : string; start_pos : pos; end_pos : pos }

  let is_dummy s = s.start_pos.line = 0

  let union a b =
    if is_dummy a then b
    else if is_dummy b then a
    else
      {
        file = a.file;
        start_pos =
          (if a.start_pos.offset <= b.start_pos.offset then a.start_pos
           else b.start_pos);
        end_pos =
          (if a.end_pos.offset >= b.end_pos.offset then a.end_pos else b.end_pos);
      }

  let contains o i =
    (not (is_dummy o)) && (not (is_dummy i))
    && o.start_pos.offset <= i.start_pos.offset
    && i.end_pos.offset <= o.end_pos.offset

  let compare a b =
    let c = String.compare a.file b.file in
    if c <> 0 then c
    else
      let c = Int.compare a.start_pos.offset b.start_pos.offset in
      if c <> 0 then c else Int.compare a.end_pos.offset b.end_pos.offset

  let to_string s =
    if is_dummy s then "<no-loc>"
    else
      Printf.sprintf "%s:%d:%d-%d:%d" s.file s.start_pos.line s.start_pos.col
        s.end_pos.line s.end_pos.col

  let dummy =
    let p = { line = 0; col = 0; offset = 0 } in
    { file = "<none>"; start_pos = p; end_pos = p }

  let of_span (s : Support.Span.t) =
    let p (q : Support.Span.pos) =
      { line = q.Support.Span.line; col = q.Support.Span.col; offset = q.Support.Span.offset }
    in
    {
      file = Support.Span.file s;
      start_pos = p (Support.Span.start_pos s);
      end_pos = p (Support.Span.end_pos s);
    }
end

(* A lexable source of ragged lines, some empty. *)
let span_src =
  let r = Random.State.make [| 0x5a4e |] in
  String.concat "\n"
    (List.init 200 (fun _ ->
         String.concat " " (List.init (Random.State.int r 12) (fun _ -> "x"))))

let span_buf = Rustudy.Lexer.lex ~file:"p.rs" span_src

let eager_pos off =
  let line = ref 1 and start = ref 0 in
  for i = 0 to off - 1 do
    if span_src.[i] = '\n' then begin
      incr line;
      start := i + 1
    end
  done;
  { Eager.line = !line; col = off - !start + 1; offset = off }

let gen_span =
  let n = String.length span_src in
  Gen.frequency
    [
      (1, Gen.return (Support.Span.dummy, Eager.dummy));
      ( 12,
        Gen.map2
          (fun a b ->
            let lo = min a b and hi = max a b in
            ( Rustudy.Lexer.span_of_offsets span_buf lo hi,
              { Eager.file = "p.rs"; start_pos = eager_pos lo; end_pos = eager_pos hi } ))
          (Gen.int_bound n) (Gen.int_bound n) );
    ]

let arb_span =
  make
    ~print:(fun (s, m) ->
      Printf.sprintf "%s (model %s)" (Support.Span.to_string s) (Eager.to_string m))
    gen_span

let span_union_contains =
  Test.make ~name:"span union contains both operands" ~count:500
    (pair arb_span arb_span)
    (fun ((a, _), (b, _)) ->
      let u = Support.Span.union a b in
      Support.Span.is_dummy a || Support.Span.is_dummy b
      || (Support.Span.contains u a && Support.Span.contains u b))

let span_contains_refl =
  Test.make ~name:"span contains itself" ~count:200 arb_span (fun (s, _) ->
      Support.Span.is_dummy s || Support.Span.contains s s)

let span_matches_model =
  Test.make ~name:"offset-built span = eager model (pos, pp)" ~count:500 arb_span
    (fun (s, m) ->
      Eager.of_span s = m && Support.Span.to_string s = Eager.to_string m)

let span_ops_match_model =
  Test.make ~name:"span union/contains/compare = eager model" ~count:1000
    (pair arb_span arb_span)
    (fun ((a, ma), (b, mb)) ->
      Eager.of_span (Support.Span.union a b) = Eager.union ma mb
      && Support.Span.contains a b = Eager.contains ma mb
      && Support.Span.contains b a = Eager.contains mb ma
      && compare (Support.Span.compare a b) 0 = compare (Eager.compare ma mb) 0
      && Support.Span.to_string (Support.Span.union a b)
         = Eager.to_string (Eager.union ma mb))

(* ---------------- lexer round-trip --------------------------------- *)

let gen_safe_ident =
  Gen.map
    (fun (c, rest) ->
      let s = String.make 1 c ^ rest in
      "v" ^ s (* prefix prevents keyword collisions *))
    (Gen.pair (Gen.char_range 'a' 'z') (Gen.string_size ~gen:(Gen.char_range 'a' 'z') (Gen.int_bound 6)))

let gen_token =
  Gen.oneof
    [
      Gen.map (fun s -> Rustudy.Token.IDENT s) gen_safe_ident;
      Gen.map (fun n -> Rustudy.Token.INT (n, "")) (Gen.int_bound 100000);
      Gen.map (fun n -> Rustudy.Token.INT (n, "u8")) (Gen.int_bound 255);
      Gen.oneofl
        [
          Rustudy.Token.KW_FN; Rustudy.Token.KW_LET; Rustudy.Token.KW_MUT;
          Rustudy.Token.LPAREN; Rustudy.Token.RPAREN; Rustudy.Token.LBRACE;
          Rustudy.Token.RBRACE; Rustudy.Token.COMMA; Rustudy.Token.SEMI;
          Rustudy.Token.COLONCOLON; Rustudy.Token.ARROW; Rustudy.Token.FATARROW;
          Rustudy.Token.PLUS; Rustudy.Token.MINUS; Rustudy.Token.STAR;
          Rustudy.Token.EQEQ; Rustudy.Token.NE; Rustudy.Token.LE; Rustudy.Token.GE;
          Rustudy.Token.AMPAMP; Rustudy.Token.PIPEPIPE; Rustudy.Token.DOT;
        ];
    ]

let lexer_roundtrip =
  Test.make ~name:"lexer round-trips space-separated tokens" ~count:300
    (make (Gen.list_size (Gen.int_bound 30) gen_token))
    (fun toks ->
      let src = String.concat " " (List.map Rustudy.Token.to_string toks) in
      let relexed =
        List.filter
          (fun t -> not (Rustudy.Token.equal t Rustudy.Token.EOF))
          (List.map
             (fun (s : Rustudy.Lexer.spanned) -> s.Rustudy.Lexer.tok)
             (Rustudy.Lexer.tokenize ~file:"p.rs" src))
      in
      List.length relexed = List.length toks
      && List.for_all2 Rustudy.Token.equal relexed toks)

(* ---------------- generated programs ------------------------------- *)

(* A generator of well-formed RustLite functions over integer locals. *)
let gen_expr_leaf vars =
  Gen.oneof
    ([ Gen.map (fun n -> string_of_int n) (Gen.int_bound 99) ]
    @ match vars with [] -> [] | _ -> [ Gen.oneofl vars ])

let rec gen_expr vars depth =
  if depth = 0 then gen_expr_leaf vars
  else
    Gen.oneof
      [
        gen_expr_leaf vars;
        Gen.map2
          (fun a b -> Printf.sprintf "(%s + %s)" a b)
          (gen_expr vars (depth - 1))
          (gen_expr vars (depth - 1));
        Gen.map2
          (fun a b -> Printf.sprintf "(%s * %s)" a b)
          (gen_expr vars (depth - 1))
          (gen_expr vars (depth - 1));
        Gen.map3
          (fun c a b -> Printf.sprintf "if %s > 0 { %s } else { %s }" c a b)
          (gen_expr vars (depth - 1))
          (gen_expr vars (depth - 1))
          (gen_expr vars (depth - 1));
      ]

let gen_program =
  let open Gen in
  let* n_lets = int_bound 5 in
  let rec build i vars acc =
    if i >= n_lets then return (vars, List.rev acc)
    else
      let name = Printf.sprintf "x%d" i in
      let* rhs = gen_expr vars 2 in
      build (i + 1) (name :: vars) (Printf.sprintf "let %s = %s;" name rhs :: acc)
  in
  let* vars, lets = build 0 [] [] in
  let* tail = gen_expr vars 2 in
  let body = String.concat "\n    " (lets @ [ tail ]) in
  return (Printf.sprintf "fn generated() -> i32 {\n    %s\n}" body)

let mir_invariants_hold (b : Rustudy.Mir.body) =
  let nblocks = Array.length b.Rustudy.Mir.blocks in
  let nlocals = Array.length b.Rustudy.Mir.locals in
  Array.for_all
    (fun (blk : Rustudy.Mir.block) ->
      List.for_all (fun t -> t >= 0 && t < nblocks)
        (Rustudy.Mir.successors blk.Rustudy.Mir.term)
      && List.for_all
           (fun (s : Rustudy.Mir.stmt) ->
             match s.Rustudy.Mir.kind with
             | Rustudy.Mir.StorageLive l | Rustudy.Mir.StorageDead l ->
                 l >= 0 && l < nlocals
             | Rustudy.Mir.Assign (p, _) | Rustudy.Mir.Drop p ->
                 p.Rustudy.Mir.base >= 0 && p.Rustudy.Mir.base < nlocals
             | Rustudy.Mir.Nop -> true)
           blk.Rustudy.Mir.stmts)
    b.Rustudy.Mir.blocks

let storage_balanced (b : Rustudy.Mir.body) =
  (* every StorageDead is preceded (somewhere) by a StorageLive of the
     same local: a weak but useful sanity check *)
  let lives = Hashtbl.create 16 in
  Array.for_all
    (fun (blk : Rustudy.Mir.block) ->
      List.for_all
        (fun (s : Rustudy.Mir.stmt) ->
          match s.Rustudy.Mir.kind with
          | Rustudy.Mir.StorageLive l ->
              Hashtbl.replace lives l ();
              true
          | Rustudy.Mir.StorageDead l ->
              Hashtbl.mem lives l || l < b.Rustudy.Mir.arg_count
          | _ -> true)
        blk.Rustudy.Mir.stmts)
    b.Rustudy.Mir.blocks

let generated_programs_lower =
  Test.make ~name:"generated programs parse, lower, and satisfy invariants"
    ~count:200 (make gen_program)
    (fun src ->
      let program = Rustudy.load ~file:"gen.rs" src in
      List.for_all
        (fun b -> mir_invariants_hold b && storage_balanced b)
        (Rustudy.Mir.body_list program))

let generated_programs_detect_clean =
  Test.make
    ~name:"generated integer programs produce no memory/concurrency findings"
    ~count:100 (make gen_program)
    (fun src ->
      Rustudy.check ~file:"gen.rs" src = [])

let dataflow_terminates =
  Test.make ~name:"storage dataflow terminates on generated programs"
    ~count:100 (make gen_program)
    (fun src ->
      let program = Rustudy.load ~file:"gen.rs" src in
      List.for_all
        (fun b ->
          let r = Analysis.Storage.analyze b in
          Array.length r.Analysis.Dataflow.IntSetFlow.entry
          = Array.length b.Rustudy.Mir.blocks)
        (Rustudy.Mir.body_list program))

(* ---------------- renderer ----------------------------------------- *)

let gen_cell = Gen.string_size ~gen:Gen.printable (Gen.int_bound 8)

let table_shape =
  Test.make ~name:"rendered tables have one line per row plus header+rule"
    ~count:100
    (make
       (Gen.pair
          (Gen.list_size (Gen.int_range 1 5) gen_cell)
          (Gen.list_size (Gen.int_bound 8)
             (Gen.list_size (Gen.int_range 1 5) gen_cell))))
    (fun (header, rows) ->
      let header = List.map (String.map (fun c -> if c = '\n' then ' ' else c)) header in
      let rows =
        List.map
          (List.map (String.map (fun c -> if c = '\n' then ' ' else c)))
          rows
      in
      let s = Study.Render.table ~header rows in
      (* header + rule + each row + trailing newline: exact line count,
         even when a row renders as an all-blank line *)
      let lines = String.split_on_char '\n' s in
      List.length lines = List.length rows + 3
      && List.nth lines (List.length lines - 1) = "")

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      span_union_contains;
      span_contains_refl;
      span_matches_model;
      span_ops_match_model;
      lexer_roundtrip;
      generated_programs_lower;
      generated_programs_detect_clean;
      dataflow_terminates;
      table_shape;
    ]

(* ---------------- lock-discipline properties ----------------------- *)

(* Generate programs over K locks with well-nested lock/drop sessions:
   the double-lock detector must stay silent (soundness side). Then
   inject a re-acquisition inside a live session: it must fire
   (completeness side). *)

let gen_lock_program ~inject_bug =
  let open Gen in
  let* n_locks = int_range 1 3 in
  let* n_sessions = int_range 1 4 in
  let* choices =
    list_size (return n_sessions) (pair (int_bound (n_locks - 1)) bool)
  in
  let buf = Buffer.create 256 in
  let params =
    String.concat ", "
      (List.init n_locks (fun i -> Printf.sprintf "m%d: Arc<Mutex<u64>>" i))
  in
  Buffer.add_string buf (Printf.sprintf "fn generated(%s) {\n" params);
  List.iteri
    (fun si (lock, use_block) ->
      if use_block then
        Buffer.add_string buf
          (Printf.sprintf
             "    let v%d = { let g = m%d.lock().unwrap(); *g };\n" si lock)
      else
        Buffer.add_string buf
          (Printf.sprintf
             "    let g%d = m%d.lock().unwrap();\n    drop(g%d);\n" si lock si))
    choices;
  (if inject_bug then
     let lock = match choices with (l, _) :: _ -> l | [] -> 0 in
     Buffer.add_string buf
       (Printf.sprintf
          "    let first = m%d.lock().unwrap();\n    let second = m%d.lock().unwrap();\n"
          lock lock));
  Buffer.add_string buf "}\n";
  return (Buffer.contents buf)

let double_lock program =
  Detectors.Double_lock.run_ctx (Rustudy.Cache.create program)

let lock_discipline_sound =
  Test.make ~name:"well-nested lock sessions never report a double lock"
    ~count:200
    (make (gen_lock_program ~inject_bug:false))
    (fun src ->
      let program = Rustudy.load ~file:"locks.rs" src in
      double_lock program = [])

let lock_discipline_complete =
  Test.make
    ~name:"an injected overlapping re-acquisition is always reported"
    ~count:200
    (make (gen_lock_program ~inject_bug:true))
    (fun src ->
      let program = Rustudy.load ~file:"locks.rs" src in
      double_lock program <> [])

(* Generated lock programs keep exactly one critical section per
   acquisition in the lock-scope report. *)
let lock_scope_count =
  Test.make ~name:"lock-scope reports one section per acquisition" ~count:100
    (make (gen_lock_program ~inject_bug:false))
    (fun src ->
      let program = Rustudy.load ~file:"locks.rs" src in
      let sections = Rustudy.Lock_scope.sections program in
      let acquisitions =
        List.fold_left
          (fun acc (b : Rustudy.Mir.body) ->
            Array.fold_left
              (fun acc (blk : Rustudy.Mir.block) ->
                match blk.Rustudy.Mir.term with
                | Rustudy.Mir.Call
                    ({ Rustudy.Mir.callee = Rustudy.Mir.Builtin Rustudy.Mir.MutexLock; _ }, _)
                  ->
                    acc + 1
                | _ -> acc)
              acc b.Rustudy.Mir.blocks)
          0
          (Rustudy.Mir.body_list program)
      in
      List.length sections = acquisitions)

(* Ablation invariant: statement-local temporaries can only shrink the
   double-lock finding set, never grow it. *)
let ablation_monotone =
  Test.make
    ~name:"statement-local temporaries never add double-lock findings"
    ~count:100
    (make (gen_lock_program ~inject_bug:true))
    (fun src ->
      let extended =
        double_lock (Rustudy.load ~file:"l.rs" src)
      in
      let ablated =
        double_lock
          (Rustudy.load
             ~config:{ Ir.Lower.tmp_lifetime = Ir.Lower.Statement_local }
             ~file:"l.rs" src)
      in
      List.length ablated <= List.length extended)

let lock_suite =
  List.map QCheck_alcotest.to_alcotest
    [
      lock_discipline_sound;
      lock_discipline_complete;
      lock_scope_count;
      ablation_monotone;
    ]

let suite = suite @ lock_suite
