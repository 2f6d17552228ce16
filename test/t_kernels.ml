(* Differential tests for the perf kernels: the bitset set type against
   Set.Make(Int), the word-level dataflow engine and storage transfers
   against their generic counterparts, the RPO worklist against the
   legacy seed-all FIFO, the rewritten points-to solver's interned ids,
   and — end to end — every detector's findings on the full bug corpus
   against the committed golden snapshot. *)

open QCheck
module B = Support.Bitset
module IS = Set.Make (Int)
module Mir = Ir.Mir
module Flow = Analysis.Dataflow.IntSetFlow

let case name f = Alcotest.test_case name `Quick f

let corpus_progs =
  lazy
    (List.map
       (fun (e : Corpus.entry) ->
         (e.Corpus.id, Rustudy.load ~file:(e.Corpus.id ^ ".rs") e.Corpus.source))
       Corpus.all_bugs)

let corpus_bodies =
  lazy
    (List.concat_map (fun (_, p) -> Mir.body_list p) (Lazy.force corpus_progs))

(* ---------------- bitset vs Set.Make(Int) -------------------------- *)

type op = OAdd of int | ORemove of int | OUnion of int list | OInter of int list | ODiff of int list

let gen_elt = Gen.int_bound 200

let gen_op =
  Gen.oneof
    [
      Gen.map (fun i -> OAdd i) gen_elt;
      Gen.map (fun i -> ORemove i) gen_elt;
      Gen.map (fun l -> OUnion l) (Gen.list_size (Gen.int_bound 8) gen_elt);
      Gen.map (fun l -> OInter l) (Gen.list_size (Gen.int_bound 8) gen_elt);
      Gen.map (fun l -> ODiff l) (Gen.list_size (Gen.int_bound 8) gen_elt);
    ]

let arb_ops = make (Gen.list_size (Gen.int_bound 40) gen_op)

let apply_b t = function
  | OAdd i -> B.add i t
  | ORemove i -> B.remove i t
  | OUnion l -> B.union t (B.of_list l)
  | OInter l -> B.inter t (B.of_list l)
  | ODiff l -> B.diff t (B.of_list l)

let apply_s t = function
  | OAdd i -> IS.add i t
  | ORemove i -> IS.remove i t
  | OUnion l -> IS.union t (IS.of_list l)
  | OInter l -> IS.inter t (IS.of_list l)
  | ODiff l -> IS.diff t (IS.of_list l)

let ops_agree =
  Test.make ~name:"bitset op sequences agree with Set.Make(Int)" ~count:500
    arb_ops (fun ops ->
      let b = List.fold_left apply_b B.empty ops in
      let s = List.fold_left apply_s IS.empty ops in
      B.elements b = IS.elements s
      && B.cardinal b = IS.cardinal s
      && B.is_empty b = IS.is_empty s
      && B.max_elt_opt b = IS.max_elt_opt s
      && B.choose_opt b = IS.min_elt_opt s
      && B.fold (fun i acc -> i :: acc) b []
         = IS.fold (fun i acc -> i :: acc) s []
      && List.for_all (fun i -> B.mem i b = IS.mem i s) [ 0; 1; 63; 64; 200 ])

let relations_agree =
  Test.make ~name:"bitset equal/subset agree with Set.Make(Int)" ~count:500
    (pair (list_of_size (Gen.int_bound 30) (make gen_elt))
       (list_of_size (Gen.int_bound 30) (make gen_elt)))
    (fun (xs, ys) ->
      let a = B.of_list xs and b = B.of_list ys in
      let sa = IS.of_list xs and sb = IS.of_list ys in
      B.equal a b = IS.equal sa sb
      && B.subset a b = IS.subset sa sb
      && B.subset b a = IS.subset sb sa)

let word_bridge =
  Test.make ~name:"word bridge round-trips; msb/ntz match extrema" ~count:500
    (list_of_size (Gen.int_bound 20) (make (Gen.int_bound (B.word_bits - 1))))
    (fun bits ->
      let t = B.of_list bits in
      let w = B.word0 t in
      B.equal (B.of_word w) t
      && (w = 0
         || B.msb w = Option.get (B.max_elt_opt t)
            && B.ntz w = Option.get (B.choose_opt t)))

(* ---------------- word kernels vs generic transfers ---------------- *)

(* Every statement and terminator of every corpus body, replayed from
   the analysis' own entry states: the word transfer must be the exact
   image of the set transfer. *)
let storage_word_mirrors () =
  List.iter
    (fun (b : Mir.body) ->
      if Array.length b.Mir.locals <= B.word_bits then begin
        let r = Analysis.Storage.analyze b in
        Array.iteri
          (fun i (blk : Mir.block) ->
            let state = ref r.Flow.entry.(i) in
            List.iter
              (fun s ->
                let next = Analysis.Storage.transfer_stmt !state s in
                Alcotest.(check int)
                  "word_stmt image" (B.word0 next)
                  (Analysis.Storage.word_stmt (B.word0 !state) s);
                state := next)
              blk.Mir.stmts;
            Alcotest.(check int)
              "word_term image"
              (B.word0 (Analysis.Storage.transfer_term !state blk.Mir.term))
              (Analysis.Storage.word_term (B.word0 !state) blk.Mir.term))
          b.Mir.blocks
      end)
    (Lazy.force corpus_bodies)

let word_engine_agrees () =
  List.iter
    (fun (b : Mir.body) ->
      if Array.length b.Mir.locals <= B.word_bits then begin
        let g =
          Flow.run b ~init:B.empty
            ~transfer_stmt:Analysis.Storage.transfer_stmt
            ~transfer_term:Analysis.Storage.transfer_term
        in
        let w =
          Analysis.Dataflow.Word.run b ~init:0
            ~transfer_stmt:Analysis.Storage.word_stmt
            ~transfer_term:Analysis.Storage.word_term
        in
        Array.iteri
          (fun i e ->
            Alcotest.(check int)
              "entry word" (B.word0 e)
              w.Analysis.Dataflow.Word.entry.(i);
            Alcotest.(check int)
              "exit word"
              (B.word0 g.Flow.exit_.(i))
              w.Analysis.Dataflow.Word.exit_.(i))
          g.Flow.entry
      end)
    (Lazy.force corpus_bodies)

(* ---------------- RPO worklist vs legacy FIFO ---------------------- *)

let rpo_vs_fifo () =
  let rpo_total = ref 0 and fifo_total = ref 0 in
  List.iter
    (fun (b : Mir.body) ->
      let r =
        Flow.run b ~init:B.empty
          ~transfer_stmt:Analysis.Storage.transfer_stmt
          ~transfer_term:Analysis.Storage.transfer_term
      in
      let f =
        Flow.run ~order:`Fifo b ~init:B.empty
          ~transfer_stmt:Analysis.Storage.transfer_stmt
          ~transfer_term:Analysis.Storage.transfer_term
      in
      rpo_total := !rpo_total + r.Flow.passes;
      fifo_total := !fifo_total + f.Flow.passes;
      (* the disciplines agree everywhere once unreachable blocks (which
         only the legacy FIFO seeds) are out of the picture *)
      if Array.for_all Fun.id r.Flow.reachable then
        Array.iteri
          (fun i e ->
            Alcotest.(check bool)
              "same entry fixpoint" true
              (B.equal e f.Flow.entry.(i));
            Alcotest.(check bool)
              "same exit fixpoint" true
              (B.equal r.Flow.exit_.(i) f.Flow.exit_.(i)))
          r.Flow.entry)
    (Lazy.force corpus_bodies);
  (* iteration counts are what changes: RPO never does more work than
     seed-everything FIFO over the corpus *)
  Alcotest.(check bool)
    "rpo total passes <= fifo" true
    (!rpo_total <= !fifo_total)

(* ---------------- unreachable blocks ------------------------------- *)

let mk_span =
  Support.Span.v ~file:"k.rs" ~lo:0 ~lo_line:1 ~lo_col:1 ~hi:1 ~hi_line:1
    ~hi_col:2

let mk_stmt kind = { Mir.kind; s_span = mk_span; s_unsafe = false }

let mk_body blocks n_locals =
  {
    Mir.fn_id = "k";
    arg_count = 0;
    locals =
      Array.init n_locals (fun _ ->
          {
            Mir.l_name = None;
            l_ty = Sema.Ty.unit_;
            l_mut = false;
            l_user = false;
            l_span = mk_span;
          });
    blocks;
    fn_unsafe = false;
    body_span = mk_span;
    captures = [];
    body_cfg = None;
    body_ix = -1;
  }

let unreachable_bottom () =
  (* block 1 is unreachable but has an edge into the reachable join:
     its StorageDead must never leak into the fixpoint *)
  let blocks =
    [|
      { Mir.stmts = []; term = Mir.Goto 2; t_span = mk_span };
      {
        Mir.stmts = [ mk_stmt (Mir.StorageDead 1) ];
        term = Mir.Goto 2;
        t_span = mk_span;
      };
      { Mir.stmts = []; term = Mir.Return None; t_span = mk_span };
    |]
  in
  let b = mk_body blocks 2 in
  let r =
    Flow.run b ~init:B.empty
      ~transfer_stmt:Analysis.Storage.transfer_stmt
      ~transfer_term:Analysis.Storage.transfer_term
  in
  Alcotest.(check bool) "block 1 unreachable" false r.Flow.reachable.(1);
  Alcotest.(check bool) "unreachable entry bottom" true
    (B.is_empty r.Flow.entry.(1));
  Alcotest.(check bool) "unreachable exit bottom" true
    (B.is_empty r.Flow.exit_.(1));
  Alcotest.(check bool) "join not polluted" true (B.is_empty r.Flow.entry.(2));
  (* only the two reachable blocks are ever transferred *)
  Alcotest.(check int) "passes = reachable blocks" 2 r.Flow.passes;
  (* the word engine has the same discipline *)
  let w =
    Analysis.Dataflow.Word.run b ~init:0
      ~transfer_stmt:Analysis.Storage.word_stmt
      ~transfer_term:Analysis.Storage.word_term
  in
  Alcotest.(check int) "word unreachable exit" 0
    w.Analysis.Dataflow.Word.exit_.(1);
  Alcotest.(check int) "word join not polluted" 0
    w.Analysis.Dataflow.Word.entry.(2);
  Alcotest.(check int) "word passes" 2 w.Analysis.Dataflow.Word.passes

(* ---------------- points-to ---------------------------------------- *)

let pointsto_interning_agrees () =
  List.iter
    (fun (b : Mir.body) ->
      let t = Analysis.Pointsto.analyze b in
      Alcotest.(check bool) "corpus solve converges" true
        (Analysis.Pointsto.complete t);
      let n = Array.length b.Mir.locals in
      for l = 0 to n - 1 do
        let from_set =
          Analysis.Pointsto.LocSet.fold
            (fun loc acc ->
              match loc with
              | Analysis.Pointsto.Loc.LLocal x -> x :: acc
              | _ -> acc)
            (Analysis.Pointsto.of_local t l)
            []
          |> List.sort compare
        in
        let from_bits =
          B.fold
            (fun i acc -> if i < n then i :: acc else acc)
            (Analysis.Pointsto.pointee_bits t l)
            []
          |> List.rev
        in
        Alcotest.(check (list int)) "local pointees" from_set from_bits
      done)
    (Lazy.force corpus_bodies)

let loc_compare_total_order () =
  let module L = Analysis.Pointsto.Loc in
  let samples =
    [
      L.LLocal 0; L.LLocal 1; L.LLocal 63; L.LStatic "a"; L.LStatic "b";
      L.LHeap 0; L.LHeap 7; L.LUnknown;
    ]
  in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          Alcotest.(check bool)
            "equal iff compare = 0" (L.equal x y)
            (L.compare x y = 0);
          Alcotest.(check int)
            "antisymmetric" (compare (L.compare x y) 0)
            (compare 0 (L.compare y x));
          List.iter
            (fun z ->
              if L.compare x y <= 0 && L.compare y z <= 0 then
                Alcotest.(check bool) "transitive" true (L.compare x z <= 0))
            samples)
        samples)
    samples

(* pointsto reports through the metrics registry; dataflow still keeps
   its atomic [transfers] alongside the registry *)
let counters_advance () =
  let bodies = Lazy.force corpus_bodies in
  let was_enabled = Support.Metrics.enabled () in
  Support.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Support.Metrics.disable ())
    (fun () ->
      let read = Support.Metrics.read_counter in
      let r0 = read "rustudy_pointsto_runs_total" in
      let p0 = read "rustudy_pointsto_passes_total" in
      let t0 = Analysis.Dataflow.transfers () in
      List.iter (fun b -> ignore (Analysis.Pointsto.analyze b)) bodies;
      Alcotest.(check (float 0.0))
        "one pointsto run per body"
        (r0 +. float_of_int (List.length bodies))
        (read "rustudy_pointsto_runs_total");
      Alcotest.(check bool)
        "solver pops counted" true
        (read "rustudy_pointsto_passes_total" > p0);
      List.iter (fun b -> ignore (Analysis.Storage.analyze b)) bodies;
      Alcotest.(check bool)
        "block transfers counted" true
        (Analysis.Dataflow.transfers () > t0))

(* ---------------- detectors: golden corpus snapshot ---------------- *)

let golden_snapshot () =
  let expected =
    let ic = open_in "golden_findings.txt" in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  let actual =
    List.concat_map
      (fun (id, p) ->
        List.sort compare
          (List.map Detectors.Report.to_string
             (Detectors.All.all_ctx (Rustudy.Cache.create p)))
        |> List.map (fun f -> id ^ "|" ^ f))
      (Lazy.force corpus_progs)
  in
  Alcotest.(check int) "finding count" (List.length expected)
    (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "finding" e a) expected actual

(* ---------------- uaf: wide bodies take the generic path ----------- *)

let uaf_generic_path () =
  let b = Buffer.create 2048 in
  Buffer.add_string b "pub unsafe fn big() -> u8 {\n";
  for i = 0 to 69 do
    Buffer.add_string b (Printf.sprintf "    let x%d = %du8;\n" i (i mod 250))
  done;
  Buffer.add_string b
    "    let hay = vec![97u8, 44u8];\n\
    \    let save = hay.as_ptr();\n\
    \    drop(hay);\n\
    \    *save\n\
     }\n";
  let p = Rustudy.load ~file:"wide.rs" (Buffer.contents b) in
  let body =
    match Mir.find_body p "big" with
    | Some body -> body
    | None -> Alcotest.fail "no body big"
  in
  (* wide enough that the detector must use its generic bitset path *)
  Alcotest.(check bool) "body exceeds one word" true
    (Array.length body.Mir.locals > B.word_bits);
  Alcotest.(check bool) "generic path still reports the UAF" true
    (List.exists
       (fun (f : Detectors.Report.finding) ->
         f.Detectors.Report.kind = Detectors.Report.Use_after_free)
       (Detectors.Uaf.run_ctx (Analysis.Cache.create p)))

let suite =
  [
    QCheck_alcotest.to_alcotest ops_agree;
    QCheck_alcotest.to_alcotest relations_agree;
    QCheck_alcotest.to_alcotest word_bridge;
    case "storage word transfers mirror the set transfers" storage_word_mirrors;
    case "word engine agrees with the set engine on the corpus"
      word_engine_agrees;
    case "rpo and fifo reach the same fixpoint; rpo does no more work"
      rpo_vs_fifo;
    case "unreachable blocks stay bottom and are never transferred"
      unreachable_bottom;
    case "points-to interned bits agree with the Loc sets"
      pointsto_interning_agrees;
    case "Loc.compare is a structural total order" loc_compare_total_order;
    case "analysis counters advance" counters_advance;
    case "all detectors match the golden corpus snapshot" golden_snapshot;
    case "uaf reports through the generic wide-body path" uaf_generic_path;
  ]
