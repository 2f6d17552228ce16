(* The summary-based interprocedural engine (Analysis.Summary):
   QCheck properties of the SCC condensation against a brute-force
   reachability oracle, differential byte-identity of the engine's
   detector findings vs the legacy replay fixpoints over the full
   corpus and every fault mutant, once-per-context summaries on large
   programs, tracing that changes no work, and the engine's deadline
   path. *)

module Summary = Rustudy.Summary
module Scc = Rustudy.Summary.Scc
module Fault = Rustudy.Fault

let case name f = Alcotest.test_case name `Quick f

(* ---------------- random digraphs ---------------------------------- *)

(* (n, succs) with n in [1..24] and a skewed edge count, as an
   adjacency array with ascending deduplicated successor lists — the
   same representation [Summary.dep_succs] produces. *)
let gen_graph =
  QCheck.Gen.(
    int_range 1 24 >>= fun n ->
    int_bound (3 * n) >>= fun m ->
    list_size (return m) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >>= fun es ->
    let tmp = Array.make n [] in
    List.iter
      (fun (u, v) -> if not (List.mem v tmp.(u)) then tmp.(u) <- v :: tmp.(u))
      es;
    let succs =
      Array.map
        (fun l ->
          let a = Array.of_list l in
          Array.sort compare a;
          a)
        tmp
    in
    return (n, succs))

let print_graph (n, succs) =
  Printf.sprintf "n=%d; %s" n
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun u vs ->
               Printf.sprintf "%d->[%s]" u
                 (String.concat ","
                    (Array.to_list (Array.map string_of_int vs))))
             succs)))

let arb_graph = QCheck.make ~print:print_graph gen_graph

(* Boolean transitive closure (Floyd–Warshall), the oracle for "same
   strongly-connected component". *)
let reach n (succs : int array array) =
  let r = Array.make_matrix n n false in
  Array.iteri (fun u vs -> Array.iter (fun v -> r.(u).(v) <- true) vs) succs;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if r.(i).(k) then
        for j = 0 to n - 1 do
          if r.(k).(j) then r.(i).(j) <- true
        done
    done
  done;
  r

let prop name f = QCheck.Test.make ~name ~count:300 arb_graph f

let scc_partition =
  prop "condense: members form a partition matching comp_of" (fun (n, succs) ->
      let scc = Scc.condense ~n ~succs in
      let seen = Array.make n 0 in
      Array.iteri
        (fun c ms ->
          Array.iter
            (fun v ->
              seen.(v) <- seen.(v) + 1;
              assert (scc.Scc.comp_of.(v) = c))
            ms)
        scc.Scc.members;
      Array.for_all (fun k -> k = 1) seen)

let scc_oracle =
  prop "condense: same component iff mutually reachable" (fun (n, succs) ->
      let scc = Scc.condense ~n ~succs in
      let r = reach n succs in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let together = scc.Scc.comp_of.(u) = scc.Scc.comp_of.(v) in
          let mutual = u = v || (r.(u).(v) && r.(v).(u)) in
          if together <> mutual then ok := false
        done
      done;
      !ok)

let scc_acyclic_reverse_topo =
  prop "condense: cross edges point at lower component ids (acyclic, \
        callee-first order)" (fun (n, succs) ->
      let scc = Scc.condense ~n ~succs in
      ignore n;
      let ok = ref true in
      Array.iteri
        (fun u vs ->
          Array.iter
            (fun v ->
              let cu = scc.Scc.comp_of.(u) and cv = scc.Scc.comp_of.(v) in
              (* callees must be emitted before callers, so every edge
                 leaving a component lands in a smaller id, making
                 ascending ids a valid reverse-topological order *)
              if cu <> cv && cv >= cu then ok := false)
            vs)
        succs;
      !ok)

let scc_has_cycle =
  prop "condense: has_cycle iff multi-member or self-loop" (fun (n, succs) ->
      let scc = Scc.condense ~n ~succs in
      ignore n;
      Array.for_all
        (fun c ->
          let ms = scc.Scc.members.(c) in
          let expect =
            Array.length ms > 1
            || Array.exists (fun w -> w = ms.(0)) succs.(ms.(0))
          in
          scc.Scc.has_cycle.(c) = expect)
        (Array.init scc.Scc.count (fun i -> i)))

let scc_deterministic =
  prop "condense: deterministic for a given graph" (fun (n, succs) ->
      let a = Scc.condense ~n ~succs and b = Scc.condense ~n ~succs in
      a.Scc.count = b.Scc.count
      && a.Scc.comp_of = b.Scc.comp_of
      && a.Scc.members = b.Scc.members
      && a.Scc.has_cycle = b.Scc.has_cycle)

let scc_props =
  List.map QCheck_alcotest.to_alcotest
    [
      scc_partition;
      scc_oracle;
      scc_acyclic_reverse_topo;
      scc_has_cycle;
      scc_deterministic;
    ]

(* ---------------- differential: summary vs replay ------------------ *)

(* Byte-identical findings: same bugs, same spans, same order, same
   rendered text. *)
let render findings = String.concat "\n" (List.map Rustudy.Finding.to_string findings)

(* The two interprocedural detectors, each on a private context,
   through the summary engine ([run_ctx])... *)
let uaf ?assume_extern_derefs p =
  Detectors.Uaf.run_ctx ?assume_extern_derefs (Analysis.Cache.create p)

let double_lock p = Detectors.Double_lock.run_ctx (Analysis.Cache.create p)

(* ...and through the legacy replay fixpoints, over the same gated
   bodies: the reference the engine must agree with. *)
let replay_uaf ?assume_extern_derefs p =
  let ctx = Analysis.Cache.create p in
  let sums = Detectors.Uaf.compute_summaries ?assume_extern_derefs ctx in
  List.concat_map
    (Detectors.Uaf.check_body ?assume_extern_derefs ctx sums)
    (Detectors.Gate.select ctx "uaf" ~gate:Detectors.Gate.uaf)

let replay_double_lock p =
  let ctx = Analysis.Cache.create p in
  let sums = Detectors.Double_lock.compute_summaries ctx in
  List.concat_map
    (Detectors.Double_lock.check_body ctx sums)
    (Detectors.Gate.select ctx "double_lock" ~gate:Detectors.Gate.double_lock)

let against_replay label (program : Rustudy.Mir.program) =
  let check name engine replay =
    Alcotest.(check string) (label ^ ": " ^ name) (render replay)
      (render engine)
  in
  check "double_lock" (double_lock program) (replay_double_lock program);
  List.iter
    (fun extern ->
      check
        (Printf.sprintf "uaf extern=%b" extern)
        (uaf ~assume_extern_derefs:extern program)
        (replay_uaf ~assume_extern_derefs:extern program))
    [ true; false ]

let differential =
  [
    case "summary findings byte-identical to replay on the full corpus"
      (fun () ->
        List.iter
          (fun (e : Rustudy.Corpus.entry) ->
            let p =
              Rustudy.load ~file:(e.Rustudy.Corpus.id ^ ".rs")
                e.Rustudy.Corpus.source
            in
            against_replay e.Rustudy.Corpus.id p)
          Rustudy.Corpus.all_bugs);
    case "summary findings byte-identical to replay on every fault mutant"
      (fun () ->
        let compared = ref 0 in
        List.iter
          (fun (e : Rustudy.Corpus.entry) ->
            List.iter
              (fun (mname, mutated) ->
                let label = e.Rustudy.Corpus.id ^ "+" ^ mname in
                (* lower in recovery mode, like the serve pipeline:
                   malformed regions degrade to diagnostics and the
                   rest of the program still reaches MIR *)
                match
                  Rustudy.Cache.load_ctx_recovering ~cache:false
                    ~file:(label ^ ".rs") mutated
                with
                | Ok ctx ->
                    incr compared;
                    against_replay label (Rustudy.Cache.program ctx)
                | Error _ -> ())
              (Fault.mutations ~seed:0x5EED e.Rustudy.Corpus.source))
          Rustudy.Corpus.all_bugs;
        if !compared < 1000 then
          Alcotest.failf
            "only %d mutants lowered — the differential corpus shrank"
            !compared);
    case "summary mode is deterministic run-to-run" (fun () ->
        List.iter
          (fun (e : Rustudy.Corpus.entry) ->
            let p =
              Rustudy.load ~file:(e.Rustudy.Corpus.id ^ ".rs")
                e.Rustudy.Corpus.source
            in
            let once () =
              render (uaf p) ^ "\x00" ^ render (double_lock p)
            in
            Alcotest.(check string) e.Rustudy.Corpus.id (once ()) (once ()))
          Rustudy.Corpus.all_bugs);
  ]

(* ---------------- mutual recursion (in-SCC fixpoint) ---------------- *)

let cyclic_src =
  {|
pub unsafe fn ping(m: Arc<Mutex<u64>>, p: *const u8, k: u64) -> u8 {
    let v = pong(m, p, k);
    v
}
pub unsafe fn pong(m: Arc<Mutex<u64>>, p: *const u8, k: u64) -> u8 {
    let v = ping(m, p, k);
    let g = m.lock().unwrap();
    let x = *p;
    x
}
pub fn entry(m: Arc<Mutex<u64>>, p: *const u8) {
    let a = m.lock().unwrap();
    unsafe {
        let v = ping(m, p, 1);
    }
}
|}

let ring_src =
  {|
pub unsafe fn a0(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {
    let v = a1(m, p);
    v
}
pub unsafe fn a1(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {
    let v = a2(m, p);
    v
}
pub unsafe fn a2(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {
    let v = a3(m, p);
    v
}
pub unsafe fn a3(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {
    let v = a0(m, p);
    let g = m.lock().unwrap();
    let x = *p;
    x
}
pub unsafe fn entry(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {
    let g = m.lock().unwrap();
    let v = a0(m, p);
    v
}
|}

let recursion =
  [
    case "mutually recursive SCC converges and matches replay" (fun () ->
        let p = Rustudy.load ~file:"cyclic.rs" cyclic_src in
        let ctx = Rustudy.Cache.create p in
        let scc = Summary.condensation ctx in
        Alcotest.(check bool)
          "one component has a cycle" true
          (Array.exists (fun b -> b) scc.Scc.has_cycle);
        Alcotest.(check bool)
          "ping/pong share a component" true
          (Array.exists (fun ms -> Array.length ms = 2) scc.Scc.members);
        (* A recursive cycle whose summaries keep growing is cut by
           round caps that differ between replay and the engine (5
           whole-program rounds vs 8 SCC-local rounds), so on synthetic
           recursion
           only the *distinct* findings are compared here. The
           corpus/mutant suites above and the lock-cycle case below
           pin the byte-level identity where both fixpoints
           converge. *)
        let distinct run =
          List.sort_uniq compare
            (List.map Rustudy.Finding.to_string (run ()))
        in
        Alcotest.(check (list string))
          "distinct double-lock findings agree"
          (distinct (fun () -> replay_double_lock p))
          (distinct (fun () -> double_lock p));
        Alcotest.(check (list string))
          "distinct uaf findings agree"
          (distinct (fun () -> replay_uaf p))
          (distinct (fun () -> uaf p)));
    case "a held guard across a call into a lock cycle reports once"
      (fun () ->
        (* every member of the a0..a3 cycle reaches the same
           (param0, Mutex) acquisition along every lap; a summary is a
           set of (lock path, kind) entries, so the laps add nothing
           and the one interprocedural double lock is one line *)
        let p = Rustudy.load ~file:"ring.rs" ring_src in
        let s = render (double_lock p) in
        Alcotest.(check int) "one finding line" 1
          (List.length (String.split_on_char '\n' s));
        Alcotest.(check bool) "reported in entry" true
          (String.starts_with ~prefix:"[double-lock] bug in `entry`" s);
        Alcotest.(check string) "summary = replay"
          (render (replay_double_lock p)) s);
  ]

(* ---------------- large programs: once per context ---------------- *)

(* A 30-body chain (past the 24 bodies at which the retired summary
   store used to engage): [sink] locks and dereferences, [f1..f28]
   forward to their predecessor, and [top] holds the lock and passes
   a dangling pointer down, so both detectors report through the whole
   chain. *)
let chain_bodies = 30

let chain_src =
  let b = Buffer.create 4096 in
  let fn name body =
    Buffer.add_string b
      (Printf.sprintf "pub unsafe fn %s {\n%s}\n" name body)
  in
  fn "sink(m: Arc<Mutex<u64>>, p: *const u8) -> u8"
    "    let g = m.lock().unwrap();\n    let x = *p;\n    x\n";
  let link = chain_bodies - 2 in
  for i = 1 to link do
    fn
      (Printf.sprintf "f%d(m: Arc<Mutex<u64>>, p: *const u8) -> u8" i)
      (Printf.sprintf "    let v = %s(m, p);\n    v\n"
         (if i = 1 then "sink" else Printf.sprintf "f%d" (i - 1)))
  done;
  fn "top(m: Arc<Mutex<u64>>) -> u8"
    (Printf.sprintf
       "    let g = m.lock().unwrap();\n    let buf = vec![1u8, 2u8];\n\
       \    let p = buf.as_ptr();\n    drop(buf);\n\
       \    let v = f%d(m, p);\n    v\n"
       link);
  Buffer.contents b

let large =
  [
    case "each function of a large DAG is summarised once per context"
      (fun () ->
        let module M = Support.Metrics in
        let was = M.enabled () in
        Fun.protect
          ~finally:(fun () -> if not was then M.disable ())
          (fun () ->
            M.enable ();
            let p = Rustudy.load ~file:"chain.rs" chain_src in
            Alcotest.(check int) "body count" chain_bodies
              (List.length (Rustudy.Mir.body_list p));
            let computed label =
              M.read_counter ~labels:[ label ] "rustudy_summary_computed_total"
            in
            let clients =
              [
                ( "double_lock",
                  fun ctx -> ignore (Detectors.Double_lock.run_ctx ctx) );
                ("uaf", fun ctx -> ignore (Detectors.Uaf.run_ctx ctx));
              ]
            in
            List.iter
              (fun (label, run) ->
                let ctx = Rustudy.Cache.create p in
                let c0 = computed label in
                run ctx;
                (* a second run on the same context is served by its
                   memo and computes nothing *)
                run ctx;
                Alcotest.(check (float 0.01)) label
                  (float_of_int chain_bodies) (computed label -. c0))
              clients));
    case "two fresh contexts on a large program agree with replay"
      (fun () ->
        let p = Rustudy.load ~file:"chain.rs" chain_src in
        let findings () =
          let ctx = Rustudy.Cache.create p in
          render
            (Detectors.Double_lock.run_ctx ctx @ Detectors.Uaf.run_ctx ctx)
        in
        let first = findings () in
        let second = findings () in
        Alcotest.(check bool) "reports both bugs" true
          (List.length (String.split_on_char '\n' first) = 2);
        Alcotest.(check string) "second context = first" first second;
        Alcotest.(check string) "summary = replay"
          (render (replay_double_lock p @ replay_uaf p))
          first);
  ]

(* ---------------- metrics ------------------------------------------ *)

let chain3_src =
  (* three functions in a chain so a summary actually crosses an edge *)
  {|
pub unsafe fn sink(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {
    let g = m.lock().unwrap();
    let x = *p;
    x
}
pub unsafe fn mid(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {
    let v = sink(m, p);
    v
}
pub unsafe fn top(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {
    let v = mid(m, p);
    v
}
|}

let metrics =
  [
    case "summary counters track computations and instantiations" (fun () ->
        let module M = Support.Metrics in
        let was = M.enabled () in
        Fun.protect
          ~finally:(fun () -> if not was then M.disable ())
          (fun () ->
            M.enable ();
            let read name label = M.read_counter ~labels:[ label ] name in
            let c0 = read "rustudy_summary_computed_total" "uaf" in
            let i0 = read "rustudy_summary_instantiated_total" "uaf" in
            let p = Rustudy.load ~file:"chain3.rs" chain3_src in
            ignore (uaf p);
            let c1 = read "rustudy_summary_computed_total" "uaf" in
            let i1 = read "rustudy_summary_instantiated_total" "uaf" in
            (* three bodies: three summary computations; [mid] and
               [top] each instantiate a callee summary *)
            Alcotest.(check (float 0.01)) "computed" 3.0 (c1 -. c0);
            Alcotest.(check bool) "instantiated" true (i1 -. i0 >= 2.0)));
  ]


(* ---------------- tracing changes no work --------------------------- *)

let compute_spans () =
  List.fold_left
    (fun acc (a : Support.Trace.agg) ->
      if a.Support.Trace.agg_name = "summary.compute" then
        acc + a.Support.Trace.agg_count
      else acc)
    0 (Support.Trace.aggregates ())

(* One detector on a fresh context: its rendered findings, the
   [rustudy_summary_computed_total] delta for its client label, and
   the number of [summary.compute] spans it closed. *)
let observe label run p =
  let module M = Support.Metrics in
  let computed () =
    M.read_counter ~labels:[ label ] "rustudy_summary_computed_total"
  in
  let c0 = computed () and s0 = compute_spans () in
  let out = render (run (Rustudy.Cache.create p)) in
  (out, computed () -. c0, compute_spans () - s0)

let tracing =
  [
    case "tracing changes no work: same findings, same recomputes, one span"
      (fun () ->
        let module M = Support.Metrics in
        let module T = Support.Trace in
        let was_m = M.enabled () and was_t = T.enabled () in
        Fun.protect
          ~finally:(fun () ->
            if not was_m then M.disable ();
            if was_t then T.enable () else T.disable ())
          (fun () ->
            M.enable ();
            List.iter
              (fun (file, src) ->
                let p = Rustudy.load ~file src in
                List.iter
                  (fun (label, run) ->
                    let name = file ^ " " ^ label in
                    T.disable ();
                    let off, c_off, _ = observe label run p in
                    T.enable ();
                    let on, c_on, spans = observe label run p in
                    (* the chain carries one bug of each kind *)
                    if file = "chain.rs" then
                      Alcotest.(check bool) (name ^ ": reports") true
                        (off <> "");
                    Alcotest.(check string) (name ^ ": findings") off on;
                    Alcotest.(check (float 0.01))
                      (name ^ ": summaries computed") c_off c_on;
                    Alcotest.(check int)
                      (name ^ ": one summary.compute span") 1 spans)
                  [
                    ("uaf", fun ctx -> Detectors.Uaf.run_ctx ctx);
                    ( "double_lock",
                      fun ctx -> Detectors.Double_lock.run_ctx ctx );
                  ])
              [ ("chain.rs", chain_src); ("cyclic.rs", cyclic_src) ]));
  ]

(* ---------------- the engine's deadline path ------------------------ *)

let deadline =
  [
    case "an expired deadline stops the engine with a W0402, no exception"
      (fun () ->
        let p = Rustudy.load ~file:"chain.rs" chain_src in
        let unbounded =
          List.map Rustudy.Finding.to_string
            (Detectors.Uaf.run_ctx (Rustudy.Cache.create p))
        in
        let ctx = Rustudy.Cache.create p in
        let bounded =
          match
            Support.Deadline.with_deadline_ms 0 (fun () ->
                Detectors.Uaf.run_ctx ctx)
          with
          | fs -> List.map Rustudy.Finding.to_string fs
          | exception e ->
              Alcotest.failf "run_ctx raised %s" (Printexc.to_string e)
        in
        let is_engine_w0402 (d : Support.Diag.t) =
          d.Support.Diag.code = Support.Diag.Analysis_deadline
          &&
          let msg = d.Support.Diag.message in
          let key = "interprocedural summary" in
          let n = String.length key in
          let rec has i =
            i + n <= String.length msg
            && (String.sub msg i n = key || has (i + 1))
          in
          has 0
        in
        Alcotest.(check bool) "W0402 names the interprocedural summary" true
          (List.exists is_engine_w0402 (Rustudy.Cache.diags ctx));
        List.iter
          (fun f ->
            if not (List.mem f unbounded) then
              Alcotest.failf "finding not in the unbounded run: %s" f)
          bounded);
  ]

let suite =
  scc_props @ differential @ recursion @ large @ metrics @ tracing @ deadline
