(* The summary-based interprocedural engine (Analysis.Summary):
   QCheck properties of the SCC condensation against a brute-force
   reachability oracle, differential byte-identity of summary-mode vs
   replay-mode detector findings over the full corpus and every fault
   mutant, once-per-context summaries on large programs, the escape
   client, and the parallel wave path. *)

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
                 leaving a component lands in a smaller id; [order] is
                 the identity over ids, making it a valid
                 reverse-topological order *)
              if cu <> cv && cv >= cu then ok := false)
            vs)
        succs;
      !ok
      && Array.length scc.Scc.order = scc.Scc.count
      && Array.for_all
           (fun i -> scc.Scc.order.(i) = i)
           (Array.init scc.Scc.count (fun i -> i)))

let scc_waves =
  prop "condense: waves partition the order and only depend on earlier \
        waves" (fun (n, succs) ->
      let scc = Scc.condense ~n ~succs in
      ignore n;
      let wave_of = Array.make scc.Scc.count (-1) in
      Array.iteri
        (fun w cs -> Array.iter (fun c -> wave_of.(c) <- w) cs)
        scc.Scc.waves;
      Array.for_all (fun w -> w >= 0) wave_of
      && Array.for_all
           (fun u ->
             Array.for_all
               (fun v ->
                 let cu = scc.Scc.comp_of.(u) and cv = scc.Scc.comp_of.(v) in
                 cu = cv || wave_of.(cv) < wave_of.(cu))
               succs.(u))
           (Array.init (Array.length succs) (fun i -> i)))

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
      && a.Scc.order = b.Scc.order
      && a.Scc.waves = b.Scc.waves
      && a.Scc.has_cycle = b.Scc.has_cycle)

let scc_props =
  List.map QCheck_alcotest.to_alcotest
    [
      scc_partition;
      scc_oracle;
      scc_acyclic_reverse_topo;
      scc_waves;
      scc_has_cycle;
      scc_deterministic;
    ]

(* ---------------- differential: summary vs replay ------------------ *)

(* Byte-identical findings: same bugs, same spans, same order, same
   rendered text. *)
let render findings = String.concat "\n" (List.map Rustudy.Finding.to_string findings)

let both_modes label (program : Rustudy.Mir.program) =
  let check name run =
    let s = render (run Summary.Summary) and r = render (run Summary.Replay) in
    Alcotest.(check string) (label ^ ": " ^ name) r s
  in
  check "double_lock" (fun mode -> Detectors.Double_lock.run ~mode program);
  check "uaf extern=true" (fun mode ->
      Detectors.Uaf.run ~assume_extern_derefs:true ~mode program);
  check "uaf extern=false" (fun mode ->
      Detectors.Uaf.run ~assume_extern_derefs:false ~mode program)

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
            both_modes e.Rustudy.Corpus.id p)
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
                    both_modes label (Rustudy.Cache.program ctx)
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
              render (Detectors.Uaf.run ~mode:Summary.Summary p)
              ^ "\x00"
              ^ render (Detectors.Double_lock.run ~mode:Summary.Summary p)
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
        (* A recursive cycle keeps duplicating lock-path entries until
           a round cap fires, and the two modes cap differently (5
           whole-program rounds vs 8 SCC-local rounds) — so on
           divergent synthetic recursion only the *distinct* findings
           are comparable. The corpus/mutant suites above pin the
           byte-level identity where both fixpoints genuinely
           converge. *)
        let distinct run =
          List.sort_uniq compare
            (List.map Rustudy.Finding.to_string (run ()))
        in
        Alcotest.(check (list string))
          "distinct double-lock findings agree"
          (distinct (fun () ->
               Detectors.Double_lock.run ~mode:Summary.Replay p))
          (distinct (fun () ->
               Detectors.Double_lock.run ~mode:Summary.Summary p));
        Alcotest.(check (list string))
          "distinct uaf findings agree"
          (distinct (fun () -> Detectors.Uaf.run ~mode:Summary.Replay p))
          (distinct (fun () -> Detectors.Uaf.run ~mode:Summary.Summary p)));
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
            let mode = Summary.Summary in
            let clients =
              [
                ( "double_lock",
                  fun ctx -> ignore (Detectors.Double_lock.run_ctx ~mode ctx) );
                ("uaf", fun ctx -> ignore (Detectors.Uaf.run_ctx ~mode ctx));
                ("escape", fun ctx -> ignore (Summary.escape_summaries ctx));
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
        let findings mode =
          let ctx = Rustudy.Cache.create p in
          render
            (Detectors.Double_lock.run_ctx ~mode ctx
            @ Detectors.Uaf.run_ctx ~mode ctx)
        in
        let first = findings Summary.Summary in
        let second = findings Summary.Summary in
        Alcotest.(check bool) "reports both bugs" true
          (List.length (String.split_on_char '\n' first) = 2);
        Alcotest.(check string) "second context = first" first second;
        Alcotest.(check string) "summary = replay" (findings Summary.Replay)
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
            ignore (Detectors.Uaf.run ~mode:Summary.Summary p);
            let c1 = read "rustudy_summary_computed_total" "uaf" in
            let i1 = read "rustudy_summary_instantiated_total" "uaf" in
            (* three bodies: three summary computations; [mid] and
               [top] each instantiate a callee summary *)
            Alcotest.(check (float 0.01)) "computed" 3.0 (c1 -. c0);
            Alcotest.(check bool) "instantiated" true (i1 -. i0 >= 2.0)));
  ]

(* ---------------- escape client ------------------------------------ *)

let escape_src =
  {|
static mut STASH: u64 = 0;
pub fn ident(x: u64) -> u64 {
    x
}
pub unsafe fn leak(x: u64, y: u64) -> u64 {
    STASH = x;
    y
}
pub unsafe fn via(a: u64, b: u64) -> u64 {
    let v = leak(a, b);
    v
}
|}

let escape =
  [
    case "escape summaries: returned and escaped params, transitively"
      (fun () ->
        let p = Rustudy.load ~file:"escape.rs" escape_src in
        let ctx = Rustudy.Cache.create p in
        let tbl = Summary.escape_summaries ctx in
        let get fn =
          match Hashtbl.find_opt tbl fn with
          | Some e -> e
          | None -> Alcotest.failf "no escape summary for %s" fn
        in
        let mem i s = Analysis.Dataflow.IntSet.mem i s in
        let id = get "ident" in
        Alcotest.(check bool) "ident returns param 0" true
          (mem 0 id.Summary.esc_returned);
        Alcotest.(check bool) "ident escapes nothing" true
          (Analysis.Dataflow.IntSet.is_empty id.Summary.esc_escaped);
        let lk = get "leak" in
        Alcotest.(check bool) "leak escapes param 0" true
          (mem 0 lk.Summary.esc_escaped);
        Alcotest.(check bool) "leak returns param 1" true
          (mem 1 lk.Summary.esc_returned);
        let v = get "via" in
        Alcotest.(check bool) "via escapes param 0 through leak" true
          (mem 0 v.Summary.esc_escaped));
  ]

(* ---------------- parallel wave path ------------------------------- *)

let parallel =
  [
    case "domains:2 computes the same summary table" (fun () ->
        let src = Buffer.create 1024 in
        (* a small diamond: root calls eight leaves *)
        for i = 0 to 7 do
          Buffer.add_string src
            (Printf.sprintf
               "pub unsafe fn leaf%d(p: *const u8) -> u8 {\n    let x = *p;\n\
               \    x\n}\n" i)
        done;
        Buffer.add_string src "pub unsafe fn root(p: *const u8) -> u8 {\n";
        for i = 0 to 7 do
          Buffer.add_string src (Printf.sprintf "    let v%d = leaf%d(p);\n" i i)
        done;
        Buffer.add_string src "    v0\n}\n";
        let p = Rustudy.load ~file:"par.rs" (Buffer.contents src) in
        let seq = render (Detectors.Uaf.run ~mode:Summary.Summary p) in
        let ctx = Rustudy.Cache.create p in
        let tbl =
          Summary.compute ~domains:2 ctx
            {
              Summary.name = "t_par";
              equal = ( = );
              compute =
                (fun ~lookup (b : Rustudy.Mir.body) ->
                  Array.length b.Rustudy.Mir.blocks
                  + List.length
                      (List.filter_map lookup
                         [ "leaf0"; "leaf1"; "root" ]));
            }
        in
        Alcotest.(check int) "9 summaries" 9 (Hashtbl.length tbl);
        (* findings through the parallel engine stay identical *)
        let par =
          render
            (Detectors.Uaf.run_ctx ~mode:Summary.Summary
               (Rustudy.Cache.create p))
        in
        Alcotest.(check string) "sequential = fresh context" seq par);
  ]

let suite =
  scc_props @ differential @ recursion @ large @ metrics @ escape @ parallel
