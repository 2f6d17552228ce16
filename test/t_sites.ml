(* The construct index (Mir.sites, memoised by Analysis.Cache.sites)
   and the site gates built on it (Detectors.Gate).

   The property: a gate is a necessary condition. For every detector
   and every body its gate excludes, the detector's ungated per-body
   check, run on freshly computed analyses, reports nothing. Checked
   over the corpus, every recovery and trap mutant, and the scaling
   generator's programs of every shape at 100 functions. The memoised
   index must also equal a from-scratch recomputation. *)

module Mir = Ir.Mir
module Cache = Analysis.Cache
module G = Detectors.Gate
module D = Detectors

let case name f = Alcotest.test_case name `Quick f

(* (detector, gate, ungated per-body check returning its finding or
   site count) for one program; the checks share one fresh context
   that the gates never see *)
let checks (p : Mir.program) : (string * (int -> bool) * (Mir.body -> int)) list
    =
  let fresh = Cache.create p in
  let uaf = lazy (D.Uaf.compute_summaries fresh) in
  let dlock = lazy (D.Double_lock.compute_summaries fresh) in
  let n = List.length in
  let resolve = Analysis.Alias.resolve in
  [
    ("uaf", G.uaf, fun b -> n (D.Uaf.check_body fresh (Lazy.force uaf) b));
    ("double_free", G.double_free, fun b -> n (D.Double_free.run_body b));
    ("invalid_free", G.invalid_free, fun b -> n (D.Invalid_free.run_body b));
    ( "invalid_free (uninit drop)",
      G.invalid_free_uninit,
      fun b -> n (D.Uninit.uninit_drop b) );
    ("uninit", G.uninit, fun b -> n (D.Uninit.run_body b));
    ("uninit (set_len)", G.uninit_set_len, fun b -> n (D.Uninit.set_len_reads b));
    ("null_deref", G.null_deref, fun b -> n (D.Null_deref.run_body b));
    ("buffer", G.buffer, fun b -> n (D.Buffer.run_body b));
    ( "double_lock",
      G.double_lock,
      fun b -> n (D.Double_lock.check_body fresh (Lazy.force dlock) b) );
    ("lock_order", G.lock_order, fun b -> n (D.Double_lock.order_pairs b));
    ( "condvar",
      G.condvar,
      fun b ->
        let waits, notifies = D.Condvar.condvar_sites_with resolve [ b ] in
        n waits + n notifies );
    ( "channel",
      G.channel,
      fun b ->
        let recvs, sends = D.Channel.channel_sites_with resolve [ b ] in
        n recvs + n sends );
    ("once", G.once, fun b -> n (D.Once.call_once_roots_with (resolve b) b));
    ("sync_misuse", G.sync_misuse, fun b -> n (D.Sync_misuse.run_body p b));
    ("atomicity", G.atomicity, fun b -> n (D.Atomicity.run_body b));
    ( "atomicity_sessions",
      G.atomicity_sessions,
      fun b -> n (D.Atomicity.two_session b) );
    ("refcell", G.refcell, fun b -> n (D.Refcell.run_body b));
  ]

(* Checks one program; returns (excluded, admitted) (body, detector)
   pairs. *)
let check_program label (p : Mir.program) : int * int =
  let ctx = Cache.create p in
  let checks = checks p in
  let excluded = ref 0 and admitted = ref 0 in
  List.iter
    (fun (b : Mir.body) ->
      let s = Cache.sites ctx b in
      if s <> Mir.sites b || Cache.sites ctx b <> s then
        Alcotest.failf "%s/%s: memoised index %d <> recomputed %d" label
          b.Mir.fn_id s (Mir.sites b);
      List.iter
        (fun (name, gate, run) ->
          if gate s then incr admitted
          else begin
            incr excluded;
            let k = run b in
            if k <> 0 then
              Alcotest.failf "%s/%s: %s gate excludes the body, which yields %d"
                label b.Mir.fn_id name k
          end)
        checks)
    (Mir.body_list p);
  (* the program-level gates: the union index, and once's call graph *)
  let union =
    List.fold_left (fun acc b -> acc lor Mir.sites b) 0 (Mir.body_list p)
  in
  if Cache.program_sites ctx <> union then
    Alcotest.failf "%s: program index differs from the union" label;
  if
    (not (G.once union))
    && List.exists
         (fun (e : Analysis.Callgraph.edge) ->
           e.Analysis.Callgraph.kind = Analysis.Callgraph.Once_closure)
         (Analysis.Callgraph.build p).Analysis.Callgraph.edges
  then Alcotest.failf "%s: a Once_closure edge without a call_once site" label;
  (!excluded, !admitted)

let corpus_and_mutants () =
  let excluded = ref 0 and admitted = ref 0 and mutants = ref 0 in
  let run label p =
    let e, a = check_program label p in
    excluded := !excluded + e;
    admitted := !admitted + a
  in
  List.iter
    (fun (e : Corpus.entry) ->
      let id = e.Corpus.id in
      run id (Rustudy.load ~file:(id ^ ".rs") e.Corpus.source);
      List.iter
        (fun (mname, src) ->
          match
            Cache.load_ctx_recovering ~cache:false
              ~file:(id ^ "+" ^ mname ^ ".rs") src
          with
          | Ok ctx ->
              incr mutants;
              run (id ^ "+" ^ mname) (Cache.program ctx)
          | Error _ -> ())
        (Support.Fault.mutations ~seed:0x5EED e.Corpus.source
        @ Support.Fault.trap_mutations ~seed:0x5EED e.Corpus.source))
    Corpus.all_bugs;
  if !mutants < 1000 then
    Alcotest.failf "only %d mutants lowered — the property corpus shrank"
      !mutants;
  Alcotest.(check bool) "some bodies excluded" true (!excluded > 0);
  Alcotest.(check bool) "some bodies admitted" true (!admitted > 0)

let scale_programs () =
  List.iter
    (fun shape ->
      let name = Scale_gen.shape_name shape ^ "_100" in
      let src = Scale_gen.program ~seed:1 ~shape ~n:100 in
      ignore (check_program name (Rustudy.load ~file:(name ^ ".rs") src)))
    [ Scale_gen.Chain; Scale_gen.Diamond; Scale_gen.Scc ]

(* One program per site the corpus reaches only alongside another
   site of the same gate, so each index bit is pinned by a body that
   reports through it alone. *)
let edge_programs =
  [
    ( "null_cast",
      {|
pub unsafe fn f() -> u8 {
    let p = 0 as *const u8;
    let x = *p;
    x
}
|} );
    ( "ctor_heap",
      {|
pub unsafe fn boxed() -> u8 {
    let b = Box::new(1u8);
    let p = Box::into_raw(b);
    let x = ptr::read(p);
    x
}
|} );
    ( "refcell",
      {|
pub fn twice(c: RefCell<u64>) -> u64 {
    let a = c.borrow_mut();
    let b = c.borrow_mut();
    0
}
|} );
    ( "cell_set",
      {|
struct Counter { n: Cell<u64> }
unsafe impl Sync for Counter {}
impl Counter {
    pub fn bump(&self) {
        self.n.set(1);
    }
}
|} );
    ( "ptr_write",
      {|
struct Slot { v: u64 }
unsafe impl Sync for Slot {}
impl Slot {
    pub fn put(&self) {
        unsafe {
            ptr::write(&self.v as *const u64 as *mut u64, 1);
        }
    }
}
|} );
  ]

let edges () =
  List.iter
    (fun (name, src) ->
      let p = Rustudy.load ~file:(name ^ ".rs") src in
      if D.All.bugs p = [] then Alcotest.failf "%s: no finding" name;
      ignore (check_program name p))
    edge_programs

(* rustudy_detector_bodies_total: one visited-or-skipped count per body
   and detector run, split exactly as the gate splits the bodies *)
let bodies_counter () =
  let module M = Support.Metrics in
  let was = M.enabled () in
  Fun.protect
    ~finally:(fun () -> if not was then M.disable ())
    (fun () ->
      M.enable ();
      let src = Scale_gen.program ~seed:1 ~shape:Scale_gen.Chain ~n:100 in
      let p = Rustudy.load ~file:"counted.rs" src in
      let ctx = Cache.create p in
      let read det outcome =
        M.read_counter ~labels:[ det; outcome ] "rustudy_detector_bodies_total"
      in
      let dets =
        [
          ("uaf", G.uaf);
          ("double_lock", G.double_lock);
          ("null_deref", G.null_deref);
          ("lock_order", G.lock_order);
          ("refcell", G.refcell);
        ]
      in
      let before =
        List.map (fun (d, _) -> (read d "visited", read d "skipped")) dets
      in
      ignore (D.All.bugs_ctx ctx);
      let bodies = Mir.body_list p in
      List.iter2
        (fun (d, gate) (v0, s0) ->
          let admitted =
            List.length (List.filter (fun b -> gate (Mir.sites b)) bodies)
          in
          Alcotest.(check (float 0.01))
            (d ^ " visited") (float_of_int admitted) (read d "visited" -. v0);
          Alcotest.(check (float 0.01))
            (d ^ " skipped")
            (float_of_int (List.length bodies - admitted))
            (read d "skipped" -. s0))
        dets before;
      (* the chain's interior bodies only forward their arguments *)
      Alcotest.(check bool) "double_lock skips the pass-through bodies" true
        (read "double_lock" "skipped" > 0.))

let suite =
  [
    case "gates exclude only bodies that cannot report (corpus + mutants)"
      corpus_and_mutants;
    case "gates exclude only bodies that cannot report (scale programs)"
      scale_programs;
    case "gates exclude only bodies that cannot report (edge programs)" edges;
    case "detector body counter splits visited and skipped by the gate"
      bodies_counter;
  ]
