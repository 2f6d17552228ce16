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
      if D.All.bugs_ctx (Cache.create p) = [] then
        Alcotest.failf "%s: no finding" name;
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

(* A program whose bodies pass every detector's gate. *)
let admits_all =
  {|
struct Counter { n: Cell<u64> }
unsafe impl Sync for Counter {}
impl Counter {
    pub fn bump(&self) {
        self.n.set(1);
    }
}
struct Seal { proposed: AtomicBool }
impl Seal {
    fn generate(&self) -> u32 {
        if self.proposed.load() {
            return 0u32;
        }
        self.proposed.store(true);
        1u32
    }
}
static INIT: Once = Once::new();
fn init() {
    INIT.call_once(|| {
        let x = 1;
    });
}
pub unsafe fn memory(v: u8) -> u8 {
    let x = 1u8;
    let p = &x as *const u8;
    let b = Box::new(v);
    let q = Box::into_raw(b);
    let y = ptr::read(q);
    *q = 2u8;
    let n = ptr::null::<u8>();
    let z = *n;
    let mut buf: Vec<u8> = Vec::with_capacity(4);
    buf.set_len(4);
    let w = *buf.get_unchecked(1);
    let s: String = mem::uninitialized();
    y
}
pub fn locks(a: Arc<Mutex<u64>>, b: Arc<Mutex<u64>>, cv: Arc<Condvar>) {
    let g = a.lock().unwrap();
    let h = b.lock().unwrap();
    let g2 = cv.wait(g).unwrap();
}
pub fn chan() {
    let (tx, rx) = channel::<u32>();
    let job = rx.recv().unwrap();
}
pub fn twice(c: RefCell<u64>) -> u64 {
    let a = c.borrow_mut();
    let b = c.borrow_mut();
    0
}
|}

(* The detector names are written twice: in [All.detectors], which
   labels the spans and run counters, and in each detector's call to
   [Gate.select], which labels the body counter. One traced, metered
   [bugs_ctx] must count every table name once, label bodies only with
   table names, and run the table in reverse order. *)
let names_agree () =
  let module M = Support.Metrics in
  let module T = Support.Trace in
  let names = List.map fst D.All.detectors in
  let was_m = M.enabled () and was_t = T.enabled () in
  Fun.protect
    ~finally:(fun () ->
      if not was_m then M.disable ();
      if not was_t then T.disable ();
      T.reset ())
    (fun () ->
      M.enable ();
      T.enable ();
      M.reset ();
      T.reset ();
      let p = Rustudy.load ~file:"admits-all.rs" admits_all in
      ignore (D.All.bugs_ctx (Cache.create p));
      List.iter
        (fun name ->
          Alcotest.(check (float 0.01))
            (name ^ " runs") 1.
            (M.read_counter ~labels:[ name ] "rustudy_detector_runs_total");
          Alcotest.(check bool)
            (name ^ " admits a body") true
            (M.read_counter ~labels:[ name; "visited" ]
               "rustudy_detector_bodies_total"
            > 0.))
        names;
      (* every label the body counter carries, from the text export *)
      let prefix = "rustudy_detector_bodies_total{detector=\"" in
      let labelled =
        List.filter_map
          (fun line ->
            if String.starts_with ~prefix line then
              let from = String.length prefix in
              let upto = String.index_from line from '"' in
              Some (String.sub line from (upto - from))
            else None)
          (String.split_on_char '\n' (M.export_prometheus ()))
      in
      Alcotest.(check bool) "the body counter has samples" true
        (labelled <> []);
      List.iter
        (fun l ->
          if not (List.mem l names) then
            Alcotest.failf "body counter label %S is not a table name" l)
        labelled;
      let spans =
        match Support.Sjson.parse (T.export_chrome ()) with
        | Support.Sjson.List events ->
            List.filter_map
              (fun e ->
                match Support.Sjson.str_member "name" e with
                | Some n when String.starts_with ~prefix:"detector." n ->
                    Some (String.sub n 9 (String.length n - 9))
                | _ -> None)
              events
        | _ -> Alcotest.fail "trace export is not a JSON array"
      in
      Alcotest.(check (list string)) "span order" (List.rev names) spans)

let suite =
  [
    case "gates exclude only bodies that cannot report (corpus + mutants)"
      corpus_and_mutants;
    case "gates exclude only bodies that cannot report (scale programs)"
      scale_programs;
    case "gates exclude only bodies that cannot report (edge programs)" edges;
    case "detector body counter splits visited and skipped by the gate"
      bodies_counter;
    case "detector table names agree with gate labels and span order"
      names_agree;
  ]
