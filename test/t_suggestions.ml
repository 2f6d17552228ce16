(* Tests for the tools built from the paper's suggestions: the
   RefCell double-borrow detector, the critical-section visualizer
   (Suggestion 6) and the interior-unsafe encapsulation auditor
   (Suggestion 3). *)

let case name f = Alcotest.test_case name `Quick f

let load src = Rustudy.load ~file:"t.rs" src

let refcell p = Detectors.Refcell.run_ctx (Analysis.Cache.create p)

let suite =
  [
    case "refcell: borrow_mut during outstanding borrow panics" (fun () ->
        let p =
          load
            "struct S { c: RefCell<u32> } fn f(s: Arc<S>) { let a = s.c.borrow(); let b = s.c.borrow_mut(); }"
        in
        Alcotest.(check bool) "flagged" true
          (List.exists
             (fun (f : Rustudy.Finding.finding) ->
               f.Rustudy.Finding.kind = Rustudy.Finding.Borrow_conflict)
             (refcell p)));
    case "refcell: shared/shared borrows are fine" (fun () ->
        let p =
          load
            "struct S { c: RefCell<u32> } fn f(s: Arc<S>) { let a = s.c.borrow(); let b = s.c.borrow(); }"
        in
        Alcotest.(check int) "clean" 0 (List.length (refcell p)));
    case "refcell: drop ends the borrow" (fun () ->
        let p =
          load
            "struct S { c: RefCell<u32> } fn f(s: Arc<S>) { let a = s.c.borrow(); drop(a); let b = s.c.borrow_mut(); }"
        in
        Alcotest.(check int) "clean" 0 (List.length (refcell p)));
    case "lock-scope: reports acquire, release and blocking ops inside"
      (fun () ->
        let p =
          load
            "struct J { n: usize } fn f(j: Arc<Mutex<J>>, rx: Receiver<u8>) { let g = j.lock().unwrap(); let v = rx.recv().unwrap(); drop(g); }"
        in
        match Rustudy.Lock_scope.sections p with
        | [ s ] ->
            Alcotest.(check string) "lock" "param0" s.Rustudy.Lock_scope.cs_lock;
            Alcotest.(check bool) "has release" true
              (s.Rustudy.Lock_scope.cs_release <> None);
            Alcotest.(check int) "one blocking op inside" 1
              (List.length s.Rustudy.Lock_scope.cs_blocking_inside)
        | ss -> Alcotest.failf "expected one section, got %d" (List.length ss));
    case "lock-scope: nothing inside after explicit drop" (fun () ->
        let p =
          load
            "struct J { n: usize } fn f(j: Arc<Mutex<J>>, rx: Receiver<u8>) { let g = j.lock().unwrap(); drop(g); let v = rx.recv().unwrap(); }"
        in
        match Rustudy.Lock_scope.sections p with
        | [ s ] ->
            Alcotest.(check int) "no blocking inside" 0
              (List.length s.Rustudy.Lock_scope.cs_blocking_inside)
        | ss -> Alcotest.failf "expected one section, got %d" (List.length ss));
    case "encapsulation: unchecked index parameter flagged" (fun () ->
        let p =
          load
            "struct T { v: Vec<u64> } impl T { pub fn get(&self, i: usize) -> u64 { unsafe { *self.v.get_unchecked(i) } } }"
        in
        Alcotest.(check int) "one verdict" 1
          (List.length (Rustudy.Encapsulation.audit p)));
    case "encapsulation: guarded access passes" (fun () ->
        let p =
          load
            "struct T { v: Vec<u64> } impl T { pub fn get(&self, i: usize) -> u64 { if i < self.v.len() { unsafe { *self.v.get_unchecked(i) } } else { 0u64 } } }"
        in
        Alcotest.(check int) "clean" 0
          (List.length (Rustudy.Encapsulation.audit p)));
    case "encapsulation: unsafe fn is exempt (caller carries the proof)"
      (fun () ->
        let p =
          load
            "pub unsafe fn read_at(p: *const u8) -> u8 { *p }"
        in
        Alcotest.(check int) "clean" 0
          (List.length (Rustudy.Encapsulation.audit p)));
    case "encapsulation: interior-unsafe ptr param deref flagged" (fun () ->
        let p =
          load
            "pub fn read_at(p: *const u8) -> u8 { unsafe { *p } }"
        in
        Alcotest.(check int) "one verdict" 1
          (List.length (Rustudy.Encapsulation.audit p)));
  ]

(* lifetime visualizer (§7.1 IDE suggestion) *)
let lifetime_suite =
  [
    case "lifetimes: drop site and aliases reported" (fun () ->
        let p =
          load
            "fn f() -> u8 { let v = vec![1u8]; let q = v.as_ptr(); drop(v); unsafe { *q } }"
        in
        let reports = Rustudy.Lifetimes.report p in
        let v =
          List.find
            (fun (r : Rustudy.Lifetimes.var_report) ->
              r.Rustudy.Lifetimes.lr_name = "v")
            reports
        in
        (match v.Rustudy.Lifetimes.lr_end with
        | `Dropped _ -> ()
        | _ -> Alcotest.fail "v should be dropped");
        Alcotest.(check bool) "q aliases v" true
          (List.exists
             (fun (_, n) -> n = "q")
             v.Rustudy.Lifetimes.lr_aliases));
    case "lifetimes: moved variable reported as moved" (fun () ->
        let p = load "fn f() { let a = vec![1u8]; let b = a; }" in
        let a =
          List.find
            (fun (r : Rustudy.Lifetimes.var_report) ->
              r.Rustudy.Lifetimes.lr_name = "a")
            (Rustudy.Lifetimes.report p)
        in
        match a.Rustudy.Lifetimes.lr_end with
        | `Moved -> ()
        | _ -> Alcotest.fail "a should be moved");
  ]

let suite = suite @ lifetime_suite
