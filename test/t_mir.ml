(* MIR lowering tests: structural invariants plus the drop/storage
   semantics the detectors rely on. *)

module Mir = Rustudy.Mir

let load src = Rustudy.load ~file:"t.rs" src

let body program name =
  match Rustudy.Mir.find_body program name with
  | Some b -> b
  | None -> Alcotest.fail ("no body " ^ name)

let case name f = Alcotest.test_case name `Quick f

(* Structural invariants reused by the property tests. *)
let check_invariants (b : Mir.body) =
  let nblocks = Array.length b.Mir.blocks in
  let nlocals = Array.length b.Mir.locals in
  Array.iter
    (fun (blk : Mir.block) ->
      List.iter
        (fun t ->
          Alcotest.(check bool) "successor in range" true (t >= 0 && t < nblocks))
        (Mir.successors blk.Mir.term);
      List.iter
        (fun (s : Mir.stmt) ->
          match s.Mir.kind with
          | Mir.StorageLive l | Mir.StorageDead l ->
              Alcotest.(check bool) "local in range" true (l >= 0 && l < nlocals)
          | Mir.Assign (p, _) | Mir.Drop p ->
              Alcotest.(check bool) "base in range" true
                (p.Mir.base >= 0 && p.Mir.base < nlocals)
          | Mir.Nop -> ())
        blk.Mir.stmts)
    b.Mir.blocks

let stmt_kinds (b : Mir.body) =
  Array.to_list b.Mir.blocks
  |> List.concat_map (fun (blk : Mir.block) ->
         List.map (fun (s : Mir.stmt) -> s.Mir.kind) blk.Mir.stmts)

let count_drops b =
  List.length
    (List.filter (function Mir.Drop _ -> true | _ -> false) (stmt_kinds b))

let calls (b : Mir.body) =
  Array.to_list b.Mir.blocks
  |> List.filter_map (fun (blk : Mir.block) ->
         match blk.Mir.term with Mir.Call (c, _) -> Some c | _ -> None)

let suite =
  [
    case "every body satisfies structural invariants" (fun () ->
        let p =
          load
            {|
struct S { v: Vec<u8> }
fn f(s: S, n: usize) -> u8 {
    let mut total = 0u8;
    for i in 0..n {
        if i > 2 { total = total + 1u8; } else { continue; }
    }
    match s.v.pop() {
        Some(b) => b,
        None => total,
    }
}
|}
        in
        List.iter check_invariants (Mir.body_list p));
    case "owned local dropped exactly once at scope end" (fun () ->
        let p = load "fn f() { let v = vec![1u8]; }" in
        Alcotest.(check int) "one drop" 1 (count_drops (body p "f")));
    case "moved local is not dropped" (fun () ->
        let p = load "fn f() { let v = vec![1u8]; let w = v; }" in
        (* only w owns the vec at scope end *)
        Alcotest.(check int) "one drop" 1 (count_drops (body p "f")));
    case "lock call classified as builtin with receiver arg" (fun () ->
        let p =
          load "fn f(m: Arc<Mutex<u32>>) { let g = m.lock().unwrap(); }"
        in
        let locks =
          List.filter
            (fun (c : Mir.call) -> c.Mir.callee = Mir.Builtin Mir.MutexLock)
            (calls (body p "f"))
        in
        Alcotest.(check int) "one lock call" 1 (List.length locks);
        match (List.hd locks).Mir.args with
        | [ (Mir.Copy pl | Mir.Move pl) ] ->
            Alcotest.(check int) "receiver is the param" 0 pl.Mir.base
        | _ -> Alcotest.fail "unexpected args");
    case "guard from match scrutinee lives to end of match (extended)"
      (fun () ->
        (* the double-lock detector depends on this exact shape *)
        let src =
          {|
struct I { m: i32 }
fn check(x: i32) -> Result<i32, i32> { Ok(x) }
fn f(c: Arc<RwLock<I>>) {
    match check(c.read().unwrap().m) {
        Ok(_) => { let w = c.write().unwrap(); }
        Err(_) => {}
    };
}
|}
        in
        let p = load src in
        Alcotest.(check bool) "double lock found" true
          (Detectors.Double_lock.run_ctx (Analysis.Cache.create p) <> []);
        let p' =
          Rustudy.load
            ~config:{ Ir.Lower.tmp_lifetime = Ir.Lower.Statement_local }
            ~file:"t.rs" src
        in
        Alcotest.(check bool) "ablated: no double lock" true
          (Detectors.Double_lock.run_ctx (Analysis.Cache.create p') = []));
    case "assignment drops the old value before writing" (fun () ->
        let p =
          load "fn f() { let mut v = vec![1u8]; v = vec![2u8]; }"
        in
        (* old value dropped at assignment + final value at scope end *)
        Alcotest.(check int) "two drops" 2 (count_drops (body p "f")));
    case "explicit drop() lowers to a Drop statement" (fun () ->
        let p = load "fn f() { let v = vec![1u8]; drop(v); }" in
        Alcotest.(check int) "one drop" 1 (count_drops (body p "f")));
    case "closures become separate bodies with captures" (fun () ->
        let p =
          load
            "fn f(m: Arc<Mutex<u32>>) { let t = thread::spawn(move || { let g = m.lock().unwrap(); }); }"
        in
        let names = List.map (fun (b : Mir.body) -> b.Mir.fn_id) (Mir.body_list p) in
        Alcotest.(check bool) "closure body exists" true
          (List.exists (fun n -> String.length n > 1 && String.sub n 0 1 = "f" && n <> "f") names);
        let cl =
          List.find (fun (b : Mir.body) -> b.Mir.fn_id <> "f") (Mir.body_list p)
        in
        Alcotest.(check bool) "captures recorded" true (cl.Mir.captures <> []));
    case "statics become pseudo-locals" (fun () ->
        let p =
          load "static mut N: u32 = 0; fn f() -> u32 { unsafe { N } }"
        in
        let b = body p "f" in
        Alcotest.(check bool) "static local exists" true
          (Array.exists
             (fun (i : Mir.local_info) -> i.Mir.l_name = Some "static:N")
             b.Mir.locals));
    case "unsafe fn body is an unsafe region" (fun () ->
        let p = load "pub unsafe fn f(p: *const u8) -> u8 { *p }" in
        Alcotest.(check bool) "region recorded" true (p.Mir.unsafe_spans <> []));
    case "return value survives scope-end drops" (fun () ->
        let p =
          load "fn f() -> Vec<u8> { let v = vec![1u8]; v }"
        in
        (* v is moved into the return place: no drop at all *)
        Alcotest.(check int) "no drops" 0 (count_drops (body p "f")));
  ]
