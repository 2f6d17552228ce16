(* Audit a multi-threaded module for every blocking hazard the paper
   studies: double locks, conflicting lock orders, lost condvar
   wakeups, and channel deadlocks.

   Run with: dune exec examples/audit_locks.exe *)

let source =
  {|
struct Ledger { total: u64 }

fn main() {
    let ledger = Arc::new(Mutex::new(Ledger { total: 0 }));
    let audit = Arc::new(Mutex::new(0u64));

    let l2 = ledger.clone();
    let a2 = audit.clone();
    // worker: audit -> ledger
    let worker = thread::spawn(move || {
        let a = a2.lock().unwrap();
        let l = l2.lock().unwrap();
    });

    // main: ledger -> audit  (opposite order: ABBA deadlock)
    let l = ledger.lock().unwrap();
    let a = audit.lock().unwrap();
}
|}

(* the §6.1 blocking detectors' rows of the detector table *)
let blocking = [ "double_lock"; "lock_order"; "condvar"; "channel"; "once" ]

let () =
  let ctx = Rustudy.Cache.create (Rustudy.load ~file:"audit.rs" source) in
  let findings =
    List.concat_map
      (fun (name, run) -> if List.mem name blocking then run ctx else [])
      Rustudy.Detect.detectors
  in
  Printf.printf "blocking audit: %d finding(s)\n" (List.length findings);
  List.iter (fun f -> print_endline ("  " ^ Rustudy.Finding.to_string f)) findings
