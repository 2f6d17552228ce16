(* The paper's Fig. 7 use-after-free (rust-openssl CVE shape): a
   temporary created in a match arm dies at the end of the arm, but its
   pointer escapes into an FFI call.

   Run with: dune exec examples/find_use_after_free.exe *)

let buggy =
  {|
struct BioSlice { len: i32 }
impl BioSlice {
    fn new(data: i32) -> BioSlice { BioSlice { len: data } }
}
fn sign(data: Option<i32>) {
    let p = match data {
        Some(data) => BioSlice::new(data).as_ptr(),
        None => ptr::null_mut(),
    };
    unsafe {
        CMS_sign(p);
    }
}
|}

let fixed =
  {|
struct BioSlice { len: i32 }
impl BioSlice {
    fn new(data: i32) -> BioSlice { BioSlice { len: data } }
}
fn sign(data: Option<i32>) {
    // keep the BioSlice alive in a binding that outlives the call
    let bio = match data {
        Some(data) => Some(BioSlice::new(data)),
        None => None,
    };
    let p = match bio {
        Some(ref b) => b.as_ptr(),
        None => ptr::null_mut(),
    };
    unsafe {
        CMS_sign(p);
    }
}
|}

let run name source =
  let program = Rustudy.load ~file:(name ^ ".rs") source in
  let findings = Detectors.Uaf.run_ctx (Rustudy.Cache.create program) in
  Printf.printf "%s: %d use-after-free finding(s)\n" name (List.length findings);
  List.iter (fun f -> print_endline ("  " ^ Rustudy.Finding.to_string f)) findings

let () =
  run "fig7-buggy" buggy;
  run "fig7-fixed" fixed
