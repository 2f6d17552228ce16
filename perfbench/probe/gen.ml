(** Seeded, labeled input generator for the benchmark.

    The call-graph shapes follow the interprocedural scaling generator
    of [bench/scale_gen.ml] (copied here, because [bench/] is an
    executable and cannot be linked): a deep [Chain], a branching
    [Diamond] (heap-layout tree) and an [Scc]-heavy chain of mutually
    recursive groups of five. Every function takes a lock and a raw
    pointer and forwards both to its callees; only the sinks acquire
    the lock and dereference the pointer, so both facts reach every
    caller purely through the interprocedural summaries.

    On top of that each program carries exactly one label, decided by
    construction and never by running the tool:

    - [Double_lock]: at a seeded site a guard on the shared mutex is
      held across a call whose callees (transitively) lock the same
      mutex — the double-lock pattern of the paper's §6.1.
    - [Use_after_free]: at a seeded site a local buffer's raw pointer
      is passed down the call graph, which dereferences it; the site's
      source is run through [Rustudy.Fault.trap_mutations], whose
      [inject_free] mutator drops the buffer right after its binding
      (the free-then-deref CVE pattern of the "Memory-Safety Challenge
      Considered Solved?" study).
    - [Clean]: a bug-free control with the same site, buffer and call
      structure but no drop and no held guard.

    Function names carry a seeded random hex prefix, as in the scaling
    generator, so body iteration order is decorrelated from the call
    direction. Every program is reproducible from its [spec]. *)

type shape = Chain | Diamond | Scc
type label = Double_lock | Use_after_free | Clean

let shape_name = function
  | Chain -> "chain"
  | Diamond -> "diamond"
  | Scc -> "scc"

let label_name = function
  | Double_lock -> "double_lock"
  | Use_after_free -> "use_after_free"
  | Clean -> "clean"

(* The finding kind the label must produce, as [Finding.to_string]
   prints it. *)
let label_tag = function
  | Double_lock -> Some "double-lock"
  | Use_after_free -> Some "use-after-free"
  | Clean -> None

let scc_group = 5

let hex8 r =
  Printf.sprintf "%08Lx"
    (Int64.logand (Rustudy.Fault.next_int64 r) 0xFFFFFFFFL)

(* node -> callee indices *)
let edges shape n i =
  match shape with
  | Chain -> if i + 1 < n then [ i + 1 ] else []
  | Diamond -> List.filter (fun c -> c < n) [ (2 * i) + 1; (2 * i) + 2 ]
  | Scc ->
      let g = i / scc_group in
      let first = g * scc_group in
      let last = min n (first + scc_group) - 1 in
      let cycle =
        if last = first then [] else [ (if i = last then first else i + 1) ]
      in
      if i = first && last + 1 < n then (last + 1) :: cycle else cycle

type spec = { shape : shape; n : int; label : label; seed : int }

type program = {
  spec : spec;
  name : string;  (** file stem, e.g. [chain_2013_double_lock] *)
  source : string;
  site : string;  (** the function the label is planted in *)
}

(* The site's body: a local buffer whose pointer goes down the first
   callee (tail call, so the buffer is the only [let] binding used
   later — the one site [inject_free] can pick), other callees bound
   and discarded. *)
let site_snippet ?(variant = 9) names callees =
  let b = Buffer.create 160 in
  List.iteri
    (fun k c ->
      if k > 0 then
        Buffer.add_string b
          (Printf.sprintf "    let v%d = %s(m, p);\n" k names.(c)))
    callees;
  Buffer.add_string b (Printf.sprintf "    let buf = vec![7u8, %du8];\n" variant);
  Buffer.add_string b
    (Printf.sprintf "    %s(m, buf.as_ptr())\n" names.(List.hd callees));
  Buffer.contents b

let inject_free ~seed snippet =
  match List.assoc_opt "inject_free" (Rustudy.Fault.trap_mutations ~seed snippet) with
  | Some mutant -> mutant
  | None -> failwith "inject_free found no site in the generated snippet"

(** [variant] edits one constant in the site's body: the served mix
    uses it to resubmit a file with a one-function edit. *)
let generate ?variant (spec : spec) : program =
  let { shape; n; label; seed } = spec in
  let r = Rustudy.Fault.rng seed in
  let names = Array.init n (fun i -> Printf.sprintf "f%s_%d" (hex8 r) i) in
  (* the site: a non-sink function, seeded *)
  let site =
    let rec pick () =
      let i = Rustudy.Fault.next_int r n in
      if edges shape n i = [] || i = n - 1 then pick () else i
    in
    pick ()
  in
  let buf = Buffer.create (n * 160) in
  for i = 0 to n - 1 do
    let callees = edges shape n i in
    let sink = callees = [] || i = n - 1 in
    Buffer.add_string buf
      (Printf.sprintf
         "pub unsafe fn %s(m: Arc<Mutex<u64>>, p: *const u8) -> u8 {\n"
         names.(i));
    if i = site then begin
      let snippet = site_snippet ?variant names callees in
      match label with
      | Use_after_free -> Buffer.add_string buf (inject_free ~seed snippet)
      | Clean -> Buffer.add_string buf snippet
      | Double_lock ->
          Buffer.add_string buf "    let g0 = m.lock().unwrap();\n";
          Buffer.add_string buf snippet
    end
    else begin
      List.iteri
        (fun k c ->
          Buffer.add_string buf
            (Printf.sprintf "    let v%d = %s(m, p);\n" k names.(c)))
        callees;
      if sink then begin
        Buffer.add_string buf "    let g = m.lock().unwrap();\n";
        Buffer.add_string buf "    let x = *p;\n    x\n"
      end
      else Buffer.add_string buf "    v0\n"
    end;
    Buffer.add_string buf "}\n"
  done;
  {
    spec;
    name = Printf.sprintf "%s_%d_%s" (shape_name shape) n (label_name label);
    source = Buffer.contents buf;
    site = names.(site);
  }

(** The [check_scale] set for one benchmark seed: every shape at three
    sizes near 1k, 2k and 3k functions (seeded jitter of up to 5%),
    nine programs. The labels form a Latin square over shape and size
    (each shape and each size carries each label once), rotated by the
    seed, so that seeds move names, sites, sizes and which cell holds
    which label, but not the mix. *)
let check_set ~seed : program list =
  let r = Rustudy.Fault.rng (seed lxor 0x5CA1E) in
  let labels = [| Double_lock; Use_after_free; Clean |] in
  let rot = Rustudy.Fault.next_int r 3 in
  List.concat
    (List.mapi
       (fun row shape ->
         List.mapi
           (fun col base ->
             let n = base + Rustudy.Fault.next_int r ((base / 20) + 1) in
             generate
               {
                 shape;
                 n;
                 label = labels.((row + col + rot) mod 3);
                 seed = Int64.to_int (Rustudy.Fault.next_int64 r) land 0x3FFFFFFF;
               })
           [ 1000; 2000; 3000 ])
       [ Chain; Diamond; Scc ])

(** The served mix's six mid-sized programs (100–300 functions): big
    enough to engage the summary store, small enough to serve. Sizes
    are spread evenly over the range (seeded jitter of up to 5%), the
    shapes cycle chain, diamond, SCC, and every label appears twice,
    rotated by the seed, so that seeds move the programs but not the
    mix of their costs. *)
let served_larges ~seed : spec array =
  let r = Rustudy.Fault.rng (seed lxor 0x1A26E) in
  let rot = Rustudy.Fault.next_int r 3 in
  Array.init 6 (fun i ->
      let base = 100 + (40 * i) in
      {
        shape = [| Chain; Diamond; Scc |].(i mod 3);
        n = base + Rustudy.Fault.next_int r ((base / 20) + 1);
        label = [| Double_lock; Use_after_free; Clean |].((i / 2 + rot) mod 3);
        seed = Int64.to_int (Rustudy.Fault.next_int64 r) land 0x3FFFFFFF;
      })
