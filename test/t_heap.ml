(* Live-heap guard for the frontend: what the AST and the MIR of a
   1000-function program keep alive, in words, stays within a bound.

   The AST and the MIR live until exit, so every word per node is paid
   for the whole run and promoted by every minor collection. The
   bounds sit about 2% above what one-block spans, signatures resolved
   once and shared per-local MIR values give (AST 341 433 words, AST
   plus MIR 639 262); three-block spans measured 579 859 and 966 955.
   Losing span compactness, the resolved signatures (654 262) or the
   shared per-local values (718 167) fails the bounds; the second case
   checks the signatures' type sharing directly. *)

let case name f = Alcotest.test_case name `Quick f

let ast_bound = 348_000
let program_bound = 648_000

let diamond_1000 =
  case "AST and MIR of a 1000-function diamond stay under the word bounds"
    (fun () ->
      let src = Scale_gen.program ~seed:1 ~shape:Scale_gen.Diamond ~n:1000 in
      let crate = Rustudy.Parser.parse_crate ~file:"diamond_1000.rs" src in
      let prog = Rustudy.Lower.lower_crate (Rustudy.Env.of_crate crate) in
      Alcotest.(check int) "bodies" 1000 (Rustudy.Mir.body_count prog);
      let ast = Obj.reachable_words (Obj.repr crate) in
      let all = Obj.reachable_words (Obj.repr prog) in
      if ast > ast_bound then
        Alcotest.failf "AST keeps %d words alive (bound %d)" ast ast_bound;
      if all > program_bound then
        Alcotest.failf "AST + MIR keep %d words alive (bound %d)" all
          program_bound)

let lower_1000 () =
  let src = Scale_gen.program ~seed:1 ~shape:Scale_gen.Diamond ~n:1000 in
  Rustudy.load ~file:"diamond_1000.rs" src

(* Parameters take their types from the signatures the environment
   resolved, so equal parameter types are one value across bodies. *)
let shared_types =
  case "structurally equal parameter types are one value" (fun () ->
      let canon = Sema.Ty.Tbl.create 64 in
      let params = ref 0 in
      List.iter
        (fun (b : Rustudy.Mir.body) ->
          for i = 0 to b.Rustudy.Mir.arg_count - 1 do
            let t = b.Rustudy.Mir.locals.(i).Rustudy.Mir.l_ty in
            incr params;
            match Sema.Ty.Tbl.find_opt canon t with
            | None -> Sema.Ty.Tbl.add canon t t
            | Some c ->
                if c != t then
                  Alcotest.failf "%s: parameter %d of type %s has its own copy"
                    b.Rustudy.Mir.fn_id i (Sema.Ty.to_string t)
          done)
        (Rustudy.Mir.body_list (lower_1000 ()));
      Alcotest.(check int) "parameters seen" 2000 !params)

let suite = [ diamond_1000; shared_types ]
