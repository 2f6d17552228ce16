(** Diagnostics: errors and warnings emitted by the front end and the
    analyses, carrying a stable code, a severity, a source span and a
    message. See the interface for the raising vs collecting styles. *)

type severity = Error | Warning | Note

type code =
  | Lex_invalid_char
  | Lex_unterminated_string
  | Lex_unterminated_char
  | Lex_unterminated_comment
  | Lex_unterminated_attribute
  | Lex_bad_escape
  | Lex_bad_literal
  | Parse_error_code
  | Parse_recovered
  | Sema_error
  | Analysis_incomplete
  | Analysis_deadline
  | Entry_retried
  | Entry_quarantined
  | Run_deadline_skip
  | Entry_failed
  | Server_overload
  | Server_bad_frame
  | Server_worker_lost
  | Server_draining
  | Oracle_trap
  | Oracle_fuel
  | Oracle_deadline
  | Oracle_unsupported
  | General

let code_name = function
  | Lex_invalid_char -> "E0101"
  | Lex_unterminated_string -> "E0102"
  | Lex_unterminated_char -> "E0103"
  | Lex_unterminated_comment -> "E0104"
  | Lex_unterminated_attribute -> "E0105"
  | Lex_bad_escape -> "E0106"
  | Lex_bad_literal -> "E0107"
  | Parse_error_code -> "E0201"
  | Parse_recovered -> "E0202"
  | Sema_error -> "E0301"
  | Analysis_incomplete -> "W0401"
  | Analysis_deadline -> "W0402"
  | Entry_retried -> "W0403"
  | Entry_quarantined -> "W0404"
  | Run_deadline_skip -> "W0405"
  | Entry_failed -> "E0501"
  | Server_overload -> "W0501"
  | Server_bad_frame -> "E0502"
  | Server_worker_lost -> "W0503"
  | Server_draining -> "W0504"
  | Oracle_trap -> "E0601"
  | Oracle_fuel -> "W0602"
  | Oracle_deadline -> "W0603"
  | Oracle_unsupported -> "W0604"
  | General -> "E0000"

(** Every stable code, in declaration order — the golden tests pin the
    printed set so codes cannot silently renumber. *)
let all_codes =
  [
    Lex_invalid_char;
    Lex_unterminated_string;
    Lex_unterminated_char;
    Lex_unterminated_comment;
    Lex_unterminated_attribute;
    Lex_bad_escape;
    Lex_bad_literal;
    Parse_error_code;
    Parse_recovered;
    Sema_error;
    Analysis_incomplete;
    Analysis_deadline;
    Entry_retried;
    Entry_quarantined;
    Run_deadline_skip;
    Entry_failed;
    Server_overload;
    Server_bad_frame;
    Server_worker_lost;
    Server_draining;
    Oracle_trap;
    Oracle_fuel;
    Oracle_deadline;
    Oracle_unsupported;
    General;
  ]

let code_of_name s =
  List.find_opt (fun c -> String.equal (code_name c) s) all_codes

type t = { code : code; severity : severity; span : Span.t; message : string }

exception Parse_error of t

let error ?(code = General) ?(span = Span.dummy) fmt =
  Fmt.kstr (fun message -> { code; severity = Error; span; message }) fmt

let warning ?(code = General) ?(span = Span.dummy) fmt =
  Fmt.kstr (fun message -> { code; severity = Warning; span; message }) fmt

let note ?(code = General) ?(span = Span.dummy) fmt =
  Fmt.kstr (fun message -> { code; severity = Note; span; message }) fmt

let fail ?(code = Parse_error_code) ?(span = Span.dummy) fmt =
  Fmt.kstr
    (fun message -> raise (Parse_error { code; severity = Error; span; message }))
    fmt

(* ---------------- collector ---------------------------------------- *)

type collector = {
  mutable rev_diags : t list;  (** newest first *)
  mutable n_errors : int;
  mutable n_total : int;
}

let collector () = { rev_diags = []; n_errors = 0; n_total = 0 }

let emit c d =
  c.rev_diags <- d :: c.rev_diags;
  c.n_total <- c.n_total + 1;
  if d.severity = Error then c.n_errors <- c.n_errors + 1

let diags c = List.rev c.rev_diags
let has_errors c = c.n_errors > 0
let error_count c = c.n_errors
let count c = c.n_total
let errors_of ds = List.filter (fun d -> d.severity = Error) ds
let errors c = List.rev (errors_of c.rev_diags)

(* ---------------- result-style API --------------------------------- *)

let protect f =
  match f () with
  | v -> Stdlib.Ok v
  | exception Parse_error d -> Stdlib.Error d

let to_result c v =
  if has_errors c then Stdlib.Error (errors c) else Stdlib.Ok v

(* ---------------- printing ----------------------------------------- *)

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"
  | Note -> Fmt.string ppf "note"

let pp ppf d =
  Fmt.pf ppf "%a: %a[%s]: %s" Span.pp d.span pp_severity d.severity
    (code_name d.code) d.message

let to_string d = Fmt.str "%a" pp d

let sort ds =
  List.stable_sort
    (fun a b ->
      let c = compare (Span.file a.span) (Span.file b.span) in
      if c <> 0 then c
      else
        let c =
          compare (Span.start_offset a.span) (Span.start_offset b.span)
        in
        if c <> 0 then c
        else
          let c = compare (code_name a.code) (code_name b.code) in
          if c <> 0 then c else compare a.message b.message)
    ds
