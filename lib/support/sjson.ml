(** The project's one JSON codec; see sjson.mli.

    It is exposed to adversarial network input by the analysis server,
    so it is strict: payloads are validated as UTF-8 before parsing,
    nesting depth is bounded (a frame of [[[[...] must not overflow the
    stack), and the printer is deterministic — the same value always
    renders to the same bytes, which is what makes journalled responses
    replay byte-identically across restarts. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* ---------------- UTF-8 validation ---------------------------------- *)

(* Standard table-free validator: accepts exactly well-formed UTF-8
   (RFC 3629): no overlong encodings, no surrogates, no > U+10FFFF. *)
let utf8_valid (s : string) : bool =
  let n = String.length s in
  let rec go i =
    if i >= n then true
    else
      let c = Char.code s.[i] in
      if c < 0x80 then go (i + 1)
      else if c < 0xC2 then false (* continuation or overlong 2-byte *)
      else
        let cont k = i + k < n && Char.code s.[i + k] land 0xC0 = 0x80 in
        let byte k = Char.code s.[i + k] in
        if c < 0xE0 then cont 1 && go (i + 2)
        else if c < 0xF0 then
          cont 1 && cont 2
          && (c <> 0xE0 || byte 1 >= 0xA0) (* overlong 3-byte *)
          && (c <> 0xED || byte 1 < 0xA0) (* surrogates *)
          && go (i + 3)
        else if c < 0xF5 then
          cont 1 && cont 2 && cont 3
          && (c <> 0xF0 || byte 1 >= 0x90) (* overlong 4-byte *)
          && (c <> 0xF4 || byte 1 < 0x90) (* > U+10FFFF *)
          && go (i + 4)
        else false
  in
  go 0

(* ---------------- parser -------------------------------------------- *)

let max_depth = 128

let parse (s : string) : t =
  if not (utf8_valid s) then fail "payload is not valid UTF-8";
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail "expected %C at byte %d" c !pos
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail "expected %s at byte %d" lit !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let code =
                match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
          | c -> fail "bad escape \\%C" c);
          incr pos;
          go ()
      | c when Char.code c < 0x20 -> fail "raw control byte in string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      incr pos
    done;
    if !pos = start then fail "expected a value at byte %d" start;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number at byte %d" start
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting deeper than %d" max_depth;
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}' at byte %d" !pos
          in
          Obj (members [])
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elements (v :: acc)
            | Some ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']' at byte %d" !pos
          in
          List (elements [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing bytes after the JSON value";
  v

let parse_result s = try Ok (parse s) with Error m -> Result.Error m

(* ---------------- printer ------------------------------------------- *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  escape_into b s;
  Buffer.contents b

(* Integral floats print as integers (request ids, exit codes, counts
   — everything the protocol actually carries); everything else gets a
   fixed shortest-ish form. Deterministic either way. *)
let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let to_string (v : t) : string =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> Buffer.add_string b (num_to_string f)
    | Str s ->
        Buffer.add_char b '"';
        escape_into b s;
        Buffer.add_char b '"'
    | List l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            go v)
          l;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            escape_into b k;
            Buffer.add_string b "\":";
            go v)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ---------------- accessors ----------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let str_member k v =
  match member k v with Some (Str s) -> Some s | _ -> None

let int_member k v =
  match member k v with Some (Num f) -> Some (int_of_float f) | _ -> None

let bool_member k v =
  match member k v with Some (Bool b) -> Some b | _ -> None

(** Functional update: replace (or add) key [k] of an object. *)
let set_member k v = function
  | Obj kvs ->
      let replaced = ref false in
      let kvs =
        List.map
          (fun (k', v') ->
            if String.equal k k' then begin
              replaced := true;
              (k', v)
            end
            else (k', v'))
          kvs
      in
      Obj (if !replaced then kvs else kvs @ [ (k, v) ])
  | other -> other
