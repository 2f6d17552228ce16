(** Source positions and spans for RustLite programs.

    Every AST node, MIR statement and detector finding carries a span so
    that study-layer classification (e.g. "is the bug's effect inside an
    unsafe region?") can be computed from source locations rather than
    hand-annotated.

    A span is one flat block of five words: the file, then three ints
    that each pack two 31-bit numbers (the byte offsets of both ends,
    and the line and column of each end). The AST and the MIR keep
    every span alive until exit, so the layout is what a large program
    pays per node; a [pos] record is only built when a caller asks for
    one. *)

type pos = {
  line : int;  (** 1-based line *)
  col : int;   (** 1-based column *)
  offset : int;  (** 0-based byte offset *)
}

type t = {
  file : string;
  offs : int;  (** start and end byte offsets *)
  lo_lc : int;  (** line and column of the start *)
  hi_lc : int;  (** line and column of the end *)
}

(* Two numbers per int, 31 bits each: offsets, lines and columns of any
   source under 2 GiB fit. Larger values saturate rather than spill
   into the neighbouring field. A packed offset pair orders as its
   (start, end) pair does. *)
let bits = 31
let mask = (1 lsl bits) - 1
let clamp x = if x < 0 then 0 else if x > mask then mask else x
let pack a b = (clamp a lsl bits) lor clamp b
let fst_of x = x lsr bits
let snd_of x = x land mask

let dummy = { file = "<none>"; offs = 0; lo_lc = 0; hi_lc = 0 }

let v ~file ~lo ~lo_line ~lo_col ~hi ~hi_line ~hi_col =
  {
    file;
    offs = pack lo hi;
    lo_lc = pack lo_line lo_col;
    hi_lc = pack hi_line hi_col;
  }

let file s = s.file
let start_offset s = fst_of s.offs
let end_offset s = snd_of s.offs

let start_pos s =
  { line = fst_of s.lo_lc; col = snd_of s.lo_lc; offset = fst_of s.offs }

let end_pos s =
  { line = fst_of s.hi_lc; col = snd_of s.hi_lc; offset = snd_of s.offs }

let is_dummy s = fst_of s.lo_lc = 0

(** [union a b] is the smallest span covering both [a] and [b]. *)
let union a b =
  if is_dummy a then b
  else if is_dummy b then a
  else
    let alo = start_offset a and blo = start_offset b in
    let ahi = end_offset a and bhi = end_offset b in
    let lo, lo_lc = if alo <= blo then (alo, a.lo_lc) else (blo, b.lo_lc) in
    let hi, hi_lc = if ahi >= bhi then (ahi, a.hi_lc) else (bhi, b.hi_lc) in
    { file = a.file; offs = pack lo hi; lo_lc; hi_lc }

(** [contains outer inner] holds when [inner] lies entirely within
    [outer]. Dummy spans contain nothing and are contained in nothing. *)
let contains outer inner =
  (not (is_dummy outer))
  && (not (is_dummy inner))
  && start_offset outer <= start_offset inner
  && end_offset inner <= end_offset outer

let pp ppf s =
  if is_dummy s then Fmt.string ppf "<no-loc>"
  else
    Fmt.pf ppf "%s:%d:%d-%d:%d" s.file (fst_of s.lo_lc) (snd_of s.lo_lc)
      (fst_of s.hi_lc) (snd_of s.hi_lc)

let to_string s = Fmt.str "%a" pp s

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c else Int.compare a.offs b.offs

let equal a b = compare a b = 0
