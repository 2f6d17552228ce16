(** Fixed-capacity overwrite-oldest ring; see ring.mli. *)

type 'a t = {
  mutable buf : 'a option array;
  mutable start : int;  (** slot of the oldest element *)
  mutable len : int;
  mutable dropped : int;
}

let slots n =
  if n < 1 then invalid_arg "Ring: capacity must be positive";
  Array.make n None

let create n = { buf = slots n; start = 0; len = 0; dropped = 0 }
let length r = r.len
let dropped r = r.dropped

let push r x =
  let cap = Array.length r.buf in
  if r.len < cap then begin
    r.buf.((r.start + r.len) mod cap) <- Some x;
    r.len <- r.len + 1
  end
  else begin
    r.buf.(r.start) <- Some x;
    r.start <- (r.start + 1) mod cap;
    r.dropped <- r.dropped + 1
  end

(* a reader racing the owning domain may see a slot not yet written;
   it skips it rather than fail *)
let to_list r =
  let buf = r.buf and start = r.start in
  let cap = Array.length buf in
  List.filter_map (fun i -> buf.((start + i) mod cap)) (List.init r.len Fun.id)

let clear r =
  Array.fill r.buf 0 (Array.length r.buf) None;
  r.start <- 0;
  r.len <- 0;
  r.dropped <- 0

let resize r n =
  r.buf <- slots n;
  r.start <- 0;
  r.len <- 0;
  r.dropped <- 0
