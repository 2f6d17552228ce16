(** Minimal blocking client for the analysis daemon: the test suite,
    the bench harness and the serve smoke tool all speak the protocol
    through this (one in-flight request per connection, which is also
    the server's pacing unit). *)

module Sjson = Support.Sjson

type t = { fd : Unix.file_descr; src : Frame.src }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX path);
    { fd; src = Frame.of_fd fd }
  with e ->
    (try Unix.close fd with _ -> ());
    raise e

(* The serve smoke tool starts the daemon as a subprocess and must
   wait out its startup; retry with a small linear backoff. *)
let connect_retry ?(attempts = 100) ?(delay = 0.05) path =
  let rec go n =
    match connect path with
    | c -> c
    | exception e -> if n <= 1 then raise e else (Thread.delay delay; go (n - 1))
  in
  go (max 1 attempts)

let close c = try Unix.close c.fd with _ -> ()

(* ---------------- request builders ----------------------------------- *)

let opt_field name f = function None -> [] | Some v -> [ (name, f v) ]

let num n = Sjson.Num (float_of_int n)

let base ~id ~cmd ?deadline_ms ?fuel fields =
  Sjson.Obj
    ((("id", num id) :: ("cmd", Sjson.Str cmd) :: fields)
    @ opt_field "deadline_ms" num deadline_ms
    @ opt_field "fuel" num fuel)

let ping ~id = base ~id ~cmd:"ping" []
let shutdown ~id = base ~id ~cmd:"shutdown" []

(* Admin ops: answered by the accept path, safe against a saturated
   worker pool. *)
let stats ~id = base ~id ~cmd:"stats" []
let health ~id = base ~id ~cmd:"health" []

let metrics ~id ?(format = "json") () =
  base ~id ~cmd:"metrics" [ ("format", Sjson.Str format) ]

let flight ~id = base ~id ~cmd:"flight" []

let check ~id ?deadline_ms ?fuel ?source ?(keep_going = false) ~file () =
  base ~id ~cmd:"check" ?deadline_ms ?fuel
    ([ ("file", Sjson.Str file) ]
    @ opt_field "source" (fun s -> Sjson.Str s) source
    @ if keep_going then [ ("keep_going", Sjson.Bool true) ] else [])

let detect ~id ?deadline_ms ?fuel () = base ~id ~cmd:"detect" ?deadline_ms ?fuel []
let study ~id ?deadline_ms ?fuel () = base ~id ~cmd:"study" ?deadline_ms ?fuel []

(* ---------------- round trips ---------------------------------------- *)

exception Server_gone of string
(** The connection died mid-round-trip (torn response, severed
    socket). *)

(* Ship raw bytes, read one frame back. The fuzz harness uses this to
   fire mutated frames at a live server. *)
let roundtrip_raw ?(half_close = false) (c : t) (frame_bytes : string) :
    (string, Frame.read_error) result =
  let len = String.length frame_bytes in
  let buf = Bytes.unsafe_of_string frame_bytes in
  let rec write off =
    if off < len then write (off + Unix.write c.fd buf off (len - off))
  in
  write 0;
  (* [half_close] makes the exchange one-shot: the server sees EOF
     after this frame, so a truncated mutation is detected as [Torn]
     instead of leaving both ends blocked on a read (server waiting
     for the rest of the frame, client waiting for a response) *)
  if half_close then
    (try Unix.shutdown c.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  Frame.read c.src

let rpc (c : t) (req : Sjson.t) : Sjson.t =
  Frame.write_fd c.fd (Sjson.to_string req);
  match Frame.read c.src with
  | Ok payload -> (
      match Sjson.parse_result payload with
      | Ok v -> v
      | Error m -> raise (Server_gone ("unparseable response: " ^ m)))
  | Error e -> raise (Server_gone (Frame.read_error_to_string e))
