(** Minimal blocking client for the analysis daemon (one in-flight
    request per connection). *)

type t

val connect : string -> t
(** Connect to a daemon's Unix-domain socket.
    @raise Unix.Unix_error when nothing is listening. *)

val connect_retry : ?attempts:int -> ?delay:float -> string -> t
(** {!connect} with linear retry — for clients racing a daemon's
    startup (default 100 attempts, 50 ms apart). *)

val close : t -> unit

(** {1 Request builders} *)

val ping : id:int -> Support.Sjson.t
val shutdown : id:int -> Support.Sjson.t

val stats : id:int -> Support.Sjson.t
(** Live daemon counters + queue/worker gauges; answered inline. *)

val health : id:int -> Support.Sjson.t
(** State, pid, protocol version, uptime, workers; answered inline. *)

val metrics : id:int -> ?format:string -> unit -> Support.Sjson.t
(** A {!Support.Metrics} snapshot; [format] is ["json"] (default) or
    ["prometheus"]. *)

val flight : id:int -> Support.Sjson.t
(** The {!Support.Flight} black box + the bounded access log. *)

val check :
  id:int ->
  ?deadline_ms:int ->
  ?fuel:int ->
  ?source:string ->
  ?keep_going:bool ->
  file:string ->
  unit ->
  Support.Sjson.t

val detect : id:int -> ?deadline_ms:int -> ?fuel:int -> unit -> Support.Sjson.t
val study : id:int -> ?deadline_ms:int -> ?fuel:int -> unit -> Support.Sjson.t

(** {1 Round trips} *)

exception Server_gone of string
(** The connection died mid-round-trip (torn response, severed
    socket). *)

val roundtrip_raw :
  ?half_close:bool -> t -> string -> (string, Frame.read_error) result
(** Ship raw bytes (a possibly-mutated frame) and read one response
    frame back — the fuzz harness's primitive. With [~half_close:true]
    (default [false]) the sending side is shut down after the write:
    the server then classifies a truncated frame as torn instead of
    waiting forever for the rest, so the call always terminates, at
    the cost of making the connection one-shot. *)

val rpc : t -> Support.Sjson.t -> Support.Sjson.t
(** Send one request frame, wait for its response frame.
    @raise Server_gone if the connection dies mid-round-trip. *)
