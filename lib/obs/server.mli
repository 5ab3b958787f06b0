(** A minimal dependency-free HTTP/1.0 server on a background thread —
    the transport under the live observability endpoint.  GET only,
    loopback by default, connections handled serially, every response
    closes the connection.  A client gets one second for each read and
    write, so a silent one cannot hold the serial loop or {!stop}. *)

type response = { status : int; content_type : string; body : string }

(** Called on the server thread for every GET.  [params] are the decoded
    query parameters.  An exception becomes a 500. *)
type handler = path:string -> params:(string * string) list -> response

type t

(** [start ~port ~handler ()] binds (port 0 picks an ephemeral port; see
    {!port}), then serves on a background thread.  Raises [Unix_error]
    when the bind fails. *)
val start : ?host:string -> port:int -> handler:handler -> unit -> t

(** The actually bound port. *)
val port : t -> int

(** Stop accepting, close the socket, join the thread.  Idempotent. *)
val stop : t -> unit
