(* A minimal dependency-free HTTP/1.0 server on a background thread.

   Scope: a diagnostics port, not a web server.  GET only, loopback by
   default, one connection handled at a time (handlers are cheap reads
   over shared state; serializing them keeps every handler free of
   re-entrancy concerns), Connection: close on every response.  The
   accept loop wakes on a select timeout to check the stop flag, so
   [stop] returns within a fraction of a second and joins the thread.
   Every read and write on an accepted socket gives up after
   [client_timeout_s], so a client that connects and sends nothing holds
   the loop (and [stop]) for at most that long. *)

let client_timeout_s = 1.0

type response = { status : int; content_type : string; body : string }

type handler = path:string -> params:(string * string) list -> response

type t = {
  fd : Unix.file_descr;
  port : int;
  stop_flag : bool Atomic.t;
  thread : Thread.t;
}

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let percent_decode (s : string) : string =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> begin
      match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
      | Some code ->
        Buffer.add_char b (Char.chr (code land 0xff));
        i := !i + 2
      | None -> Buffer.add_char b '%'
    end
    | '+' -> Buffer.add_char b ' '
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let parse_target (target : string) : string * (string * string) list =
  match String.index_opt target '?' with
  | None -> (percent_decode target, [])
  | Some q ->
    let path = String.sub target 0 q in
    let query = String.sub target (q + 1) (String.length target - q - 1) in
    let params =
      String.split_on_char '&' query
      |> List.filter_map (fun kv ->
             if kv = "" then None
             else
               match String.index_opt kv '=' with
               | None -> Some (percent_decode kv, "")
               | Some e ->
                 Some
                   ( percent_decode (String.sub kv 0 e),
                     percent_decode (String.sub kv (e + 1) (String.length kv - e - 1)) ))
    in
    (percent_decode path, params)

let write_all (fd : Unix.file_descr) (s : string) : unit =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let respond (fd : Unix.file_descr) (r : response) : unit =
  let head =
    Printf.sprintf
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
      r.status (status_text r.status) r.content_type (String.length r.body)
  in
  write_all fd (head ^ r.body)

(* Read until the blank line ending the header block (we ignore request
   bodies: this is a GET-only port), bounded to keep a hostile peer from
   growing the buffer. *)
let read_request (fd : Unix.file_descr) : string option =
  let limit = 16384 in
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  let rec loop () =
    if Buffer.length buf > limit then None
    else begin
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
      else begin
        Buffer.add_subbytes buf chunk 0 n;
        let s = Buffer.contents buf in
        let has_terminator (t : string) : bool =
          let tl = String.length t and sl = String.length s in
          let rec scan i = i + tl <= sl && (String.sub s i tl = t || scan (i + 1)) in
          scan 0
        in
        if has_terminator "\r\n\r\n" || has_terminator "\n\n" then Some s else loop ()
      end
    end
  in
  try loop () with Unix.Unix_error _ -> None

let text_response status body = { status; content_type = "text/plain; charset=utf-8"; body }

let handle_connection (handler : handler) (fd : Unix.file_descr) : unit =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match read_request fd with
      | None -> ()
      | Some request -> begin
        let first_line =
          match String.index_opt request '\n' with
          | None -> request
          | Some i -> String.sub request 0 i
        in
        let response =
          match String.split_on_char ' ' (String.trim first_line) with
          | meth :: _ when meth <> "GET" -> text_response 405 "only GET is supported\n"
          | [ _; target ] | [ _; target; _ ] -> begin
            let path, params = parse_target target in
            match handler ~path ~params with
            | r -> r
            | exception e ->
              text_response 500 (Printf.sprintf "handler error: %s\n" (Printexc.to_string e))
          end
          | _ -> text_response 400 "malformed request line\n"
        in
        try respond fd response with Unix.Unix_error _ -> ()
      end)

let accept_loop (listen_fd : Unix.file_descr) (stop_flag : bool Atomic.t) (handler : handler) :
    unit =
  while not (Atomic.get stop_flag) do
    match Unix.select [ listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> begin
      match Unix.accept listen_fd with
      | fd, _ ->
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO client_timeout_s;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO client_timeout_s
         with Unix.Unix_error _ -> ());
        handle_connection handler fd
      | exception Unix.Unix_error _ -> ()
    end
    | exception Unix.Unix_error _ -> ()
  done;
  try Unix.close listen_fd with Unix.Unix_error _ -> ()

let start ?(host = "127.0.0.1") ~(port : int) ~(handler : handler) () : t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 16
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let stop_flag = Atomic.make false in
  let thread = Thread.create (fun () -> accept_loop fd stop_flag handler) () in
  { fd; port; stop_flag; thread }

let port (t : t) : int = t.port

let stop (t : t) : unit =
  if not (Atomic.exchange t.stop_flag true) then Thread.join t.thread
