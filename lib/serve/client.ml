(* Blocking client for the planning server: one socket, sequential
   request/response exchanges with monotonically increasing ids.  This
   is all [adept query] and the closed-loop bench driver need — each
   logical client holds one connection and waits for its answer. *)

type t = {
  fd : Unix.file_descr;
  mutable next_id : int;
  (* When set, every call carries trace id [base + request id] — a
     deterministic per-connection id space (bench client [i] passes a
     disjoint base per client, so ids never collide across
     connections and sampling stays reproducible without any RNG). *)
  trace_base : int option;
}

let connect ?trace_base address =
  let addr = Server.sockaddr address in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr with e -> Unix.close fd; raise e);
  { fd; next_id = 1; trace_base }

(* Retry the connect while the server is still binding — the CLI and CI
   start the server as a background process and race it. *)
let connect_retry ?(attempts = 50) ?(delay = 0.1) ?trace_base address =
  let rec go n =
    match connect ?trace_base address with
    | c -> Ok c
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when n > 1 ->
        Unix.sleepf delay;
        go (n - 1)
    | exception Unix.Unix_error (err, _, _) ->
        Error (Unix.error_message err)
  in
  go (max 1 attempts)

let call ?trace_id t request =
  let id = t.next_id in
  t.next_id <- id + 1;
  let trace =
    match trace_id with
    | Some _ -> trace_id
    | None -> Option.map (fun base -> base + id) t.trace_base
  in
  Wire.write_frame t.fd (Protocol.encode_request { Protocol.id; trace; request });
  let rec read_mine () =
    let payload = Wire.read_frame t.fd in
    match Protocol.decode_reply payload with
    | Error e -> Error ("bad reply: " ^ e)
    | Ok reply ->
        if reply.Protocol.reply_id = id then Ok reply.Protocol.response
        else
          (* Replies to other pipelined requests on this socket; a
             sequential client never sees this, but skipping is the
             right behaviour if it ever does. *)
          read_mine ()
  in
  match read_mine () with
  | r -> r
  | exception End_of_file -> Error "server closed the connection"
  | exception Failure msg -> Error msg
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
