(* Length-prefixed frames: 4-byte big-endian payload length, then the
   payload bytes.  The prefix bounds what the server must buffer before
   it can judge a request, and [max_frame] caps it — a prefix past the
   cap is unrecoverable (the stream offset is lost) and closes the
   connection, unlike a malformed payload, which is answered with a
   typed error and leaves the connection usable. *)

let max_frame = 16 * 1024 * 1024
let header_len = 4

let encode payload =
  let n = String.length payload in
  if n > max_frame then
    invalid_arg
      (Printf.sprintf "Wire.encode: frame of %d bytes exceeds max %d" n max_frame);
  let b = Bytes.create (header_len + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

(* ---------- incremental reader ---------- *)

type reader = {
  mutable buf : Bytes.t;  (** accumulated unparsed bytes *)
  mutable len : int;  (** live prefix of [buf] *)
}

let reader () = { buf = Bytes.create 4096; len = 0 }

let ensure r extra =
  let need = r.len + extra in
  if Bytes.length r.buf < need then begin
    let grown = Bytes.create (max need (2 * Bytes.length r.buf)) in
    Bytes.blit r.buf 0 grown 0 r.len;
    r.buf <- grown
  end

let feed r chunk off len =
  ensure r len;
  Bytes.blit_string chunk off r.buf r.len len;
  r.len <- r.len + len

type step =
  | Frame of string  (** one complete payload, removed from the buffer *)
  | Need_more  (** no complete frame buffered yet *)
  | Oversized of int  (** declared length beyond [max_frame]: close *)

let step r =
  if r.len < header_len then Need_more
  else
    let declared = Int32.to_int (Bytes.get_int32_be r.buf 0) in
    if declared < 0 || declared > max_frame then Oversized declared
    else if r.len < header_len + declared then Need_more
    else begin
      let payload = Bytes.sub_string r.buf header_len declared in
      let consumed = header_len + declared in
      Bytes.blit r.buf consumed r.buf 0 (r.len - consumed);
      r.len <- r.len - consumed;
      Frame payload
    end

(* ---------- blocking stream helpers (client side, tests) ---------- *)

let really_read fd bytes off len =
  let rec go off len =
    if len > 0 then
      let n = Unix.read fd bytes off len in
      if n = 0 then raise End_of_file else go (off + n) (len - n)
  in
  go off len

let read_frame fd =
  let hdr = Bytes.create header_len in
  (match Unix.read fd hdr 0 header_len with
  | 0 -> raise End_of_file
  | n -> really_read fd hdr n (header_len - n));
  let declared = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if declared < 0 || declared > max_frame then
    failwith (Printf.sprintf "Wire.read_frame: oversized frame (%d bytes)" declared);
  let payload = Bytes.create declared in
  really_read fd payload 0 declared;
  Bytes.unsafe_to_string payload

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let written = Unix.write_substring fd s off (n - off) in
      go (off + written)
  in
  go 0

let write_frame fd payload = write_all fd (encode payload)

(* ---------- socket addresses ---------- *)

let host_port s =
  match String.rindex_opt s ':' with
  | None -> Error "needs host:port"
  | Some j -> (
      let port = String.sub s (j + 1) (String.length s - j - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (String.sub s 0 j, p)
      | _ -> Error ("invalid port: " ^ port))

let inet_sockaddr host port =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  Unix.ADDR_INET (addr, port)
