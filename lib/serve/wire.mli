(** Length-prefixed framing for the planning-server protocol.

    Every message is a 4-byte big-endian payload length followed by that
    many payload bytes (UTF-8 JSON, see {!Protocol}).  [max_frame] caps
    the declared length: a prefix past the cap is unrecoverable (the
    stream offset is lost) and must close the connection, whereas a
    malformed {e payload} is answered with a typed error and leaves the
    connection usable. *)

val max_frame : int
(** 16 MiB. *)

val header_len : int
(** 4. *)

val encode : string -> string
(** Prefix + payload as one string.  Raises [Invalid_argument] past
    [max_frame]. *)

(** {1 Incremental reading}

    The server feeds whatever [read] returned and steps out complete
    frames; partial frames stay buffered across feeds, so slow or
    chunked writers need no special handling. *)

type reader

val reader : unit -> reader
val feed : reader -> string -> int -> int -> unit
(** [feed r chunk off len] appends [chunk.[off .. off+len-1]]. *)

type step =
  | Frame of string  (** one complete payload, removed from the buffer *)
  | Need_more  (** no complete frame buffered yet *)
  | Oversized of int  (** declared length beyond [max_frame]: close *)

val step : reader -> step
(** Extract the next complete frame, if any.  Call repeatedly until
    [Need_more] — one feed can complete several frames. *)

(** {1 Blocking helpers}

    For the client and tests, where one request/response exchange at a
    time is the natural shape. *)

val read_frame : Unix.file_descr -> string
(** Raises [End_of_file] on a clean close before or inside a frame,
    [Failure] on an oversized prefix. *)

val write_frame : Unix.file_descr -> string -> unit

val write_all : Unix.file_descr -> string -> unit
(** Write every byte of the string (no framing). *)

(** {1 Socket addresses} *)

val host_port : string -> (string * int, string) result
(** ["<host>:<port>"], split at the last colon; the port must lie in
    [1, 65535]. *)

val inet_sockaddr : string -> int -> Unix.sockaddr
(** Resolve a host name (or a numeric address) and pair it with a
    port. *)
