(** The long-lived planning server.

    One event-loop domain multiplexes connections over [Unix.select]; a
    {!Domain_pool} of worker domains runs the planning and simulation; a
    {!Cache} answers repeated plan queries without replanning.  Requests
    identical to one already in flight coalesce onto it instead of
    planning twice.  Wall-clock observability, when configured, lives
    in {!Live}.  See docs/SERVE.md for the protocol and the operational
    story. *)

type address = Unix_socket of string | Tcp of string * int

val address_of_string : string -> (address, string) result
(** ["unix:<path>"], ["tcp:<host>:<port>"], or a bare path (Unix
    socket). *)

val address_to_string : address -> string

val sockaddr : address -> Unix.sockaddr
(** The socket address to bind or connect to (a TCP host is resolved). *)

type config = {
  address : address;
  workers : int option;
      (** Worker domains; default [Domain.recommended_domain_count - 1]. *)
  cache_capacity : int;  (** Plan cache entries (LRU). *)
  max_requests : int option;
      (** Drain and exit after this many dispatched requests — lets
          tests and CI run a server with a bounded lifetime. *)
  registry : Adept_obs.Registry.t option;
      (** Metrics destination ([adept_serve_*]); a private registry is
          created when absent. *)
  obs : Live.config option;
      (** [None] (the default) serves exactly as before observability
          existed: no observability clock reads on the request path,
          stats carry no live block. *)
}

val default_config : address -> config
(** Defaults: pool-sized workers, 128 cache entries, no
    request bound, private registry, observability off. *)

val run : config -> unit
(** Bind, serve, block until drained (SIGINT/SIGTERM or
    [max_requests]), then tear down: listener closed, in-flight
    requests answered, connections closed, worker domains joined, Unix
    socket path removed. *)

type t

val create : config -> t
(** Bind the listener and spawn the worker pool without serving yet.
    Raises [Unix.Unix_error] when the address cannot be bound,
    [Invalid_argument] on an invalid [obs] rule set. *)

val serve : t -> unit
(** The blocking loop of {!run} on an already-created server. *)

val stop : t -> unit
(** Request a drain (from a signal handler or another thread): {!serve}
    finishes in-flight work, answers it, and returns.  On OCaml 5.1,
    run the server in its own process rather than on a sibling thread
    of blocking client calls — see the runtime note in docs/SERVE.md. *)
