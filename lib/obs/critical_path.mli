(** Critical-path decomposition of one request trace into the paper's
    Eqs. 1–5 cost terms.

    The critical path of a {!Request_trace.trace} is its parent chain
    (see {!Request_trace.critical_path}); this module classifies each
    segment by the element that paid for it — receive, send and compute
    time per node, wire latency to nobody — mirroring how Eqs. 1–4
    charge every message to both endpoint ports and Eqs. 3–5 charge the
    computations [Wreq], [Wrep(d)], [Wpre] and [Wapp] to their node. *)

type share = {
  s_node : int;  (** Platform node id; -1 = client machine / wire. *)
  s_recv : float;  (** Seconds of receive-port time on the path. *)
  s_send : float;  (** Seconds of send-port time on the path. *)
  s_wire : float;  (** Seconds of link latency (node -1 only). *)
  s_compute : float;  (** Seconds of Eqs. 3–5 computation. *)
}

val seconds : share -> float
(** Total of the four components. *)

val by_element : Request_trace.trace -> share list
(** The path's time grouped per element, sorted by node id (the
    client/wire bucket -1 first).  On a fault-free trace the shares sum
    to {!Request_trace.duration} exactly up to float addition. *)

val render : Request_trace.trace -> string
(** Multi-line human rendering of one trace: the chain with per-segment
    durations, nodes and model terms, then the per-element summary. *)
