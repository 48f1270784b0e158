(** Service power of a server set (the paper's [calc_hier_ser_pow]).

    Eq. 15 evaluated for the servers of a hierarchy running an application
    of cost [wapp] MFlop, "when load is equally divided among the servers
    of the hierarchy" — more precisely, divided so that heterogeneous
    servers finish together (Eqs. 6–9). *)

open Adept_platform

val of_servers :
  Adept_model.Params.t -> bandwidth:float -> wapp:float -> Node.t list -> float
(** Service throughput in requests/s.  @raise Invalid_argument on an empty
    list or non-positive [wapp]. *)

val of_sums :
  Adept_model.Params.t ->
  bandwidth:float ->
  ratio_sum:float ->
  rate_sum:float ->
  float
(** Eq. 15 from pre-accumulated sums: [ratio_sum] is the fold of
    [Wpre / wapp] over the servers, [rate_sum] the fold of
    [power / wapp] — what {!Node_pool} keeps as prefix arrays.  When the
    sums were accumulated in the same order as the server list, the
    result is bit-identical to {!of_servers}.
    @raise Invalid_argument on non-positive [bandwidth]/[rate_sum] or a
    negative [ratio_sum]. *)

val marginal :
  Adept_model.Params.t -> bandwidth:float -> wapp:float -> Node.t list -> Node.t -> float
(** [marginal params ~bandwidth ~wapp servers candidate] is the service
    power after adding [candidate] to [servers] — what the heuristic
    evaluates when it considers taking the next sorted node as a server. *)
