(** Middleware element cost parameters (the paper's Table 3).

    All computation amounts are in MFlop, message sizes in Mbit.  The
    agent's reply-processing cost is the linear model
    [Wrep(d) = wfix + wsel * d] fitted by the paper against agent degree
    (correlation coefficient 0.97). *)

type agent = {
  wreq : float;  (** [Wreq]: processing of one incoming request, MFlop. *)
  wfix : float;  (** [Wfix]: fixed part of reply processing, MFlop. *)
  wsel : float;  (** [Wsel]: per-child part of reply processing, MFlop. *)
  sreq : float;  (** [Sreq]: agent-level request message, Mbit. *)
  srep : float;  (** [Srep]: agent-level reply message, Mbit. *)
}

type server = {
  wpre : float;  (** [Wpre]: performance prediction per request, MFlop. *)
  sreq : float;  (** [Sreq]: server-level request message, Mbit. *)
  srep : float;  (** [Srep]: server-level reply message, Mbit. *)
}

type t = { agent : agent; server : server }

val make : agent:agent -> server:server -> t
(** @raise Invalid_argument if any component is negative or non-finite. *)

val diet_lyon : t
(** The constants measured on the Lyon site of Grid'5000 (Table 3):
    agent [Wreq = 1.7e-1], [Wrep(d) = 4.0e-3 + 5.4e-3 d],
    [Srep = 5.4e-3], [Sreq = 5.3e-3]; server [Wpre = 6.4e-3],
    [Srep = 6.4e-5], [Sreq = 5.3e-5]. *)

val wrep : t -> degree:int -> float
(** [Wrep(d) = Wfix + Wsel * d] (MFlop).  @raise Invalid_argument if
    [degree < 0]. *)

val scale_agent_compute : t -> float -> t
(** Multiply the agent computation costs by a factor — used for
    sensitivity/ablation studies.  @raise Invalid_argument if the factor is
    not positive. *)

val to_table : t -> Adept_util.Table.t
(** Render in the layout of the paper's Table 3. *)
