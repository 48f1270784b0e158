(** Units used throughout the model, following the paper's conventions:

    - computing power [w] in MFlop/s,
    - computation amounts [W] in MFlop,
    - message sizes [S] in Mbit,
    - bandwidth [B] in Mbit/s,
    - time in seconds,
    - throughput in requests/s.

    Keeping conversions in one place avoids the classic MB/Mb confusion. *)

val mflop_of_flop : float -> float
(** Flop count to MFlop. *)

val flop_of_mflop : float -> float

val mbit_of_byte : float -> float
(** Bytes to Mbit (1 Mbit = 10^6 bits). *)

val byte_of_mbit : float -> float

val seconds : w:float -> power:float -> float
(** [seconds ~w ~power] is the time to compute [w] MFlop at [power]
    MFlop/s.  @raise Invalid_argument if [power <= 0]. *)

val transfer_seconds : size:float -> bandwidth:float -> float
(** [transfer_seconds ~size ~bandwidth] is the time to move [size] Mbit at
    [bandwidth] Mbit/s.  @raise Invalid_argument if [bandwidth <= 0]. *)
