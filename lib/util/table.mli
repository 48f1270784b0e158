(** ASCII table rendering for experiment reports.

    The benchmark harness prints each paper table/figure as an aligned text
    table; this module centralises the layout so every experiment reports
    consistently. *)

type align = Left | Right | Center

type t
(** A table under construction: a header row plus data rows. *)

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table.  [aligns] defaults to [Left] for the
    first column and [Right] for the rest (the common "label + numbers"
    shape).  @raise Invalid_argument if [aligns] is given with a length
    different from [headers]. *)

val add_row : t -> string list -> t
(** Append a data row.  @raise Invalid_argument if the arity differs from
    the header. *)

val add_separator : t -> t
(** Append a horizontal rule between data rows. *)

val render : t -> string
(** Render with box-drawing in plain ASCII ([+-|]).  Rows are emitted in
    insertion order. *)

val cell_float : ?decimals:int -> float -> string
(** Format a float cell; defaults to 2 decimals, switches to scientific
    notation below 1e-3. *)

val cell_percent : ?decimals:int -> float -> string
(** Format a ratio as a percentage cell, e.g. [0.89] as ["89.0%"]. *)
