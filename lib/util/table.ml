type align = Left | Right | Center

type row = Cells of string list | Separator

type t = { headers : string list; aligns : align list; rev_rows : row list }

let default_aligns headers =
  match headers with [] -> [] | _ :: rest -> Left :: List.map (fun _ -> Right) rest

let create ?aligns headers =
  let aligns =
    match aligns with
    | None -> default_aligns headers
    | Some a ->
        if List.length a <> List.length headers then
          invalid_arg "Table.create: aligns length mismatch";
        a
  in
  { headers; aligns; rev_rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  { t with rev_rows = Cells cells :: t.rev_rows }

let add_separator t = { t with rev_rows = Separator :: t.rev_rows }

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = width - n in
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s
    | Center ->
        let left = fill / 2 in
        String.make left ' ' ^ s ^ String.make (fill - left) ' '

let render t =
  let rows = List.rev t.rev_rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  List.iter
    (function
      | Separator -> ()
      | Cells cells ->
          List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells)
    rows;
  let aligns = Array.of_list t.aligns in
  let buf = Buffer.create 256 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line align_all cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        let a = if align_all then Center else aligns.(i) in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad a widths.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  rule ();
  line true t.headers;
  rule ();
  List.iter (function Separator -> rule () | Cells cells -> line false cells) rows;
  rule ();
  Buffer.contents buf

let cell_float ?(decimals = 2) v =
  if v <> 0.0 && Float.abs v < 1e-3 then Format.asprintf "%.*e" decimals v
  else Format.asprintf "%.*f" decimals v

let cell_percent ?(decimals = 1) v = Format.asprintf "%.*f%%" decimals (v *. 100.0)
