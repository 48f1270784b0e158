(* The load generator: one thread, a few pipelined Unix-socket
   connections multiplexed with [select], replies matched to requests by
   id.

   Reading never pauses: the server writes replies with blocking writes,
   so a generator that stopped draining its sockets would stall the
   server and measure itself.  Writes are non-blocking with a per-
   connection queue for the same reason, and a request's send time is
   when its last byte left, so the send lag (send - due) shows how late
   the generator ran. *)

module P = Adept_serve.Protocol
module Wire = Adept_serve.Wire

let now = Unix.gettimeofday

type conn = {
  fd : Unix.file_descr;
  reader : Wire.reader;
  outq : (int * string) Queue.t;  (** (request id, framed bytes) *)
  mutable out_off : int;  (** bytes of the head frame already written *)
  mutable outstanding : int;
}

type pending = {
  index : int;  (** position in the workload's request stream *)
  request : P.request;
  due : float;
  mutable sent : float;
}

type reply = {
  r_id : int;
  r_index : int;
  r_request : P.request;
  r_due : float;
  r_sent : float;
  r_done : float;  (** reply decoded *)
  r_response : P.response;
}

exception Transport of string

type t = {
  conns : conn array;
  inflight : (int, pending) Hashtbl.t;
  mutable next_id : int;
  buf : Bytes.t;
  mutable on_reply : reply -> unit;
  mutable pump : unit -> unit;
      (** run between two replies of one read, so a burst of replies
          does not hold back requests falling due meanwhile *)
  mutable woke : float;  (** when the last [select] returned *)
}

let connect ~connections ~on_reply address =
  let conns =
    Array.init connections (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX address);
        Unix.set_nonblock fd;
        { fd; reader = Wire.reader (); outq = Queue.create (); out_off = 0;
          outstanding = 0 })
  in
  { conns; inflight = Hashtbl.create 1024; next_id = 1;
    buf = Bytes.create 65536; on_reply; pump = ignore; woke = now () }

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns

let outstanding t = Hashtbl.length t.inflight

let flush t c =
  let rec go () =
    match Queue.peek_opt c.outq with
    | None -> ()
    | Some (id, frame) -> (
        let len = String.length frame - c.out_off in
        match Unix.write_substring c.fd frame c.out_off len with
        | n when n = len ->
            ignore (Queue.pop c.outq);
            c.out_off <- 0;
            (match Hashtbl.find_opt t.inflight id with
            | Some p -> p.sent <- now ()
            | None -> ());
            go ()
        | n -> c.out_off <- c.out_off + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (e, _, _) ->
            raise (Transport (Unix.error_message e)))
  in
  go ()

(* Queue one request on connection [conn] and try to write it at once.
   With [trace] the request id doubles as the trace id, so the server's
   spans join the client's timings. *)
let send t ~conn ~index ~due ~trace request =
  let id = t.next_id in
  t.next_id <- id + 1;
  let c = t.conns.(conn) in
  Hashtbl.replace t.inflight id { index; request; due; sent = Float.nan };
  c.outstanding <- c.outstanding + 1;
  let payload =
    P.encode_request { P.id; trace = (if trace then Some id else None); request }
  in
  Queue.push (id, Wire.encode payload) c.outq;
  flush t c

let rec take_frames t c =
  match Wire.step c.reader with
  | Wire.Need_more -> ()
  | Wire.Oversized n -> raise (Transport (Printf.sprintf "oversized reply (%d bytes)" n))
  | Wire.Frame payload -> (
      match P.decode_reply payload with
      | Error e -> raise (Transport ("undecodable reply: " ^ e))
      | Ok { P.reply_id; response } ->
          let done_ = now () in
          (match Hashtbl.find_opt t.inflight reply_id with
          | None -> raise (Transport (Printf.sprintf "reply to unknown id %d" reply_id))
          | Some p ->
              Hashtbl.remove t.inflight reply_id;
              c.outstanding <- c.outstanding - 1;
              t.on_reply
                { r_id = reply_id; r_index = p.index; r_request = p.request;
                  r_due = p.due; r_sent = p.sent; r_done = done_;
                  r_response = response });
          t.pump ();
          take_frames t c)

let read t c =
  match Unix.read c.fd t.buf 0 (Bytes.length t.buf) with
  | 0 -> raise (Transport "server closed the connection")
  | n ->
      Wire.feed c.reader (Bytes.unsafe_to_string t.buf) 0 n;
      take_frames t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> raise (Transport (Unix.error_message e))

(* One select round: write what the sockets accept, read what arrived. *)
let poll t ~timeout =
  let reads = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
  let writes =
    Array.to_list t.conns
    |> List.filter (fun c -> not (Queue.is_empty c.outq))
    |> List.map (fun c -> c.fd)
  in
  match Unix.select reads writes [] (Float.max 0.0 timeout) with
  | r, w, _ ->
      t.woke <- now ();
      Array.iter
        (fun c ->
          if List.memq c.fd w then flush t c;
          if List.memq c.fd r then read t c)
        t.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Wait for every outstanding reply until [deadline]; what is still out
   then is lost (counted as failed by the caller). *)
let drain t ~deadline =
  while outstanding t > 0 && now () < deadline do
    poll t ~timeout:(Float.min 0.05 (deadline -. now ()))
  done;
  let lost = outstanding t in
  Hashtbl.reset t.inflight;
  Array.iter (fun c -> c.outstanding <- 0) t.conns;
  lost

(* A reply older than this is a failure, whatever it says. *)
let reply_deadline = 10.0

type open_result = {
  sent : int;
  lost : int;
  own_lag : (float * float) list;
      (** (due time, lag) of each measured request: the part of its send
          lag the generator spent working rather than waiting for the OS
          to wake it *)
  backlog_max : int;  (** most outstanding requests in the measured window *)
  backlog_growth : float;
      (** over the last [tail] s: the median backlog at sends in its second
          half minus that in its first half.  A queue that grows steadily
          raises it by half its growth over the [tail]; a stall shorter
          than a quarter of [tail] hardly moves it. *)
  tail : float;
}

(* Open loop: operators arriving at a fixed rate, one request every
   [1 / rate] seconds whatever the server is doing, round-robin over the
   connections.  Requests due in the first [warmup] seconds warm the
   server and are not measured (the caller tells them apart by due
   time).  Latency runs from each request's due time, so a stall also
   charges the requests queued behind it. *)
let run_open t ~rate ~start ~warmup ~duration ~trace ~next_request =
  let stop = start +. warmup +. duration in
  let tail = Float.min 5.0 (duration /. 2.0) in
  let measure_from = start +. warmup and mark_at = stop -. tail in
  let due = ref start and index = ref 0 in
  let backlog_max = ref 0 and early = ref [] and late = ref [] and own_lag = ref [] in
  let n = Array.length t.conns in
  let pump () =
    while !due <= now () && !due < stop do
      let backlog = float_of_int (outstanding t) in
      if !due >= measure_from then begin
        backlog_max := max !backlog_max (outstanding t);
        (* time since the later of the due time and the last wake-up:
           what the generator's own work added to this request's lag *)
        own_lag := (!due, now () -. Float.max !due t.woke) :: !own_lag
      end;
      if !due >= stop -. (tail /. 2.0) then late := backlog :: !late
      else if !due >= mark_at then early := backlog :: !early;
      send t ~conn:(!index mod n) ~index:!index ~due:!due ~trace (next_request ());
      incr index;
      due := start +. (float_of_int !index /. rate)
    done
  in
  t.pump <- pump;
  Fun.protect
    ~finally:(fun () -> t.pump <- ignore)
    (fun () ->
      while !due < stop do
        pump ();
        poll t ~timeout:(Float.min 0.05 (!due -. now ()))
      done);
  let growth =
    if !early = [] || !late = [] then 0.0
    else Quantile.median_of_list !late -. Quantile.median_of_list !early
  in
  let lost = drain t ~deadline:(stop +. reply_deadline) in
  { sent = !index; lost; own_lag = !own_lag; backlog_max = !backlog_max;
    backlog_growth = growth; tail }

type closed_result = {
  c_sent : int;
  c_lost : int;
  completed : int;  (** replies decoded inside the measured window *)
  rates : float list;  (** replies per second in each 1 s slice of it *)
}

(* Closed loop: [depth] callers per connection, each sending its next
   request the moment its reply arrives (zero think time).  Callers
   pipelined on a connection keep the server busy through the round
   trip, so the rate measures the server's capacity rather than how fast
   the host wakes an idle process.  The measured window [measure_from,
   stop) is cut into slices of about a second, so the caller can take a
   median rate.  Closed-loop requests carry stream index -1: they are
   not part of the replayed prefix. *)
let run_closed t ~depth ~start ~warmup ~duration ~next_request =
  let measure_from = start +. warmup in
  let stop = measure_from +. duration in
  let slices = max 1 (int_of_float duration) in
  let slice = duration /. float_of_int slices in
  let counts = Array.make slices 0 and sent = ref 0 in
  let on_reply = t.on_reply in
  t.on_reply <-
    (fun r ->
      if r.r_done >= measure_from && r.r_done < stop then begin
        let i = min (slices - 1) (int_of_float ((r.r_done -. measure_from) /. slice)) in
        counts.(i) <- counts.(i) + 1
      end;
      on_reply r);
  let refill () =
    if now () < stop then
      Array.iteri
        (fun i c ->
          while c.outstanding < depth do
            send t ~conn:i ~index:(-1) ~due:(now ()) ~trace:false (next_request ());
            incr sent
          done)
        t.conns
  in
  t.pump <- refill;
  Fun.protect
    ~finally:(fun () ->
      t.on_reply <- on_reply;
      t.pump <- ignore)
    (fun () ->
      while now () < stop do
        refill ();
        poll t ~timeout:(Float.min 0.05 (stop -. now ()))
      done;
      let lost = drain t ~deadline:(stop +. reply_deadline) in
      { c_sent = !sent; c_lost = lost; completed = Array.fold_left ( + ) 0 counts;
        rates = Array.to_list (Array.map (fun c -> float_of_int c /. slice) counts) })
