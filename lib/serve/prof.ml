type sample = { ps_stage : string; ps_start : float; ps_stop : float }

type t = {
  now : unit -> float;
  mutex : Mutex.t;
  mutable samples : sample list;  (* newest first *)
}

let create ~now = { now; mutex = Mutex.create (); samples = [] }

let record t ~stage ~start ~stop =
  Mutex.lock t.mutex;
  t.samples <- { ps_stage = stage; ps_start = start; ps_stop = stop } :: t.samples;
  Mutex.unlock t.mutex

let time t ~stage f =
  match t with
  | None -> f ()
  | Some t -> (
      let start = t.now () in
      match f () with
      | v ->
          record t ~stage ~start ~stop:(t.now ());
          v
      | exception e ->
          record t ~stage ~start ~stop:(t.now ());
          raise e)

let samples t =
  Mutex.lock t.mutex;
  let s = t.samples in
  Mutex.unlock t.mutex;
  List.rev s
