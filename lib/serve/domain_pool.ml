(* A fixed pool of worker domains with a shared run queue and
   help-while-waiting futures.

   OCaml 5 domains are heavyweight (one runtime per domain), so the pool
   is sized once at server start — never per request — and every unit of
   CPU work (a whole request) goes through [submit].  [await] HELPS: while its future is
   unresolved it pulls queued tasks and runs them on the calling domain.
   That makes nested submission safe — a planning task running on a
   worker can fan out probe tasks and await them without deadlocking the
   pool, because waiting workers drain the very queue their dependencies
   sit in. *)

type task = { run : unit -> unit }

type t = {
  queue : task Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable domains : unit Domain.t array;
  workers : int;
  (* Wall seconds each worker spent inside task bodies (help-while-await
     nests inside the outer task and is covered by it).  One writer per
     cell; [Atomic] so the event-loop domain reads torn-free. *)
  busy : float Atomic.t array;
}

type 'a state = Pending | Done of 'a | Raised of exn * Printexc.raw_backtrace

type 'a future = {
  mutable state : 'a state;
  fm : Mutex.t;
  resolved : Condition.t;
  pool : t;
}

let try_pop t =
  Mutex.lock t.mutex;
  let task = Queue.take_opt t.queue in
  Mutex.unlock t.mutex;
  task

let worker_loop t idx () =
  let rec go () =
    Mutex.lock t.mutex;
    let rec wait () =
      match Queue.take_opt t.queue with
      | Some task ->
          Mutex.unlock t.mutex;
          let started = Unix.gettimeofday () in
          task.run ();
          Atomic.set t.busy.(idx)
            (Atomic.get t.busy.(idx) +. (Unix.gettimeofday () -. started));
          true
      | None ->
          if t.closed then begin
            Mutex.unlock t.mutex;
            false
          end
          else begin
            Condition.wait t.nonempty t.mutex;
            wait ()
          end
    in
    if wait () then go ()
  in
  go ()

let create ?workers () =
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
      domains = [||];
      workers;
      busy = Array.init workers (fun _ -> Atomic.make 0.0);
    }
  in
  t.domains <- Array.init workers (fun i -> Domain.spawn (worker_loop t i));
  t

let size t = t.workers

let busy_seconds t = Array.map Atomic.get t.busy

let submit ?on_resolve t f =
  let fut = { state = Pending; fm = Mutex.create (); resolved = Condition.create (); pool = t } in
  let run () =
    let outcome =
      match f () with
      | v -> Done v
      | exception e -> Raised (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock fut.fm;
    fut.state <- outcome;
    Condition.broadcast fut.resolved;
    Mutex.unlock fut.fm;
    (* Only after the future is visibly resolved: a notification hook
       that fires before resolution (or not at all, when [f] raises) is
       a lost wakeup — an observer can consume it, find the future still
       pending, and then sleep forever. *)
    match on_resolve with
    | None -> ()
    | Some g -> ( try g () with _ -> ())
  in
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    (* A draining pool accepts no new work; run inline so shutdown can
       never lose a task. *)
    run ()
  end
  else begin
    Queue.push { run } t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex
  end;
  fut

let peek fut =
  Mutex.lock fut.fm;
  let s = fut.state in
  Mutex.unlock fut.fm;
  s

let await fut =
  let t = fut.pool in
  let rec help () =
    match peek fut with
    | Done v -> v
    | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending -> (
        (* Help: run someone else's task — possibly the one this future
           depends on — instead of blocking a domain. *)
        match try_pop t with
        | Some task ->
            task.run ();
            help ()
        | None ->
            (* Nothing runnable: the dependency is mid-flight on another
               domain.  Sleep on the future itself. *)
            Mutex.lock fut.fm;
            while fut.state = Pending do
              Condition.wait fut.resolved fut.fm
            done;
            Mutex.unlock fut.fm;
            help ())
  in
  help ()

let is_resolved fut = peek fut <> Pending

let shutdown t =
  Mutex.lock t.mutex;
  if not t.closed then begin
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.domains
  end
  else Mutex.unlock t.mutex
