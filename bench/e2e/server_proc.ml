(* The [adept serve] process under test: spawned from the binary the
   checkout just built, one worker domain, shards and cache capacity at
   their defaults (so a change to either default shows in the numbers),
   stopped with SIGTERM so it drains like a real deployment. *)

module P = Adept_serve.Protocol
module Client = Adept_serve.Client
module Server = Adept_serve.Server

type t = { pid : int; socket : string; log : Unix.file_descr }

let spawn ~adept ~dir ~tag args =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let log =
    Unix.openfile (Filename.concat dir (tag ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (* the runtime-events ring of a traced server lands beside the socket *)
  let env =
    Array.append [| "OCAML_RUNTIME_EVENTS_DIR=" ^ dir |] (Unix.environment ())
  in
  let argv =
    Array.of_list
      (adept :: "serve" :: "--address" :: ("unix:" ^ socket) :: "--workers" :: "1"
     :: args)
  in
  let pid = Unix.create_process_env adept argv env Unix.stdin log log in
  { pid; socket; log }

let exited t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* One [stats] exchange on a fresh blocking connection. *)
let stats t =
  match Client.connect (Server.Unix_socket t.socket) with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | c -> (
      let r = Client.call c P.Stats in
      Client.close c;
      match r with
      | Ok (P.Stats_ok s) -> Ok s
      | Ok _ -> Error "stats: mismatched reply"
      | Error e -> Error e)

(* Poll until the server answers [stats]; the first success is the end
   of its start-up. *)
let ready ?(timeout = 10.0) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec attempt () =
    match stats t with
    | Ok s -> Ok s
    | Error e ->
        if exited t then Error ("server exited during start-up: " ^ e)
        else if Unix.gettimeofday () > deadline then Error ("server not ready: " ^ e)
        else begin
          Unix.sleepf 0.00005;
          attempt ()
        end
  in
  attempt ()

(* Open and close a connection, which wakes a server blocked in
   [select]. *)
let poke t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX t.socket) with Unix.Unix_error _ -> ());
  Unix.close fd

(* SIGTERM, then SIGKILL if the server has not drained within 5 s (its
   in-flight work takes milliseconds).  A signal that lands on a worker
   domain's thread can leave the event loop asleep in [select] with the
   stop request pending, so a server still up after 100 ms gets the
   signal again and a connection that wakes its loop. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5.0 in
  let next_poke = ref (Unix.gettimeofday () +. 0.1) in
  while (not (exited t)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005;
    if Unix.gettimeofday () > !next_poke && not (exited t) then begin
      (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
      poke t;
      next_poke := Unix.gettimeofday () +. 0.1
    end
  done;
  if not (exited t) then begin
    prerr_endline "e2e: server ignored SIGTERM for 5 s; killing it";
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] t.pid)
  end;
  (try Unix.close t.log with Unix.Unix_error _ -> ());
  try Sys.remove t.socket with Sys_error _ -> ()

(* Spawn to first successful [stats] reply, in seconds. *)
let cold_start ~adept ~dir ~tag =
  let t0 = Unix.gettimeofday () in
  let t = spawn ~adept ~dir ~tag [] in
  let r = ready t in
  let elapsed = Unix.gettimeofday () -. t0 in
  stop t;
  Result.map (fun _ -> elapsed) r
