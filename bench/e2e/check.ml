(* The correctness gate: served output must equal batch output.

   Every method is a pure function of its parameters, so two replies to
   requests with the same parameters must carry byte-identical text,
   however the server produced them (planned, cached, coalesced,
   replanned after an invalidation).  That is checked on every reply.
   The distinct requests of the replayed prefix are then recomputed in
   process with [Render.plan] / [Render.replan] / [Render.observe] — the
   functions the batch CLI prints with — and must match the served text
   byte for byte. *)

module P = Adept_serve.Protocol
module Render = Adept_serve.Render

type t = {
  prefix_len : int;
  texts : (string, string) Hashtbl.t;  (** request key -> first reply text *)
  prefix : (string, P.request) Hashtbl.t;  (** distinct keys of the prefix *)
  mutable last_key : (P.request * string) option;
      (** a stream that repeats one request value keys it once *)
  mutable errors : int;  (** typed [Error] replies *)
  mutable mismatches : int;
  mutable first_mismatch : string option;
}

let create ~prefix_len =
  { prefix_len; texts = Hashtbl.create 1024; prefix = Hashtbl.create 256;
    last_key = None; errors = 0; mismatches = 0; first_mismatch = None }

let mismatch t what =
  t.mismatches <- t.mismatches + 1;
  if t.first_mismatch = None then t.first_mismatch <- Some what

let text_of request response =
  match (request, response) with
  | P.Plan _, P.Plan_ok { text; _ }
  | P.Replan _, P.Replan_ok { text; _ }
  | P.Observe _, P.Observe_ok { text; _ } ->
      Some text
  | _ -> None

(* Judge one reply; [false] when it counts as failed. *)
let reply t ~index request response =
  match (response, text_of request response) with
  | P.Error kind, _ ->
      t.errors <- t.errors + 1;
      if t.first_mismatch = None then
        t.first_mismatch <- Some ("error reply: " ^ snd (P.error_kind_fields kind));
      false
  | _, None ->
      mismatch t "reply of the wrong kind";
      false
  | _, Some text -> (
      let key =
        match t.last_key with
        | Some (r, k) when r == request -> k
        | _ ->
            let k = Workload.key request in
            t.last_key <- Some (request, k);
            k
      in
      if index >= 0 && index < t.prefix_len then Hashtbl.replace t.prefix key request;
      match Hashtbl.find_opt t.texts key with
      | None ->
          Hashtbl.replace t.texts key text;
          true
      | Some first when String.equal first text -> true
      | Some _ ->
          mismatch t ("two replies to one request differ: " ^ key);
          false)

let reference = function
  | P.Plan p -> Result.map (fun (text, _, _) -> text) (Render.plan p)
  | P.Replan r -> Result.map fst (Render.replan r)
  | P.Observe o -> Result.map fst (Render.observe o)
  | _ -> Error "not a planning request"

(* Recompute the prefix in process; returns the number of distinct
   requests compared. *)
let verify_prefix t =
  Hashtbl.iter
    (fun key request ->
      match (reference request, Hashtbl.find_opt t.texts key) with
      | Ok expected, Some served when String.equal expected served -> ()
      | Ok _, _ -> mismatch t ("served text differs from batch: " ^ key)
      | Error e, _ -> mismatch t ("batch path failed: " ^ e))
    t.prefix;
  Hashtbl.length t.prefix
