open Adept_platform
module Params = Adept_model.Params

type t = {
  params : Params.t;
  bandwidth : float;
  wapp : float;
  sorted : Node.t array;
  (* rate.(i) = power /. wapp of sorted.(i): the Eq. 15 service term the
     scans and prefix sums add, computed once per pool. *)
  rate : float array;
  server_sched : float array;
  (* Prefix sums of the Eq. 15 service terms over the rest
     (sorted.(1..n-1)), anchored at index 1 and accumulated in exactly
     the fold order of [Throughput.service]: ratio_rest.(i) and
     rate_rest.(i) are the sums over sorted.(1..i-1), so the full-rest
     sums live at index n.  Anchoring at 1 (not 0) matters: a fold that
     starts at the second node must see the same sequence of roundings
     as [Service_power.of_servers] on the rest list. *)
  ratio_rest : float array;
  rate_rest : float array;
  (* Equal-power nodes are contiguous in the sorted order (the sort key
     is a monotone function of power, ties broken by power); each run is
     a power class.  Capacity and feasibility depend on a node only
     through its power, so per-class memoization is exact. *)
  class_of : int array;
  class_count : int;
}

let create params ~bandwidth ~wapp nodes =
  let sorted = Array.of_list (Sched_power.sort_nodes params ~bandwidth nodes) in
  let n = Array.length sorted in
  let rate = Array.map (fun node -> Node.power node /. wapp) sorted in
  let server_sched =
    Array.map (fun node -> Sched_power.server params ~bandwidth ~node) sorted
  in
  let ratio_rest = Array.make (n + 1) 0.0 in
  let rate_rest = Array.make (n + 1) 0.0 in
  for i = 1 to n - 1 do
    ratio_rest.(i + 1) <- ratio_rest.(i) +. (params.Params.server.wpre /. wapp);
    rate_rest.(i + 1) <- rate_rest.(i) +. rate.(i)
  done;
  let class_of = Array.make (max n 1) 0 in
  let classes = ref 0 in
  for i = 0 to n - 1 do
    if i > 0 && Node.power sorted.(i) <> Node.power sorted.(i - 1) then incr classes;
    class_of.(i) <- !classes
  done;
  {
    params;
    bandwidth;
    wapp;
    sorted;
    rate;
    server_sched;
    ratio_rest;
    rate_rest;
    class_of;
    class_count = (if n = 0 then 0 else !classes + 1);
  }

let size t = Array.length t.sorted
let node t i = t.sorted.(i)
let nodes t = t.sorted
let bandwidth t = t.bandwidth
let class_of t i = t.class_of.(i)
let class_count t = t.class_count

let hi_sched t =
  Sched_power.agent t.params ~bandwidth:t.bandwidth ~node:t.sorted.(0) ~children:1

(* The reference folds [Float.max] over the rest's server scheduling
   powers; server scheduling power is FP-monotone in raw power and power
   is non-increasing along the sorted order, so the maximum is the first
   rest element's. *)
let hi_predict t = t.server_sched.(1)

let hi_service t =
  let n = size t in
  Service_power.of_sums t.params ~bandwidth:t.bandwidth ~ratio_sum:t.ratio_rest.(n)
    ~rate_sum:t.rate_rest.(n)

let usable_until t ~target =
  let n = size t in
  (* First index whose Eq. 14 server power falls below [target]; the
     predicate is monotone along the sorted order (power non-increasing,
     server power FP-monotone in power), so a binary search lands on the
     same boundary a linear scan would. *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.server_sched.(mid) >= target then lo := mid + 1 else hi := mid
  done;
  !lo

type scan = Servers of int | Overflow | Infeasible

let min_servers t ~target ~usable ~from ~cap =
  let comm =
    (t.params.Params.server.sreq +. t.params.Params.server.srep) /. t.bandwidth
  in
  let budget = (1.0 /. target) -. comm in
  if budget <= 0.0 then Infeasible
  else begin
    let wpre = t.params.Params.server.wpre in
    let inv = 1.0 /. t.wapp in
    (* The reference scans every index from [from], skipping unusable
       nodes without touching the sums.  Unusable nodes form a suffix
       ([usable] is the boundary), so stopping the scan at [usable] sees
       the same condition values: past it the sums are frozen and the
       first re-check decides.  [cap] bounds the prefix the caller could
       accept (direct + deep slots); once the count exceeds it, every
       later answer — a longer prefix or None — is rejected the same way,
       so the scan can stop without changing any decision.  The scan
       consumes every index in [from, usable), so the answer is fully
       described by its length — the caller reads the nodes straight off
       the sorted array instead of a freshly consed list.

       A [while] loop over local float refs keeps the sums unboxed (a
       recursive scan boxes both floats on every step, which dominated
       the minor allocation of a served plan).  [rate.(i)] and [inv] are
       the very quotients the reference computes inline, and they are
       added in the same order, so every comparison sees the same
       floats. *)
    let i = ref (max from 0) and count = ref 0 in
    let sum_rate = ref 0.0 and sum_inv = ref 0.0 in
    let verdict = ref Infeasible and scanning = ref true in
    while !scanning do
      if !sum_rate > 0.0 && (1.0 +. (wpre *. !sum_inv)) /. !sum_rate <= budget then begin
        verdict := Servers !count;
        scanning := false
      end
      else if !count > cap then begin
        verdict := Overflow;
        scanning := false
      end
      else if !i >= usable then scanning := false
      else begin
        sum_rate := !sum_rate +. t.rate.(!i);
        sum_inv := !sum_inv +. inv;
        incr count;
        incr i
      end
    done;
    !verdict
  end

(* [min_servers ~from:1] without a cap: whether any prefix of the usable
   rest reaches the target service power.  If not, no scan from a later
   index can either — a suffix's usable set is pointwise weaker at every
   count, its numerator is count-determined and identical, so its
   condition is harder at every step — and the whole build is
   infeasible. *)
let feasible t ~target ~usable =
  match min_servers t ~target ~usable ~from:1 ~cap:max_int with
  | Servers _ -> true
  | Overflow | Infeasible -> false
