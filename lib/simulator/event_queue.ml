type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;  (* heap.(0) unused sentinel-free; 0-based *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let cap = Array.length t.heap in
  let ncap = max 16 (2 * cap) in
  if t.size = cap then begin
    let nheap = Array.make ncap t.heap.(0) in
    Array.blit t.heap 0 nheap 0 t.size;
    t.heap <- nheap
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && earlier t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && earlier t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let add t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.size = 0 && Array.length t.heap = 0 then t.heap <- Array.make 16 entry
  else grow t;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop_min t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    Some (top.time, top.payload)
  end

let next_time t = if t.size = 0 then Float.infinity else t.heap.(0).time

let pop_min_exn t =
  if t.size = 0 then invalid_arg "Event_queue.pop_min_exn: empty queue";
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0
  end;
  top.payload

let size t = t.size
let is_empty t = t.size = 0
