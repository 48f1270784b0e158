(* The crash-safe flight recorder: a directory of segment files, each a
   magic header followed by length-prefixed CRC-checked records.  Every
   append is flushed, so after a crash the only possible damage is a
   torn tail — which [open_] (and the writer, before appending) detects
   by CRC and truncates, counting the loss instead of hiding it. *)

module Rt = Request_trace

type scrape = {
  j_at : float;
  j_uptime : float;
  j_plans : int;
  j_replans : int;
  j_observes : int;
  j_stats : int;
  j_errors : int;
  j_coalesced : int;
  j_cache_hits : int;
  j_cache_misses : int;
  j_cache_evictions : int;
  j_cache_invalidations : int;
  j_inflight : int;
  j_latency_p50 : float;
  j_latency_p99 : float;
  j_hit_ratio : float;
  j_gc_pause_p99 : float;
  j_traces_sampled : int;
  j_busy : float list;
}

type record =
  | Meta of {
      m_at : float;
      m_sample_rate : float;
      m_max_traces : int;
      m_max_spans : int;
      m_scrape_interval : float;
      m_retention : float;
      m_workers : int;
      m_shards : int;
    }
  | Begin_request of { b_at : float; b_trace : int; b_sampled : bool }
  | Finish of {
      f_at : float;
      f_trace : int;
      f_issued : float;
      f_conn : int;
      f_spans : Rt.span array option;  (* None = span-overflowed, dropped *)
      f_dropped_spans : int;  (* store total after this finish *)
    }
  | Scrape of scrape
  | Alert_edge of {
      a_at : float;
      a_name : string;
      a_severity : string;
      a_state : string;
      a_value : float;
    }
  | Access of { x_at : float; x_line : string }
  | Dump_marker of { d_at : float }

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, the zlib polynomial), table-driven.             *)

(* Unboxed native ints throughout — the CRC is the hot path of every
   append, and [Int32] arithmetic boxes on each operation. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Payload codec: tag byte, then little-endian fixed-width fields.    *)

let magic = "ADJ1"
let max_record_bytes = 16 * 1024 * 1024

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))
let put_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)
let put_f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)
let put_bool buf v = put_u8 buf (if v then 1 else 0)

let put_str buf s =
  put_i64 buf (String.length s);
  Buffer.add_string buf s

type cursor = { data : string; mutable pos : int }

exception Bad_record

let need cur n = if cur.pos + n > String.length cur.data then raise Bad_record

let get_u8 cur =
  need cur 1;
  let v = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  v

let get_i64 cur =
  need cur 8;
  let v = Int64.to_int (String.get_int64_le cur.data cur.pos) in
  cur.pos <- cur.pos + 8;
  v

let get_f64 cur =
  need cur 8;
  let v = Int64.float_of_bits (String.get_int64_le cur.data cur.pos) in
  cur.pos <- cur.pos + 8;
  v

let get_bool cur = get_u8 cur <> 0

let get_str cur =
  let n = get_i64 cur in
  if n < 0 || n > max_record_bytes then raise Bad_record;
  need cur n;
  let s = String.sub cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

let tag_of = function
  | Meta _ -> 1
  | Begin_request _ -> 2
  | Finish _ -> 3
  | Scrape _ -> 4
  | Alert_edge _ -> 5
  | Access _ -> 6
  | Dump_marker _ -> 7

let encode r =
  let buf = Buffer.create 64 in
  put_u8 buf (tag_of r);
  (match r with
  | Meta m ->
      put_f64 buf m.m_at;
      put_f64 buf m.m_sample_rate;
      put_i64 buf m.m_max_traces;
      put_i64 buf m.m_max_spans;
      put_f64 buf m.m_scrape_interval;
      put_f64 buf m.m_retention;
      put_i64 buf m.m_workers;
      put_i64 buf m.m_shards
  | Begin_request b ->
      put_f64 buf b.b_at;
      put_i64 buf b.b_trace;
      put_bool buf b.b_sampled
  | Finish f ->
      put_f64 buf f.f_at;
      put_i64 buf f.f_trace;
      put_f64 buf f.f_issued;
      put_i64 buf f.f_conn;
      put_i64 buf f.f_dropped_spans;
      (match f.f_spans with
      | None -> put_u8 buf 0
      | Some spans ->
          put_u8 buf 1;
          put_i64 buf (Array.length spans);
          Array.iter
            (fun (sp : Rt.span) ->
              put_i64 buf sp.Rt.sp_id;
              put_i64 buf sp.Rt.sp_parent;
              put_u8 buf (Rt.kind_code sp.Rt.sp_kind);
              put_i64 buf sp.Rt.sp_node;
              put_f64 buf sp.Rt.sp_start;
              put_f64 buf sp.Rt.sp_stop)
            spans)
  | Scrape s ->
      put_f64 buf s.j_at;
      put_f64 buf s.j_uptime;
      put_i64 buf s.j_plans;
      put_i64 buf s.j_replans;
      put_i64 buf s.j_observes;
      put_i64 buf s.j_stats;
      put_i64 buf s.j_errors;
      put_i64 buf s.j_coalesced;
      put_i64 buf s.j_cache_hits;
      put_i64 buf s.j_cache_misses;
      put_i64 buf s.j_cache_evictions;
      put_i64 buf s.j_cache_invalidations;
      put_i64 buf s.j_inflight;
      put_f64 buf s.j_latency_p50;
      put_f64 buf s.j_latency_p99;
      put_f64 buf s.j_hit_ratio;
      put_f64 buf s.j_gc_pause_p99;
      put_i64 buf s.j_traces_sampled;
      put_i64 buf (List.length s.j_busy);
      List.iter (put_f64 buf) s.j_busy
  | Alert_edge a ->
      put_f64 buf a.a_at;
      put_str buf a.a_name;
      put_str buf a.a_severity;
      put_str buf a.a_state;
      put_f64 buf a.a_value
  | Access x ->
      put_f64 buf x.x_at;
      put_str buf x.x_line
  | Dump_marker d -> put_f64 buf d.d_at);
  Buffer.contents buf

let decode payload =
  let cur = { data = payload; pos = 0 } in
  match get_u8 cur with
  | 1 ->
      let m_at = get_f64 cur in
      let m_sample_rate = get_f64 cur in
      let m_max_traces = get_i64 cur in
      let m_max_spans = get_i64 cur in
      let m_scrape_interval = get_f64 cur in
      let m_retention = get_f64 cur in
      let m_workers = get_i64 cur in
      let m_shards = get_i64 cur in
      Some
        (Meta
           {
             m_at;
             m_sample_rate;
             m_max_traces;
             m_max_spans;
             m_scrape_interval;
             m_retention;
             m_workers;
             m_shards;
           })
  | 2 ->
      let b_at = get_f64 cur in
      let b_trace = get_i64 cur in
      let b_sampled = get_bool cur in
      Some (Begin_request { b_at; b_trace; b_sampled })
  | 3 ->
      let f_at = get_f64 cur in
      let f_trace = get_i64 cur in
      let f_issued = get_f64 cur in
      let f_conn = get_i64 cur in
      let f_dropped_spans = get_i64 cur in
      let f_spans =
        match get_u8 cur with
        | 0 -> None
        | _ ->
            let n = get_i64 cur in
            if n < 0 || n > max_record_bytes then raise Bad_record;
            Some
              (Array.init n (fun _ ->
                   let sp_id = get_i64 cur in
                   let sp_parent = get_i64 cur in
                   let code = get_u8 cur in
                   let sp_kind =
                     match Rt.kind_of_code code with
                     | Some k -> k
                     | None -> raise Bad_record
                   in
                   let sp_node = get_i64 cur in
                   let sp_start = get_f64 cur in
                   let sp_stop = get_f64 cur in
                   { Rt.sp_id; sp_parent; sp_kind; sp_node; sp_start; sp_stop }))
      in
      Some (Finish { f_at; f_trace; f_issued; f_conn; f_spans; f_dropped_spans })
  | 4 ->
      let j_at = get_f64 cur in
      let j_uptime = get_f64 cur in
      let j_plans = get_i64 cur in
      let j_replans = get_i64 cur in
      let j_observes = get_i64 cur in
      let j_stats = get_i64 cur in
      let j_errors = get_i64 cur in
      let j_coalesced = get_i64 cur in
      let j_cache_hits = get_i64 cur in
      let j_cache_misses = get_i64 cur in
      let j_cache_evictions = get_i64 cur in
      let j_cache_invalidations = get_i64 cur in
      let j_inflight = get_i64 cur in
      let j_latency_p50 = get_f64 cur in
      let j_latency_p99 = get_f64 cur in
      let j_hit_ratio = get_f64 cur in
      let j_gc_pause_p99 = get_f64 cur in
      let j_traces_sampled = get_i64 cur in
      let n = get_i64 cur in
      if n < 0 || n > 65536 then raise Bad_record;
      let j_busy = List.init n (fun _ -> get_f64 cur) in
      Some
        (Scrape
           {
             j_at;
             j_uptime;
             j_plans;
             j_replans;
             j_observes;
             j_stats;
             j_errors;
             j_coalesced;
             j_cache_hits;
             j_cache_misses;
             j_cache_evictions;
             j_cache_invalidations;
             j_inflight;
             j_latency_p50;
             j_latency_p99;
             j_hit_ratio;
             j_gc_pause_p99;
             j_traces_sampled;
             j_busy;
           })
  | 5 ->
      let a_at = get_f64 cur in
      let a_name = get_str cur in
      let a_severity = get_str cur in
      let a_state = get_str cur in
      let a_value = get_f64 cur in
      Some (Alert_edge { a_at; a_name; a_severity; a_state; a_value })
  | 6 ->
      let x_at = get_f64 cur in
      let x_line = get_str cur in
      Some (Access { x_at; x_line })
  | 7 -> Some (Dump_marker { d_at = get_f64 cur })
  | _ -> None (* unknown tag: a future record kind, skip it *)

(* ------------------------------------------------------------------ *)
(* Segment files.                                                     *)

let segment_name seq = Printf.sprintf "seg-%06d.adj" seq

let segment_seq name =
  try Scanf.sscanf name "seg-%06d.adj%!" (fun n -> Some n)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let list_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         match segment_seq name with
         | Some seq -> Some (seq, Filename.concat dir name)
         | None -> None)
  |> List.sort compare

(* Scan a segment file, returning the decoded records, the byte offset
   of the end of the last whole valid record (the truncation point for
   torn tails), and how many payload bytes past it were lost. *)
let scan_segment path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = in_channel_length ic in
      let data = really_input_string ic size in
      if size < String.length magic || String.sub data 0 (String.length magic) <> magic
      then (`Bad_magic, [], 0, size)
      else begin
        let records = ref [] in
        let pos = ref (String.length magic) in
        let valid_end = ref !pos in
        let torn = ref false in
        (try
           while !pos + 8 <= size do
             let len = Int32.to_int (String.get_int32_le data !pos) in
             let crc =
               Int32.to_int (String.get_int32_le data (!pos + 4)) land 0xFFFFFFFF
             in
             if len < 1 || len > max_record_bytes || !pos + 8 + len > size then begin
               torn := true;
               raise Exit
             end;
             let payload = String.sub data (!pos + 8) len in
             if crc32 payload <> crc then begin
               torn := true;
               raise Exit
             end;
             (match decode payload with
             | Some r -> records := r :: !records
             | None | (exception Bad_record) -> () (* unknown kind: skip *));
             pos := !pos + 8 + len;
             valid_end := !pos
           done;
           if !pos < size then torn := true
         with Exit -> ());
        let status = if !torn then `Torn else `Ok in
        (status, List.rev !records, !valid_end, size - !valid_end)
      end)

type read_stats = {
  r_segments : int;
  r_records : int;
  r_truncated : int;  (* segments with a torn or corrupt tail *)
  r_bytes_lost : int;
}

type reader = { r_recs : record list; r_stats : read_stats }

let records rd = rd.r_recs
let stats rd = rd.r_stats

let open_ path =
  if not (Sys.file_exists path) then Error (path ^ ": no such journal")
  else begin
    let segments =
      if Sys.is_directory path then List.map snd (list_segments path)
      else [ path ]
    in
    if segments = [] then Error (path ^ ": no journal segments")
    else begin
      let recs = ref [] and n = ref 0 and torn = ref 0 and lost = ref 0 in
      List.iter
        (fun seg ->
          let status, rs, _, bytes_lost = scan_segment seg in
          (match status with
          | `Ok -> ()
          | `Torn | `Bad_magic ->
              incr torn;
              lost := !lost + bytes_lost);
          n := !n + List.length rs;
          recs := List.rev_append rs !recs)
        segments;
      Ok
        {
          r_recs = List.rev !recs;
          r_stats =
            {
              r_segments = List.length segments;
              r_records = !n;
              r_truncated = !torn;
              r_bytes_lost = !lost;
            };
        }
    end
  end

(* ------------------------------------------------------------------ *)
(* Writer.                                                            *)

type writer = {
  dir : string;
  segment_bytes : int;
  max_segments : int;
  mutable seq : int;
  mutable oc : out_channel;
  mutable cur_bytes : int;
  mutable n_records : int;
  mutable n_bytes : int;
  mutable closed : bool;
}

let default_segment_bytes = 4 * 1024 * 1024
let default_max_segments = 8

let open_segment path =
  let exists = Sys.file_exists path in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  if not exists then begin
    output_string oc magic;
    flush oc
  end;
  oc

let prune w =
  let segs = list_segments w.dir in
  let excess = List.length segs - w.max_segments in
  if excess > 0 then
    List.iteri
      (fun i (_, path) -> if i < excess then try Sys.remove path with Sys_error _ -> ())
      segs

let create ?(segment_bytes = default_segment_bytes)
    ?(max_segments = default_max_segments) dir =
  if segment_bytes < 4096 then
    invalid_arg "Journal.create: segment_bytes must be >= 4096";
  if max_segments < 1 then invalid_arg "Journal.create: max_segments must be >= 1";
  try
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
    else if not (Sys.is_directory dir) then failwith (dir ^ ": not a directory");
    let seq, path, offset =
      match List.rev (list_segments dir) with
      | [] -> (0, Filename.concat dir (segment_name 0), 0)
      | (seq, path) :: _ ->
          (* crash recovery: truncate the newest segment's torn tail so
             the next append lands after the last whole record *)
          let status, _, valid_end, _ = scan_segment path in
          (match status with
          | `Ok -> ()
          | `Torn ->
              (* rewrite the valid prefix: dependency-free truncation *)
              let ic = open_in_bin path in
              let keep = really_input_string ic valid_end in
              close_in ic;
              let oc = open_out_bin path in
              output_string oc keep;
              close_out oc
          | `Bad_magic -> Sys.remove path);
          if status = `Bad_magic then (seq, path, 0)
          else (seq, path, valid_end)
    in
    let oc = open_segment path in
    let cur_bytes = if offset > 0 then offset else String.length magic in
    Ok
      {
        dir;
        segment_bytes;
        max_segments;
        seq;
        oc;
        cur_bytes;
        n_records = 0;
        n_bytes = 0;
        closed = false;
      }
  with Sys_error e | Failure e -> Error e

let rotate w =
  close_out_noerr w.oc;
  w.seq <- w.seq + 1;
  let path = Filename.concat w.dir (segment_name w.seq) in
  w.oc <- open_segment path;
  w.cur_bytes <- String.length magic;
  prune w

let append w r =
  if w.closed then invalid_arg "Journal.append: writer is closed";
  let payload = encode r in
  let framed = 8 + String.length payload in
  if w.cur_bytes > String.length magic && w.cur_bytes + framed > w.segment_bytes
  then rotate w;
  let header = Bytes.create 8 in
  Bytes.set_int32_le header 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_le header 4 (Int32.of_int (crc32 payload));
  output_bytes w.oc header;
  output_string w.oc payload;
  flush w.oc;
  w.cur_bytes <- w.cur_bytes + framed;
  w.n_records <- w.n_records + 1;
  w.n_bytes <- w.n_bytes + framed;
  framed

let records_written w = w.n_records

let close w =
  if not w.closed then begin
    w.closed <- true;
    close_out_noerr w.oc
  end
