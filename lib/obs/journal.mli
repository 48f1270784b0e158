(** The crash-safe flight recorder behind [adept serve --journal].

    A journal is a directory of segment files.  Each segment starts
    with the magic ["ADJ1"] and then holds length-prefixed records:
    [u32 length | u32 crc32 | payload] (little-endian, IEEE CRC32 of
    the payload).  Every append is flushed, so a crash can damage at
    most the tail of the newest segment; both {!create} and {!open_}
    detect a torn or corrupt tail by CRC, keep every whole record
    before it, and count the loss instead of hiding it.  Segments
    rotate at [segment_bytes] and the oldest are deleted beyond
    [max_segments] (bounded retention).

    Records carry everything [adept obs replay] needs to rebuild the
    live observability exports bit-identically: the store/server
    configuration ({!record.Meta}), per-request sampling decisions
    ({!record.Begin_request}), finished traces with their spans
    ({!record.Finish}), periodic scrape summaries ({!record.Scrape}),
    alert transitions ({!record.Alert_edge}), verbatim access-log
    lines ({!record.Access}) and trace-dump cut points
    ({!record.Dump_marker}). *)

(** One scrape-cadence summary of the serving counters. *)
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
  j_busy : float list;  (** Per-domain busy ratios, domain order. *)
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
      m_shards : int;  (** Always 1 from current servers. *)
    }  (** First record of a serving run: the observability config. *)
  | Begin_request of { b_at : float; b_trace : int; b_sampled : bool }
      (** A request arrived carrying a trace id. *)
  | Finish of {
      f_at : float;
      f_trace : int;
      f_issued : float;
      f_conn : int;  (** Server connection that carried the request. *)
      f_spans : Request_trace.span array option;
          (** [None] when the trace overflowed [max_spans] and was
              dropped by the live store. *)
      f_dropped_spans : int;  (** Store-wide total after this finish. *)
    }  (** A sampled request finished. *)
  | Scrape of scrape
  | Alert_edge of {
      a_at : float;
      a_name : string;
      a_severity : string;
      a_state : string;  (** ["pending"] / ["firing"] / ["resolved"]. *)
      a_value : float;
    }  (** One alert state-machine transition. *)
  | Access of { x_at : float; x_line : string }
      (** A rendered access-log line, byte-verbatim. *)
  | Dump_marker of { d_at : float }
      (** A live trace/OTLP dump was rendered here — replay cuts at a
          marker to reproduce that dump's bytes. *)

val encode : record -> string
(** The record payload (without framing) — exposed for tests. *)

val decode : string -> record option
(** Inverse of {!encode}; [None] on an unknown (future) tag.
    @raise Bad_record nothing — malformed payloads return [None] or
    are caught internally by the segment scanner. *)

(** {1 Writing} *)

type writer

val create :
  ?segment_bytes:int -> ?max_segments:int -> string -> (writer, string) result
(** Open (creating the directory if needed) a journal for appending.
    Resumes after the last whole record of the newest segment,
    truncating any torn tail first.  Defaults: 4 MiB segments, 8
    segments retained.
    @raise Invalid_argument on [segment_bytes < 4096] or
    [max_segments < 1]. *)

val append : writer -> record -> int
(** Append one record (flushed before returning) and return the framed
    byte count.  Rotates to a new segment when the current one is
    full, deleting the oldest beyond [max_segments]. *)

val records_written : writer -> int

val close : writer -> unit

(** {1 Reading} *)

type read_stats = {
  r_segments : int;
  r_records : int;
  r_truncated : int;
      (** Segments whose tail was torn or corrupt — every whole record
          before the tear is still returned. *)
  r_bytes_lost : int;  (** Bytes discarded across all torn tails. *)
}

type reader

val open_ : string -> (reader, string) result
(** Read a journal directory (all segments, oldest first) or a single
    segment file.  Never fails on torn tails — those are recovered and
    counted in {!stats}. *)

val records : reader -> record list
(** Every recovered record, in append order. *)

val stats : reader -> read_stats
