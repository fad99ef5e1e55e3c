(** Request metrics for the query daemon.

    Every request the server answers is measured: per-op counters
    (ok / error), an in-flight gauge, a bounded log-scaled latency
    histogram per op (so p50/p99 come from fixed memory however long the
    daemon runs), admission-control tallies (accepted / shed busy /
    refused while draining), and the movement of the {!Cache_stats}
    counters since the daemon started — the warm-cache dividend a
    long-lived process exists to collect.

    All entry points are thread-safe: connection threads and admission
    workers record concurrently. *)

type t

val create : unit -> t
(** Also snapshots the current {!Cache_stats} counters as the baseline
    for {!cache_deltas}. *)

(** {1 Recording} *)

val incr_in_flight : t -> unit
val decr_in_flight : t -> unit

val record : t -> op:string -> ok:bool -> ns:float -> unit
(** One finished request: latency in nanoseconds, success or error. *)

val shed : t -> unit
(** One request refused with a [busy] reply. *)

val refused_draining : t -> unit
(** One request refused with a [draining] reply. *)

val protocol_error : t -> unit
(** One malformed frame answered with an error reply. *)

val timeout : t -> unit
(** One request whose deadline expired mid-execution (answered
    [timeout]). *)

val expired_in_queue : t -> unit
(** One request whose deadline expired while queued (answered [timeout]
    without running). *)

val io_stall : t -> unit
(** One connection dropped by the slow-client defense (socket timeout
    or frame-progress watchdog). *)

val conn_expired : t -> unit
(** One connection closed by the per-connection lifetime cap. *)

(** {1 Reading} *)

type op_stats = {
  op : string;
  ok : int;
  errors : int;
  p50_ns : float;  (** Histogram-estimated median latency. *)
  p99_ns : float;
  max_ns : float;
  total_ns : float;
}

type snapshot = {
  uptime_s : float;
  in_flight : int;
  accepted : int;  (** Requests admitted for execution. *)
  shed_busy : int;
  refused_draining : int;
  protocol_errors : int;
  timeouts : int;  (** Deadlines blown mid-execution. *)
  expired_in_queue : int;  (** Deadlines blown while queued. *)
  io_stalls : int;  (** Connections dropped by the slow-client defense. *)
  conns_expired : int;  (** Connections past the lifetime cap. *)
  ops : op_stats list;  (** Sorted by op name. *)
  cache_deltas : (string * Cache_stats.snapshot) list;
      (** Per-cache counter movement since {!create}: hits / misses /
          evictions are deltas; entries / capacity are current. *)
  plans : (string * int) list;
      (** The plan counters ({!Cache_stats.plan_counts}): how often each
          execution strategy (["pool.parallel"], ["store.shard_decode"],
          ...) was chosen over the process lifetime.  Lives here rather than in the [status] body
          because status is a pure function of the workspace (concurrent
          replies are bit-for-bit equal) while these counters move with
          every planned request. *)
}

val snapshot : t -> snapshot

val in_flight : t -> int

val to_json : ?extra:(string * string) list -> t -> string
(** The [stats] protocol reply body.  [extra] appends top-level fields
    whose values are already-rendered JSON (the server passes the
    workspace's circuit-breaker array). *)

val pp : Format.formatter -> t -> unit
(** Human rendering, logged when the daemon drains. *)
