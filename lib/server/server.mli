(** [onion serve]: the long-lived query daemon.

    The CLI answers one question per process, re-opening the workspace
    and re-warming every cache each time.  The daemon opens its
    workspaces once and answers questions over TCP and/or Unix-domain
    sockets using the {!Protocol} framing, keeping the revision caches,
    {!Label_index}es and the workspace space memos warm across requests —
    the long-lived mediator process the paper's derived-mediator story
    presumes.

    {b Tenancy.}  One daemon serves N workspaces ([onion serve
    --workspace NAME=DIR ...]).  Requests carry an optional [workspace=]
    attribute routing them to a tenant; without one they target the
    default (first-configured) workspace.  Admission is fair-share aware
    per tenant — one hot workspace cannot starve another (see
    {!Admission}) — and circuit-breaker/fsck state is per-workspace by
    construction (it lives in each {!Workspace.t}).

    {b Ops.}  [query <text>] (mediated OQL over the workspace
    federation, body identical to the CLI's report), [algebra
    union|intersection|difference <articulation>] (over the stored
    articulation and the current source files), [status] / [health]
    ({!Status_json} documents — degraded federation stays visible to
    clients), [stats] ({!Server_stats} as JSON, plus per-workspace
    admission and breaker state and the {!Domain_pool} counters inside
    ["plans"]), [ping], and [shutdown] (graceful drain, then the daemon
    exits).

    {b Concurrency.}  One reader thread per connection; workload ops
    ([query], [algebra], [status], [health]) are submitted to the
    bounded {!Admission} queue and executed by its worker {e domains} —
    N workers run N requests truly in parallel — while replies are
    written back by the owning connection thread.  Request compute fans
    out further through the persistent {!Domain_pool} (spawned eagerly
    at {!create}).  Mediator environments live with the workspace's
    space memo ({!Workspace.query_env}): one env per served space,
    shared by every worker domain and freed when the manifest or files
    it was built from change.  Control ops ([ping], [stats], [shutdown]) answer
    inline so the daemon stays observable and stoppable under
    saturation.  A full queue sheds load with an explicit [busy] reply
    carrying the queue depth and a retry hint.

    {b Shutdown.}  {!stop} (SIGTERM in the CLI, or the [shutdown] op)
    stops the accept loop, closes the listeners, drains queued and
    in-flight requests (new ones get [draining]), logs the final
    {!Server_stats} to stderr, then disconnects lingering clients and
    returns from {!serve} — the CLI then exits 0. *)

type config = {
  tcp : (string * int) option;  (** Bind host and port ([0] = ephemeral). *)
  unix_path : string option;  (** Unix-domain socket path. *)
  queue_capacity : int;  (** Admission queue bound. *)
  workers : int;  (** Admission worker domains. *)
  max_frame : int;  (** Largest accepted request frame. *)
  io_timeout_ms : int;
      (** Socket read/write timeout and whole-frame progress budget
          (slow-loris defense).  [0] disables. *)
  conn_lifetime_ms : int;
      (** Per-connection lifetime cap: the connection is closed at the
          next frame boundary past this age.  [0] disables. *)
  default_deadline_ms : int;
      (** Deadline applied to workload requests that carry no
          [deadline-ms=] attribute.  [0] = none. *)
  grace_ms : int;
      (** Shutdown grace: how long the drain waits before still-queued
          requests are answered [timeout] and in-flight work is
          hard-stopped.  [0] = wait forever (the old behaviour). *)
}

val default_config : config
(** No listeners configured, queue 64, workers 4,
    [max_frame = Protocol.default_max_frame].  The resilience knobs read
    the environment once at startup: [ONION_IO_TIMEOUT_MS] (default
    30000), [ONION_CONN_LIFETIME_MS] (600000), [ONION_DEFAULT_DEADLINE_MS]
    (0 = none), [ONION_GRACE_MS] (5000). *)

type t

val create : config -> (string * Workspace.t) list -> (t, string) result
(** Bind and listen on every configured address (at least one of [tcp] /
    [unix_path] is required).  [tenants] is the non-empty list of
    [(name, workspace)] pairs this daemon serves; the first is the
    default tenant and names must be unique.  The sockets are live when
    this returns, so callers may connect before {!serve} starts
    accepting.  Also starts the persistent {!Domain_pool}. *)

val serve : t -> unit
(** Accept loop; blocks until {!stop}, then performs the graceful
    shutdown described above and returns. *)

val stop : t -> unit
(** Request shutdown.  Async-signal-safe and idempotent: just flips an
    atomic flag the accept loop polls. *)

val stats : t -> Server_stats.t

val port : t -> int option
(** The actual TCP port after binding (useful with port [0]). *)

val addresses : t -> string list
(** Human-readable listen addresses ([tcp://...], [unix://...]). *)
