(** A persistent, work-stealing [Domain] pool for query fan-out.

    The ROADMAP's "fast as the hardware allows" goal meets OCaml 5
    multicore here: per-source work in {!Mediator}, {!Federation} and
    {!Kb} fans out across domains while every result keeps its input
    position — callers observe exactly the sequential order, whatever
    the pool size.

    Workers are {e persistent}: spawned lazily on first parallel use (or
    eagerly via {!ensure_started} at daemon start), they live for the
    process and serve every subsequent batch from striped per-worker
    queues with work stealing — dispatch is a queue push, not a
    ~30us [Domain.spawn].  The caller of every batch participates as its
    last worker and can always drain the batch alone, so a saturated (or
    never-started) pool delays work but can never deadlock it; calls
    nested inside a worker short-circuit to their [List] counterparts.

    The pool size comes from the [ONION_DOMAINS] environment variable
    when set (clamped to at least 1), and from
    [Domain.recommended_domain_count] otherwise.  Size 1 is the
    sequential fallback: no domain is ever spawned and every combinator
    degenerates to its [List] counterpart.

    Pool telemetry lands in {!Cache_stats} plan counters (surviving
    [Cache_stats.clear_all], like every planning counter):
    ["pool.domains"] — persistent workers spawned, ["pool.steal"] —
    tasks taken from another worker's queue, ["pool.reuse_hits"] —
    batches dispatched entirely onto already-running workers.

    Tasks run under the shared result caches; {!Lru} is mutex-guarded
    and {!Revision} atomic precisely so that workers may allocate graphs
    and consult caches concurrently. *)

val size : unit -> int
(** The current pool size (>= 1). *)

val set_size : int -> unit
(** Override the pool size (clamped to at least 1).  Intended for tests
    and benchmarks; production code should configure [ONION_DOMAINS]. *)

val with_size : int -> (unit -> 'a) -> 'a
(** Run the thunk with the pool size temporarily overridden, restoring
    the previous size afterwards (also on exceptions). *)

val ensure_started : unit -> unit
(** Spawn the persistent workers up to {!size} now instead of on first
    parallel use — the daemon calls this once at startup so no request
    ever pays a spawn.  Idempotent; the pool only ever grows (bounded by
    an internal ceiling) and is joined automatically at process exit. *)

val started : unit -> int
(** Persistent workers currently running (0 until the first parallel
    batch or {!ensure_started}). *)

(** {1 Cost-gated fan-out}

    Callers that can estimate their per-item work (in abstract cost
    units; one unit is roughly one elementary list/compare step) pass
    [?cost] to the combinators.  The pool then consults {!batch} and
    fans out only when the wall-clock saved by splitting the batch
    covers the domain spawns with margin — small batches run
    sequentially instead of paying the 2-domain penalty the benchmarks
    exposed.  Every gated decision is recorded in {!Cache_stats} plan
    counters (["pool.sequential"] / ["pool.parallel"]).  Without [?cost]
    the combinators keep the legacy always-fan-out behaviour and record
    nothing. *)

(** How a batch of independent items should execute on the pool. *)
type batch_strategy =
  | Sequential
  | Parallel of int  (** Number of domains to fan out over. *)

(** An explainable fan-out plan. *)
type batch = {
  batch_strategy : batch_strategy;
  items : int;
  per_item_cost : float;  (** Caller-estimated cost units per item. *)
  domains : int;  (** Domains available at planning time. *)
}

val batch : domains:int -> items:int -> per_item_cost:float -> batch
(** Fan out iff the wall-clock saved by splitting [items * per_item_cost]
    across [min domains items] workers covers every extra domain spawn
    with a calibrated margin; below the floor the batch stays
    sequential.  Deterministic in its arguments. *)

val batch_strategy_name : batch_strategy -> string
(** ["sequential"] / ["parallel(k)"]. *)

val explain_batch : batch -> string
(** One stable line, e.g.
    ["plan: items=8 per-item\xe2\x89\x886e3 total\xe2\x89\x884.8e4 floor\xe2\x89\x886e4 strategy=sequential"]. *)

val batch_plan : items:int -> per_item_cost:float -> batch
(** The fan-out plan for a batch at the current {!size}, honouring
    {!with_gating}: with gating off, every multi-item batch takes the
    parallel shape.  Exposed so callers (e.g. the mediator's report and
    [--explain]) can show the decision they are about to execute. *)

val with_gating : bool -> (unit -> 'a) -> 'a
(** Run the thunk with cost gating switched on/off, restoring the
    previous state afterwards (also on exceptions).  [with_gating false]
    forces the parallel shape for any [?cost] — the benchmarks use it to
    time forced fan-out against the gate's choice. *)

val map : ?cost:float -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] is [List.map f xs], computed on up to {!size} domains.
    Results keep their input order.  If any task raises, the exception of
    the earliest-positioned failing task is re-raised after all workers
    have drained.  [?cost] is the estimated per-item work enabling the
    gate above. *)

val concat_map : ?cost:float -> ('a -> 'b list) -> 'a list -> 'b list
(** [concat_map f xs] is [List.concat_map f xs] with {!map}'s
    parallelism, ordering and gating guarantees. *)

val filter : ?cost:float -> ('a -> bool) -> 'a list -> 'a list
(** [filter p xs] is [List.filter p xs], with the predicate evaluated in
    parallel (subject to the same gate). *)
