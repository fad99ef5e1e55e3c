(** Registry and counters for every revision-keyed result cache.

    Each {!Lru} cache registers itself here under a stable name
    (["matcher.find"], ["algebra.union"], ["rewrite.plan"], ...), so the
    toolkit, the benchmarks and the tests can inspect hit/miss behaviour,
    clear everything between cold and warm runs, and switch caching off
    wholesale to prove it is semantically invisible. *)

type snapshot = {
  hits : int;  (** Lookups answered from the cache. *)
  misses : int;  (** Lookups that fell through to recomputation. *)
  evictions : int;  (** Entries dropped by the LRU bound. *)
  entries : int;  (** Current population. *)
  capacity : int;  (** The LRU bound. *)
}

val hit_rate : snapshot -> float
(** Hits over total lookups; [0.] before any lookup. *)

(** {1 Global switch} *)

val enabled : unit -> bool
(** Caching is on by default. *)

val set_enabled : bool -> unit
(** While disabled, every cache computes directly: no lookups, no
    insertions, no counter movement.  Existing entries are kept (they
    become visible again when re-enabled and are still revision-correct,
    since revisions never lie). *)

val with_disabled : (unit -> 'a) -> 'a
(** Run a thunk with caching off — the cold path used by the equivalence
    property tests and the benchmarks.  Restores the previous state even
    on exceptions. *)

(** {1 Registry} *)

val register :
  name:string -> snapshot:(unit -> snapshot) -> clear:(unit -> unit) -> unit
(** Called by {!Lru.create}; cache names must be unique.
    @raise Invalid_argument on a duplicate name. *)

val names : unit -> string list
(** Registered cache names, sorted. *)

val get : string -> snapshot option

val all : unit -> (string * snapshot) list
(** Every cache with its snapshot, sorted by name. *)

val clear : string -> bool
(** Empty one cache (counters reset too); [false] if unknown. *)

val clear_all : unit -> unit
(** Empty every registered cache — the benchmarks' cold start. *)

(** {1 Plan-strategy counters}

    The {!Domain_pool} fan-out gate, the paged store and the delta
    engine record every decision here under a stable strategy name
    (["pool.sequential"], ["pool.parallel"], ["store.shard_decode"],
    ["delta.index_patch"], ...), so the benchmarks and the daemon's
    stats op can report the plan distribution.  Counters are
    mutex-guarded (planning happens on pool workers) and deliberately
    survive {!clear_all}: clearing caches models a cold start, not an
    amnesiac planner. *)

val record_plan : string -> unit
(** Bump the counter for one strategy name. *)

val record_plans : string -> int -> unit
(** Bump a counter by [count] in one locked step (the delta engine
    accounts whole op batches); non-positive counts are ignored. *)

val plan_counts : unit -> (string * int) list
(** Every recorded strategy with its count, sorted by name. *)

val reset_plans : unit -> unit
(** Zero all plan counters (tests and bench sections start fresh). *)

val pp_snapshot : Format.formatter -> snapshot -> unit

val pp : Format.formatter -> unit -> unit
(** All caches, one line each. *)
