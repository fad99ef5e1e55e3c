(** A byte-budgeted, domain-safe LRU over decoded segments.

    Unlike {!Lru} (which bounds entry count), this cache bounds resident
    {e bytes}: inserts evict least-recently-used entries until the budget
    holds.  The budget defaults to 256 MiB, overridable at creation or
    via [ONION_BLOCK_CACHE_BYTES].

    Registered in {!Cache_stats} under its name (cleared by [clear_all]
    like every result cache); additionally bumps the plan counters
    ["store.block_hit"], ["store.block_miss"], ["store.block_evict"]
    which survive [clear_all], so the daemon keeps lifetime totals. *)

type 'v t

val create :
  ?budget_bytes:int -> name:string -> size_of:('v -> int) -> unit -> 'v t
(** @raise Invalid_argument on a duplicate registry name. *)

val name : 'v t -> string

val budget : 'v t -> int
(** Budget in bytes. *)

val bytes_resident : 'v t -> int
val length : 'v t -> int

val insert : 'v t -> group:string -> string -> 'v -> unit
(** [group] tags the entry's owner (a workspace root) for per-tenant
    stats and targeted invalidation. *)

val find_opt : 'v t -> string -> 'v option

val find_or_compute : 'v t -> group:string -> string -> (unit -> 'v) -> 'v
(** The compute runs outside the lock (see {!Lru}); with caching
    disabled ({!Cache_stats.enabled}) it computes directly. *)

val mem : 'v t -> string -> bool

val remove : 'v t -> string -> unit
(** Drop one entry (absent keys are ignored). *)

val remove_group : 'v t -> string -> unit
(** Drop every entry tagged with the group (fsck / invalidation). *)

type group_stats = { entries : int; bytes : int }

val stats_for_group : 'v t -> string -> group_stats
