(** Bounded memo tables with least-recently-used eviction, the storage
    behind every revision-stamped result cache ({!Matcher.find}, the
    unary and binary algebra operators, query planning).

    Keys are compared with {e structural} equality, so hits are exact;
    keys must be closure-free data — in this tree always a tuple of
    operation parameters and {!Revision} stamps.  Each cache registers
    itself with {!Cache_stats} at creation and honours the global
    {!Cache_stats.enabled} switch: while caching is disabled,
    {!find_or_compute} calls the supplied thunk directly and neither
    reads nor writes the table.

    Caches are domain-safe: all table and counter access is mutex-guarded,
    so {!Domain_pool} workers share them freely.  {!find_or_compute} runs
    the compute thunk outside the lock; concurrent misses on one key may
    compute it twice (same key, same pure function — idempotent), which
    costs duplicated work, never a wrong answer. *)

type ('k, 'v) t

val create : name:string -> capacity:int -> unit -> ('k, 'v) t
(** A fresh cache holding at most [capacity] entries, registered with
    {!Cache_stats} under [name].
    @raise Invalid_argument on a non-positive capacity or duplicate
    name. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_compute c key f] returns the cached value for [key] or
    computes, stores and returns [f ()], evicting the least recently used
    entry when full.  With caching disabled it is exactly [f ()]. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Lookup without computing (counts as hit or miss); [None] when
    disabled. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Pure presence test: no counter movement, ignores the enabled flag. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Pure lookup: the cached value if present, never computing, with no
    counter or recency movement; [None] when disabled. *)

val clear : ('k, 'v) t -> unit
(** Drop all entries and reset counters. *)

val length : ('k, 'v) t -> int

val capacity : ('k, 'v) t -> int

val name : ('k, 'v) t -> string

val snapshot : ('k, 'v) t -> Cache_stats.snapshot
