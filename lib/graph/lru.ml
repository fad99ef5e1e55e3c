(* A bounded memo table with least-recently-used eviction.

   Keys are compared with structural equality (polymorphic [=], the
   default Hashtbl behaviour), which is exact — hash collisions are
   resolved by full comparison, so a hit can never return the result of a
   different key.  Keys must therefore be closure-free data; every cache
   in the tree keys on (operation parameters, revision stamps), both plain
   data.

   Recency is a per-entry tick from a shared counter; eviction scans for
   the minimum.  With the small capacities used here (hundreds of
   entries) the O(n) scan is noise next to the recomputation a single hit
   saves.

   Domain safety: every access to the table and the counters happens
   under the cache's mutex, so {!Domain_pool} workers can share the
   process-wide caches.  [find_or_compute] deliberately runs the compute
   function *outside* the lock — holding it would serialize every worker
   on the slowest computation and deadlock on reentrant cache use (a
   cached filter calling the cached matcher calling the cached index).
   Two workers missing on the same key may therefore both compute it;
   they compute the same pure function of the same key, so the duplicate
   insert is idempotent — wasted work at worst, never a wrong answer. *)

type ('k, 'v) t = {
  name : string;
  capacity : int;
  tbl : ('k, 'v entry) Hashtbl.t;
  lock : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

and 'v entry = { value : 'v; mutable last_used : int }

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let snapshot c =
  locked c @@ fun () ->
  {
    Cache_stats.hits = c.hits;
    misses = c.misses;
    evictions = c.evictions;
    entries = Hashtbl.length c.tbl;
    capacity = c.capacity;
  }

let clear c =
  locked c @@ fun () ->
  Hashtbl.reset c.tbl;
  c.tick <- 0;
  c.hits <- 0;
  c.misses <- 0;
  c.evictions <- 0

let create ~name ~capacity () =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  let c =
    {
      name;
      capacity;
      tbl = Hashtbl.create (min capacity 64);
      lock = Mutex.create ();
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }
  in
  Cache_stats.register ~name
    ~snapshot:(fun () -> snapshot c)
    ~clear:(fun () -> clear c);
  c

let name c = c.name

let capacity c = c.capacity

let length c = locked c @@ fun () -> Hashtbl.length c.tbl

let touch c entry =
  c.tick <- c.tick + 1;
  entry.last_used <- c.tick

let evict_lru c =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, best) when best <= e.last_used -> acc
        | _ -> Some (k, e.last_used))
      c.tbl None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove c.tbl k;
      c.evictions <- c.evictions + 1
  | None -> ()

(* Caller must hold the lock. *)
let insert_locked c key value =
  if not (Hashtbl.mem c.tbl key) then begin
    if Hashtbl.length c.tbl >= c.capacity then evict_lru c;
    let entry = { value; last_used = 0 } in
    touch c entry;
    Hashtbl.replace c.tbl key entry
  end

let insert c key value = locked c @@ fun () -> insert_locked c key value

let find_opt c key =
  if not (Cache_stats.enabled ()) then None
  else
    locked c @@ fun () ->
    match Hashtbl.find_opt c.tbl key with
    | Some entry ->
        touch c entry;
        c.hits <- c.hits + 1;
        Some entry.value
    | None ->
        c.misses <- c.misses + 1;
        None

let find_or_compute c key f =
  if not (Cache_stats.enabled ()) then f ()
  else
    let cached =
      locked c @@ fun () ->
      match Hashtbl.find_opt c.tbl key with
      | Some entry ->
          touch c entry;
          c.hits <- c.hits + 1;
          Some entry.value
      | None ->
          c.misses <- c.misses + 1;
          None
    in
    match cached with
    | Some value -> value
    | None ->
        let value = f () in
        insert c key value;
        value

let mem c key = locked c @@ fun () -> Hashtbl.mem c.tbl key

let peek c key =
  if not (Cache_stats.enabled ()) then None
  else
    locked c @@ fun () ->
    Option.map (fun e -> e.value) (Hashtbl.find_opt c.tbl key)
