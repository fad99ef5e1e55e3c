(* A byte-budgeted LRU over decoded segments.

   The graph-layer Lru bounds entry COUNT, which is the right bound for
   small memo tables; decoded segments vary from a few hundred bytes to
   tens of megabytes, so this cache bounds RESIDENT BYTES instead: an
   insert evicts least-recently-used entries until the budget holds.

   Domain safety mirrors Lru: every table access runs under the mutex,
   computes run outside it (two domains missing on one segment may both
   decode it; the duplicate insert is idempotent).

   Counters live in two places, deliberately:
   - the Cache_stats REGISTRY entry ("store.block"), cleared by
     clear_all like every result cache (a cold start empties the cache);
   - the Cache_stats PLAN counters ("store.block_hit" / "store.block_miss"
     / "store.block_evict" / "store.segment_load"), which survive
     clear_all — clearing caches models a cold start, not an amnesiac
     store, so the daemon's stats op keeps lifetime totals. *)

type 'v entry = {
  value : 'v;
  size : int;
  group : string;  (* owning workspace root, for per-tenant stats *)
  mutable last_used : int;
}

type 'v t = {
  name : string;
  budget : int;  (* bytes *)
  size_of : 'v -> int;
  tbl : (string, 'v entry) Hashtbl.t;
  lock : Mutex.t;
  mutable tick : int;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_budget_bytes = 256 * 1024 * 1024

let budget_from_env () =
  match Sys.getenv_opt "ONION_BLOCK_CACHE_BYTES" with
  | None -> default_budget_bytes
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> default_budget_bytes)

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
    capacity = c.budget;
  }

let clear c =
  locked c @@ fun () ->
  Hashtbl.reset c.tbl;
  c.tick <- 0;
  c.bytes <- 0;
  c.hits <- 0;
  c.misses <- 0;
  c.evictions <- 0

let create ?budget_bytes ~name ~size_of () =
  let budget =
    match budget_bytes with Some b when b > 0 -> b | _ -> budget_from_env ()
  in
  let c =
    {
      name;
      budget;
      size_of;
      tbl = Hashtbl.create 256;
      lock = Mutex.create ();
      tick = 0;
      bytes = 0;
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
let budget c = c.budget
let bytes_resident c = locked c @@ fun () -> c.bytes
let length c = locked c @@ fun () -> Hashtbl.length c.tbl

let touch c entry =
  c.tick <- c.tick + 1;
  entry.last_used <- c.tick

(* Caller holds the lock.  Evict LRU entries until [need] more bytes fit
   in the budget.  An over-budget single entry still gets admitted once
   the table is empty: refusing it would thrash the very segment the
   query needs. *)
let make_room_locked c need =
  while c.bytes + need > c.budget && Hashtbl.length c.tbl > 0 do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, best) when best.last_used <= e.last_used -> acc
          | _ -> Some (k, e))
        c.tbl None
    in
    match victim with
    | None -> ()
    | Some (k, e) ->
        Hashtbl.remove c.tbl k;
        c.bytes <- c.bytes - e.size;
        c.evictions <- c.evictions + 1;
        Cache_stats.record_plan "store.block_evict"
  done

let insert c ~group key value =
  locked c @@ fun () ->
  if not (Hashtbl.mem c.tbl key) then begin
    let size = c.size_of value in
    make_room_locked c size;
    let entry = { value; size; group; last_used = 0 } in
    touch c entry;
    Hashtbl.replace c.tbl key entry;
    c.bytes <- c.bytes + size
  end

let find_opt c key =
  if not (Cache_stats.enabled ()) then None
  else
    locked c @@ fun () ->
    match Hashtbl.find_opt c.tbl key with
    | Some entry ->
        touch c entry;
        c.hits <- c.hits + 1;
        Cache_stats.record_plan "store.block_hit";
        Some entry.value
    | None ->
        c.misses <- c.misses + 1;
        Cache_stats.record_plan "store.block_miss";
        None

let find_or_compute c ~group key f =
  match find_opt c key with
  | Some v -> v
  | None ->
      let value = f () in
      if Cache_stats.enabled () then insert c ~group key value;
      value

let mem c key = locked c @@ fun () -> Hashtbl.mem c.tbl key

(* Caller holds the lock. *)
let remove_locked c key =
  match Hashtbl.find_opt c.tbl key with
  | None -> ()
  | Some e ->
      Hashtbl.remove c.tbl key;
      c.bytes <- c.bytes - e.size

let remove c key = locked c @@ fun () -> remove_locked c key

let remove_group c group =
  locked c @@ fun () ->
  Hashtbl.fold
    (fun k e acc -> if String.equal e.group group then k :: acc else acc)
    c.tbl []
  |> List.iter (remove_locked c)

type group_stats = { entries : int; bytes : int }

let stats_for_group c group =
  locked c @@ fun () ->
  Hashtbl.fold
    (fun _ e acc ->
      if String.equal e.group group then
        { entries = acc.entries + 1; bytes = acc.bytes + e.size }
      else acc)
    c.tbl { entries = 0; bytes = 0 }
