type snapshot = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

type registered = { snapshot : unit -> snapshot; clear : unit -> unit }

(* Registration happens once per cache at module initialization; an
   association list keeps the interface dependency-free and the order
   deterministic (sorted on read). *)
let registry : (string * registered) list ref = ref []

let enabled_flag = ref true

let enabled () = !enabled_flag

let set_enabled b = enabled_flag := b

let with_disabled f =
  let saved = !enabled_flag in
  enabled_flag := false;
  Fun.protect ~finally:(fun () -> enabled_flag := saved) f

let register ~name ~snapshot ~clear =
  if List.mem_assoc name !registry then
    invalid_arg ("Cache_stats.register: duplicate cache name " ^ name);
  registry := (name, { snapshot; clear }) :: !registry

let names () = List.sort String.compare (List.map fst !registry)

let get name =
  Option.map (fun r -> r.snapshot ()) (List.assoc_opt name !registry)

let all () =
  List.map (fun name -> (name, (List.assoc name !registry).snapshot ())) (names ())

let clear name =
  match List.assoc_opt name !registry with
  | Some r ->
      r.clear ();
      true
  | None -> false

let clear_all () = List.iter (fun (_, r) -> r.clear ()) !registry

(* Plan-strategy counters: one bump per planning decision, keyed on a
   stable strategy name ("pool.parallel", "store.shard_decode", ...).
   Guarded by a mutex because Domain_pool workers plan concurrently.  Separate
   from the cache registry on purpose: [clear_all] models a cold cache,
   not an amnesiac planner, so the distribution survives it. *)
let plan_mutex = Mutex.create ()

let plan_tbl : (string, int) Hashtbl.t = Hashtbl.create 16

let record_plans name count =
  if count > 0 then begin
    Mutex.lock plan_mutex;
    let n = Option.value (Hashtbl.find_opt plan_tbl name) ~default:0 in
    Hashtbl.replace plan_tbl name (n + count);
    Mutex.unlock plan_mutex
  end

let record_plan name = record_plans name 1

let plan_counts () =
  Mutex.lock plan_mutex;
  let counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) plan_tbl [] in
  Mutex.unlock plan_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) counts

let reset_plans () =
  Mutex.lock plan_mutex;
  Hashtbl.reset plan_tbl;
  Mutex.unlock plan_mutex

let pp_snapshot ppf s =
  Format.fprintf ppf "%d/%d entries, %d hits, %d misses, %d evictions (%.0f%% hit)"
    s.entries s.capacity s.hits s.misses s.evictions (100.0 *. hit_rate s)

let pp ppf () =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, s) -> Format.fprintf ppf "%-24s %a@," name pp_snapshot s)
    (all ());
  Format.fprintf ppf "@]"
