(* Fork/join over a persistent, work-stealing pool of OCaml 5 domains.

   Work distribution inside one batch is a shared atomic cursor over the
   input array: each participant repeatedly claims the next unclaimed
   index and writes its result into that slot, so the output order is
   the input order no matter which domain ran which item.

   Domains are NOT spawned per call.  The pool is created lazily on
   first parallel use (or explicitly at daemon start via
   {!ensure_started}) and grows monotonically up to the requested size;
   every subsequent batch re-uses the same workers, so the ~30us/domain
   spawn cost disappears from the hot path — what the fan-out gate
   ({!batch}) prices is now a queue push, not a spawn.

   Deadlock freedom is by construction, not by luck: the caller of
   [map] is always the batch's k-th worker and runs the same claiming
   loop as the pooled domains.  Even if every pool worker is busy with
   other batches (or the pool never picks the posted tasks up at all),
   the caller alone drains the cursor and completes the batch.  Posted
   tasks that arrive late find the cursor exhausted and return
   immediately.  Nested calls from inside a worker additionally short
   circuit to [List.map] via the [in_worker] DLS flag, so a lint pass
   fanning out inside a pooled request neither deadlocks nor
   oversubscribes the machine. *)

let parse_size s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | _ -> None

let default_size () =
  match Sys.getenv_opt "ONION_DOMAINS" with
  | Some s -> (
      match parse_size s with
      | Some n -> n
      | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let size_ref = ref None (* resolved lazily so tests can set the env first *)

let size () =
  match !size_ref with
  | Some n -> n
  | None ->
      let n = default_size () in
      size_ref := Some n;
      n

let set_size n = size_ref := Some (max 1 n)

let with_size n f =
  let saved = !size_ref in
  set_size n;
  Fun.protect ~finally:(fun () -> size_ref := saved) f

(* True inside a worker task: nested combinator calls run sequentially
   rather than queueing work they would then wait on. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

(* ------------------------------------------------------------------ *)
(* The persistent pool                                                *)
(* ------------------------------------------------------------------ *)

(* Hard ceiling on persistent workers, far above any sane ONION_DOMAINS:
   the OCaml runtime caps live domains (128 on 64-bit), and the daemon's
   admission crew needs headroom too. *)
let max_workers = 64

type worker_slot = {
  queue : (unit -> unit) Queue.t;  (** guarded by [lock] — striped, one per worker *)
  lock : Mutex.t;
}

type pool = {
  slots : worker_slot array;  (* capacity [max_workers]; [spawned] are live *)
  mutable spawned : int;  (* guarded by [bell_lock] *)
  mutable domains : unit Domain.t list;  (* guarded by [bell_lock] *)
  pending : int Atomic.t;  (* tasks posted and not yet picked up *)
  rr : int Atomic.t;  (* round-robin submit cursor *)
  stop : bool Atomic.t;
  bell_lock : Mutex.t;
  bell : Condition.t;  (* idle workers sleep here; submits ring it *)
}

let pool =
  lazy
    {
      slots =
        Array.init max_workers (fun _ ->
            { queue = Queue.create (); lock = Mutex.create () });
      spawned = 0;
      domains = [];
      pending = Atomic.make 0;
      rr = Atomic.make 0;
      stop = Atomic.make false;
      bell_lock = Mutex.create ();
      bell = Condition.create ();
    }

(* Pop from the worker's own shard, else sweep the others (a steal). *)
let take_task p me =
  let try_slot i =
    let s = p.slots.(i) in
    Mutex.lock s.lock;
    let t = Queue.take_opt s.queue in
    Mutex.unlock s.lock;
    t
  in
  match try_slot me with
  | Some t ->
      Atomic.decr p.pending;
      Some t
  | None ->
      let n = p.spawned in
      let rec sweep k =
        if k >= n then None
        else
          let i = (me + k) mod n in
          if i = me then sweep (k + 1)
          else
            match try_slot i with
            | Some t ->
                Atomic.decr p.pending;
                Cache_stats.record_plan "pool.steal";
                Some t
            | None -> sweep (k + 1)
      in
      sweep 1

let worker_loop p me () =
  (* Persistent workers only ever run pool tasks, so the nested-call
     fallback flag is set once for the domain's lifetime. *)
  Domain.DLS.set in_worker true;
  let rec loop () =
    match take_task p me with
    | Some task ->
        (try task () with _ -> ());
        loop ()
    | None ->
        if not (Atomic.get p.stop) then begin
          Mutex.lock p.bell_lock;
          (* Re-check under the bell lock: a submit that raced the sweep
             rang the bell before we got here, and [pending] says so. *)
          if Atomic.get p.pending = 0 && not (Atomic.get p.stop) then
            Condition.wait p.bell p.bell_lock;
          Mutex.unlock p.bell_lock;
          loop ()
        end
  in
  loop ()

let shutdown_registered = ref false

let shutdown_pool () =
  let p = Lazy.force pool in
  Atomic.set p.stop true;
  Mutex.lock p.bell_lock;
  Condition.broadcast p.bell;
  let ds = p.domains in
  p.domains <- [];
  Mutex.unlock p.bell_lock;
  List.iter Domain.join ds

(* Grow the pool to [want] persistent workers (monotonic, capped).
   Returns how many workers are live after the call. *)
let ensure_workers want =
  let p = Lazy.force pool in
  let want = min want max_workers in
  if p.spawned >= want || Atomic.get p.stop then p.spawned
  else begin
    Mutex.lock p.bell_lock;
    if not !shutdown_registered then begin
      shutdown_registered := true;
      at_exit shutdown_pool
    end;
    while p.spawned < want && not (Atomic.get p.stop) do
      let me = p.spawned in
      p.domains <- Domain.spawn (worker_loop p me) :: p.domains;
      p.spawned <- p.spawned + 1;
      Cache_stats.record_plan "pool.domains"
    done;
    let n = p.spawned in
    Mutex.unlock p.bell_lock;
    n
  end

let started () = (Lazy.force pool).spawned

let ensure_started () = ignore (ensure_workers (size ()))

let submit_task p task =
  let n = max 1 p.spawned in
  let i = Atomic.fetch_and_add p.rr 1 mod n in
  let s = p.slots.(i) in
  Mutex.lock s.lock;
  Queue.add task s.queue;
  Mutex.unlock s.lock;
  Atomic.incr p.pending;
  Mutex.lock p.bell_lock;
  Condition.signal p.bell;
  Mutex.unlock p.bell_lock

(* ------------------------------------------------------------------ *)
(* Cost-based fan-out gating                                          *)
(* ------------------------------------------------------------------ *)

type batch_strategy = Sequential | Parallel of int

type batch = {
  batch_strategy : batch_strategy;
  items : int;
  per_item_cost : float;
  domains : int;
}

let batch_strategy_name = function
  | Sequential -> "sequential"
  | Parallel k -> Printf.sprintf "parallel(%d)" k

(* Spawning and joining a domain costs real time (minor heap setup, the
   join barrier, cross-domain cache traffic on the shared revision
   counter).  Calibrated against BENCH_match.json's federation fan-out,
   where eight ~400-term qualifications (~6e3 units each) measurably
   LOSE at two domains: the floor keeps that shape sequential and lets
   genuinely heavy batches fan out. *)
let spawn_cost = 30_000.0

(* Fan out only when the wall-clock saved by splitting the work across k
   domains covers every extra spawn with a 2x margin. *)
let spawn_margin = 2.0

let batch ~domains ~items ~per_item_cost =
  let k = max 1 (min domains items) in
  let total = float_of_int (max 0 items) *. Float.max 0.0 per_item_cost in
  let saved = total -. (total /. float_of_int k) in
  let batch_strategy =
    if k <= 1 then Sequential
    else if saved >= spawn_margin *. float_of_int (k - 1) *. spawn_cost then
      Parallel k
    else Sequential
  in
  { batch_strategy; items; per_item_cost; domains }

let explain_batch b =
  Printf.sprintf "plan: items=%d per-item%s%.3g total%s%.3g floor%s%.3g \
                  strategy=%s"
    b.items "\xe2\x89\x88" b.per_item_cost "\xe2\x89\x88"
    (float_of_int b.items *. b.per_item_cost)
    "\xe2\x89\x88" (spawn_margin *. spawn_cost)
    (batch_strategy_name b.batch_strategy)

(* A caller that can estimate its per-item work (one unit is roughly one
   elementary list/compare step) passes [?cost]; the pool then fans out
   only when {!batch} says the saved wall-clock covers the dispatch
   overhead — the benchmarks showed small batches (eight ~400-term
   qualifications) LOSING at two domains, and the floor keeps those
   sequential.  [with_gating false] restores unconditional fan-out so
   the benches can time the forced-parallel shape the gate avoids. *)
let gating = ref true

let with_gating b f =
  let saved = !gating in
  gating := b;
  Fun.protect ~finally:(fun () -> gating := saved) f

let batch_plan ~items ~per_item_cost =
  let domains = size () in
  if !gating then batch ~domains ~items ~per_item_cost
  else
    (* Gating off: every multi-item batch takes the parallel shape. *)
    let k = max 1 (min domains items) in
    {
      batch_strategy = (if k <= 1 then Sequential else Parallel k);
      items;
      per_item_cost;
      domains;
    }

(* ------------------------------------------------------------------ *)
(* Combinators                                                        *)
(* ------------------------------------------------------------------ *)

type 'b slot = Pending | Done of 'b | Failed of exn

let map_parallel f xs =
  let n = List.length xs in
  let k = min (size ()) n in
  if k <= 1 || n <= 1 || Domain.DLS.get in_worker then List.map f xs
  else begin
    let items = Array.of_list xs in
    let results = Array.make n Pending in
    let cursor = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let done_lock = Mutex.create () in
    let done_cond = Condition.create () in
    (* Pool domains have their own threads, so the caller's ambient
       {!Deadline} does not follow them implicitly: capture it here and
       re-install it inside each participant.  The per-item check turns
       a blown budget into [Failed Expired] slots (never [Pending] — the
       placement invariant below stays intact) and the earliest failure
       re-raises as usual. *)
    let deadline = Deadline.current () in
    let claim_loop () =
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          (results.(i) <-
             (match
                Deadline.check ();
                f items.(i)
              with
             | v -> Done v
             | exception e -> Failed e));
          (* Publish completion before waking the caller: the slot write
             above happens-before the increment, which happens-before
             the caller's read of [completed] = n. *)
          if Atomic.fetch_and_add completed 1 = n - 1 then begin
            Mutex.lock done_lock;
            Condition.broadcast done_cond;
            Mutex.unlock done_lock
          end;
          loop ()
        end
      in
      Deadline.with_deadline deadline loop
    in
    let p = Lazy.force pool in
    let before = p.spawned in
    let live = ensure_workers (k - 1) in
    if live > 0 then begin
      if live = before then Cache_stats.record_plan "pool.reuse_hits";
      (* Post one claiming task per helper; a task that starts after the
         caller finished the batch sees the cursor exhausted and exits. *)
      for _ = 1 to min (k - 1) live do
        submit_task p claim_loop
      done
    end;
    (* The calling domain is the batch's last worker; it participates
       under the nested-call flag, then waits for claimed-but-unfinished
       slots held by pool workers. *)
    let saved = Domain.DLS.get in_worker in
    Domain.DLS.set in_worker true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker saved) claim_loop;
    Mutex.lock done_lock;
    while Atomic.get completed < n do
      Condition.wait done_cond done_lock
    done;
    Mutex.unlock done_lock;
    (* Re-raise the earliest failure; otherwise collect in order. *)
    Array.iter (function Failed e -> raise e | _ -> ()) results;
    Array.to_list
      (Array.mapi
         (fun i result ->
           match result with
           | Done v -> v
           | Pending ->
               invalid_arg
                 (Printf.sprintf
                    "Domain_pool.map: result slot %d of %d was never \
                     claimed — work-distribution invariant broken"
                    i n)
           | Failed _ ->
               invalid_arg
                 (Printf.sprintf
                    "Domain_pool.map: slot %d failure escaped the re-raise \
                     scan"
                    i))
         results)
  end

(* With a [?cost] hint the batch is planned and the decision recorded
   (["pool.sequential"] / ["pool.parallel"] in Cache_stats); without one
   the legacy always-fan-out behaviour is kept and nothing is recorded —
   no planning decision was made.  Worker-nested calls stay sequential
   either way and record nothing: the enclosing call already planned. *)
let map ?cost f xs =
  match cost with
  | None -> map_parallel f xs
  | Some _ when Domain.DLS.get in_worker -> List.map f xs
  | Some per_item_cost -> (
      let plan = batch_plan ~items:(List.length xs) ~per_item_cost in
      match plan.batch_strategy with
      | Sequential ->
          Cache_stats.record_plan "pool.sequential";
          List.map f xs
      | Parallel _ ->
          Cache_stats.record_plan "pool.parallel";
          map_parallel f xs)

let concat_map ?cost f xs = List.concat (map ?cost f xs)

let filter ?cost p xs =
  let keep = map ?cost p xs in
  List.filter_map
    (fun (x, k) -> if k then Some x else None)
    (List.combine xs keep)
