type config = {
  tcp : (string * int) option;
  unix_path : string option;
  queue_capacity : int;
  workers : int;
  max_frame : int;
  io_timeout_ms : int;
  conn_lifetime_ms : int;
  default_deadline_ms : int;
  grace_ms : int;
}

let env_ms name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> n
      | _ -> default)
  | None -> default

let default_config =
  {
    tcp = None;
    unix_path = None;
    queue_capacity = 64;
    workers = 4;
    max_frame = Protocol.default_max_frame;
    io_timeout_ms = env_ms "ONION_IO_TIMEOUT_MS" 30_000;
    conn_lifetime_ms = env_ms "ONION_CONN_LIFETIME_MS" 600_000;
    default_deadline_ms = env_ms "ONION_DEFAULT_DEADLINE_MS" 0;
    grace_ms = env_ms "ONION_GRACE_MS" 5_000;
  }

type t = {
  config : config;
  (* Workspaces served by this daemon, in configuration order; the first
     is the default tenant (requests without a [workspace=] attribute).
     Names are unique — [create] rejects duplicates. *)
  tenants : (string * Workspace.t) list;
  admission : Admission.t;
  stats : Server_stats.t;
  listeners : Unix.file_descr list;
  tcp_port : int option;
  unix_path : string option;
  stop_flag : bool Atomic.t;
  (* Live client connections, so shutdown can disconnect lingerers. *)
  conn_mutex : Mutex.t;
  mutable conn_fds : Unix.file_descr list;
  mutable conn_threads : Thread.t list;
}

(* ------------------------------------------------------------------ *)
(* Listeners                                                          *)
(* ------------------------------------------------------------------ *)

let listen_tcp host port =
  let inet =
    try Unix.inet_addr_of_string host
    with _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with _ -> raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (inet, port));
  Unix.listen fd 128;
  let actual_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, actual_port)

let listen_unix path =
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 128;
  fd

let rec find_dup = function
  | [] -> None
  | n :: rest -> if List.mem n rest then Some n else find_dup rest

let create config tenants =
  if config.tcp = None && config.unix_path = None then
    Error "serve: configure a TCP port and/or a Unix socket path"
  else if tenants = [] then Error "serve: configure at least one workspace"
  else
    match find_dup (List.map fst tenants) with
    | Some n -> Error (Printf.sprintf "serve: duplicate workspace name %S" n)
    | None -> begin
        (* A peer vanishing mid-reply must not kill the daemon. *)
        (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
        (* Spawn the persistent compute pool now so no request pays a
           domain spawn. *)
        Domain_pool.ensure_started ();
        match
          let tcp_listener =
            Option.map (fun (host, port) -> listen_tcp host port) config.tcp
          in
          let unix_listener = Option.map listen_unix config.unix_path in
          (tcp_listener, unix_listener)
        with
        | exception Unix.Unix_error (e, fn, arg) ->
            Error
              (Printf.sprintf "serve: cannot listen (%s %s: %s)" fn arg
                 (Unix.error_message e))
        | tcp_listener, unix_listener ->
            Ok
              {
                config;
                tenants;
                admission =
                  Admission.create
                    ~tenants:(List.map fst tenants)
                    ~capacity:config.queue_capacity ~workers:config.workers ();
                stats = Server_stats.create ();
                listeners =
                  List.filter_map Fun.id
                    [ Option.map fst tcp_listener; unix_listener ];
                tcp_port = Option.map snd tcp_listener;
                unix_path = config.unix_path;
                stop_flag = Atomic.make false;
                conn_mutex = Mutex.create ();
                conn_fds = [];
                conn_threads = [];
              }
      end

let stop t = Atomic.set t.stop_flag true
let stats t = t.stats
let port t = t.tcp_port

let addresses t =
  (match (t.config.tcp, t.tcp_port) with
  | Some (host, _), Some port -> [ Printf.sprintf "tcp://%s:%d" host port ]
  | _ -> [])
  @
  match t.unix_path with
  | Some path -> [ Printf.sprintf "unix://%s" path ]
  | None -> []

let default_tenant t = List.hd t.tenants

let tenant_for t req =
  match req.Protocol.workspace with
  | None -> Ok (default_tenant t)
  | Some name -> (
      match List.assoc_opt name t.tenants with
      | Some ws -> Ok (name, ws)
      | None -> Error (Printf.sprintf "unknown workspace %S" name))

(* ------------------------------------------------------------------ *)
(* Request execution                                                  *)
(* ------------------------------------------------------------------ *)

let health_warnings health =
  if Health.ok health then []
  else
    List.map
      (fun i -> Format.asprintf "%a" Health.pp_issue i)
      health.Health.issues

(* Queries go through Workspace.query_env: on a paged tenant the
   anchor label routes to its articulation group, and that group's
   space, its one shared mediator env and the default ontology all come
   from the workspace's snapshot of the current manifest — the server
   keeps no env memo of its own.  The default ontology is the FULL
   workspace's, not the routed space's own primary articulation —
   otherwise restricting the space would change how a bare concept in
   the query text parses.  Reply warnings cover the parts actually
   serving the routed space plus store-level strays; the status/health
   ops still scan the whole workspace. *)
let run_query ws text =
  if String.trim text = "" then Protocol.error "query: empty query text"
  else
    match Workspace.query_env ws text with
    | Error m -> Protocol.error ("workspace: " ^ m)
    | Ok { Workspace.env; health; default_ontology } -> (
        match Mediator.run_text ?default_ontology env text with
        | Ok report ->
            Protocol.ok
              ~warnings:(health_warnings health)
              (Format.asprintf "%a" Mediator.pp_report report ^ "\n")
        | Error m -> Protocol.error ("query error: " ^ m))

let run_algebra ws arg =
  let op, name =
    match String.index_opt arg ' ' with
    | None -> (arg, "")
    | Some i ->
        ( String.sub arg 0 i,
          String.trim (String.sub arg (i + 1) (String.length arg - i - 1)) )
  in
  let op = String.lowercase_ascii op in
  if name = "" then
    Protocol.error "algebra: usage: algebra union|intersection|difference <articulation>"
  else
    match Workspace.load_articulation ws name with
    | Error m -> Protocol.error ("algebra: " ^ m)
    | Ok art -> (
        let sources () =
          match
            ( Workspace.load_source ws (Articulation.left art),
              Workspace.load_source ws (Articulation.right art) )
          with
          | Ok l, Ok r -> Ok (l, r)
          | Error m, _ | _, Error m -> Error m
        in
        match op with
        | "intersection" ->
            Protocol.ok (Render.ontology_tree (Algebra.intersection art))
        | "union" -> (
            match sources () with
            | Error m -> Protocol.error ("algebra: " ^ m)
            | Ok (left, right) ->
                Protocol.ok
                  (Render.unified_overview (Algebra.union ~left ~right art)))
        | "difference" -> (
            match sources () with
            | Error m -> Protocol.error ("algebra: " ^ m)
            | Ok (left, right) ->
                Protocol.ok
                  (Render.ontology_tree
                     (Algebra.difference ~minuend:left ~subtrahend:right art)))
        | other ->
            Protocol.error
              (Printf.sprintf
                 "algebra: unknown operator %s (union|intersection|difference)"
                 other))

let run_workload ws (req : Protocol.request) =
  match req.Protocol.op with
  | "query" -> run_query ws req.Protocol.arg
  | "algebra" -> run_algebra ws req.Protocol.arg
  | "status" -> Protocol.ok (Status_json.workspace ws)
  | "health" -> Protocol.ok (Status_json.health (Workspace.health ws))
  | op -> Protocol.error (Printf.sprintf "unknown op %S" op)

let is_workload op =
  match op with
  | "query" | "algebra" | "status" | "health" -> true
  | _ -> false

(* The retry hint scales with how backed up the queue is; shedding at
   depth 0 (capacity 0, the test configuration) still suggests a pause. *)
let retry_ms_for depth = min 1000 (25 * (depth + 1))

(* ------------------------------------------------------------------ *)
(* Connections                                                        *)
(* ------------------------------------------------------------------ *)

let forget_connection t fd =
  Mutex.lock t.conn_mutex;
  t.conn_fds <- List.filter (fun f -> f != fd) t.conn_fds;
  Mutex.unlock t.conn_mutex

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e9)

let busy_reply depth =
  {
    Protocol.status = Protocol.Busy { depth; retry_ms = retry_ms_for depth };
    warnings = [];
    body = "";
  }

(* Execute one admitted workload request: the connection thread parks on
   a cell an admission worker domain fills, then writes the reply back
   itself — execution happens on the worker's domain, reply IO stays
   with the owning connection.  The request's deadline rides along:
   expiry while queued resolves the cell with a timeout reply (so the
   connection thread never wedges), and expiry mid-execution surfaces as
   Deadline.Expired from a cooperative check inside the workload.
   Fair-share eviction resolves the cell with a busy reply. *)
let execute_admitted t tenant ws req deadline =
  if Deadline.expired deadline then begin
    (* Dead on arrival (or deadline-ms <= 0): answer without queueing. *)
    Server_stats.expired_in_queue t.stats;
    Protocol.timeout "deadline expired while queued"
  end
  else begin
    let cell = ref None in
    let m = Mutex.create () in
    let ready = Condition.create () in
    let fill reply =
      Mutex.lock m;
      cell := Some reply;
      Condition.signal ready;
      Mutex.unlock m
    in
    let job () =
      let reply =
        try Deadline.with_deadline deadline (fun () -> run_workload ws req)
        with
        | Deadline.Expired ->
            Server_stats.timeout t.stats;
            Protocol.timeout "deadline expired during execution"
        | e -> Protocol.error ("internal error: " ^ Printexc.to_string e)
      in
      fill reply
    in
    let on_expired () =
      Server_stats.expired_in_queue t.stats;
      fill (Protocol.timeout "deadline expired while queued")
    in
    let on_evicted ~depth =
      Server_stats.shed t.stats;
      fill (busy_reply depth)
    in
    match
      Admission.submit ~tenant ~deadline ~on_expired ~on_evicted t.admission
        job
    with
    | Admission.Shed { depth } ->
        Server_stats.shed t.stats;
        busy_reply depth
    | Admission.Draining ->
        Server_stats.refused_draining t.stats;
        { Protocol.status = Protocol.Draining; warnings = []; body = "" }
    | Admission.Accepted ->
        Mutex.lock m;
        while !cell = None do
          Condition.wait ready m
        done;
        let reply = Option.get !cell in
        Mutex.unlock m;
        reply
  end

(* A workspace's circuit breakers, rendered for the stats body. *)
let breakers_json ws =
  let str s = "\"" ^ Status_json.escape s ^ "\"" in
  let one (b : Breaker.info) =
    Printf.sprintf
      "{ \"name\": %s, \"state\": %s, \"failures\": %d, \"cooldown_ms\": %d }"
      (str b.Breaker.name)
      (str (Breaker.string_of_state b.Breaker.info_state))
      b.Breaker.info_failures b.Breaker.info_cooldown_ms
  in
  "[" ^ String.concat ", " (List.map one (Workspace.breakers ws)) ^ "]"

(* Per-tenant view: admission pressure, breaker state, block-cache
   residency and resident mediator envs, one object per configured
   workspace. *)
let workspaces_json t =
  let str s = "\"" ^ Status_json.escape s ^ "\"" in
  let shed = Admission.shed_by_tenant t.admission in
  let one (name, ws) =
    let bc = Workspace.block_stats ws in
    Printf.sprintf
      "{ \"name\": %s, \"queued\": %d, \"shed\": %d, \"breakers\": %s, \
       \"block_cache\": { \"entries\": %d, \"bytes\": %d }, \"envs\": %d }"
      (str name)
      (Admission.tenant_depth t.admission name)
      (Option.value (List.assoc_opt name shed) ~default:0)
      (breakers_json ws) bc.Block_cache.entries bc.Block_cache.bytes
      (Workspace.resident_envs ws)
  in
  "[" ^ String.concat ", " (List.map one t.tenants) ^ "]"

(* Process-wide segment-store counters: lifetime block-cache traffic,
   routing-snapshot builds and shard decodes (the "store.*" plan
   counters survive Cache_stats.clear_all) plus current residency
   against the byte budget. *)
let store_json () =
  let count name =
    Option.value ~default:0 (List.assoc_opt name (Cache_stats.plan_counts ()))
  in
  Printf.sprintf
    "{ \"segments_loaded\": %d, \"route_snapshots\": %d, \
     \"shard_decodes\": %d, \"block_hits\": %d, \"block_misses\": %d, \
     \"block_evictions\": %d, \"bytes_resident\": %d, \"budget_bytes\": %d }"
    (count "store.segment_load")
    (count "store.route_snapshot")
    (count "store.shard_decode")
    (count "store.block_hit")
    (count "store.block_miss")
    (count "store.block_evict")
    (Workspace.block_cache_resident ())
    (Workspace.block_cache_budget ())

(* Incremental-analysis plan counters: how much re-linting the delta
   engine consumed, skipped and patched.  Like "store.*" and "pool.*"
   these survive Cache_stats.clear_all — clearing caches models a cold
   start, not an amnesiac planner. *)
let delta_json () =
  let count name =
    Option.value ~default:0 (List.assoc_opt name (Cache_stats.plan_counts ()))
  in
  Printf.sprintf
    "{ \"ops\": %d, \"passes_rerun\": %d, \"passes_skipped\": %d, \
     \"index_patches\": %d }"
    (count "delta.ops")
    (count "delta.passes_rerun")
    (count "delta.passes_skipped")
    (count "delta.index_patch")

let handle_request t (req : Protocol.request) =
  (* Snapshot before the gauge ticks up: a lone stats probe reads the
     daemon as idle rather than counting itself in flight. *)
  let stats_body =
    if req.Protocol.op = "stats" then
      Some
        (Server_stats.to_json
           ~extra:
             [
               ("breakers", breakers_json (snd (default_tenant t)));
               ("workspaces", workspaces_json t);
               ("store", store_json ());
               ("delta", delta_json ());
             ]
           t.stats)
    else None
  in
  (* The request's time budget: an explicit deadline-ms attribute wins;
     otherwise the configured default (0 = none). *)
  let deadline =
    match req.Protocol.deadline_ms with
    | Some ms -> Deadline.after_ms ms
    | None ->
        if t.config.default_deadline_ms > 0 then
          Deadline.after_ms t.config.default_deadline_ms
        else Deadline.never
  in
  Server_stats.incr_in_flight t.stats;
  Fun.protect
    ~finally:(fun () -> Server_stats.decr_in_flight t.stats)
    (fun () ->
      let reply, ns =
        timed (fun () ->
            match req.Protocol.op with
            | "ping" -> Protocol.ok "pong\n"
            | "stats" -> Protocol.ok (Option.get stats_body)
            | "shutdown" ->
                stop t;
                Protocol.ok "draining, then exiting\n"
            | op when is_workload op -> (
                match tenant_for t req with
                | Error m -> Protocol.error m
                | Ok (tenant, ws) ->
                    execute_admitted t tenant ws req deadline)
            | op -> Protocol.error (Printf.sprintf "unknown op %S" op))
      in
      (match reply.Protocol.status with
      | Protocol.Ok | Protocol.Error ->
          Server_stats.record t.stats ~op:req.Protocol.op
            ~ok:(reply.Protocol.status = Protocol.Ok)
            ~ns
      | Protocol.Busy _ | Protocol.Draining | Protocol.Timeout -> ());
      reply)

let handle_connection t fd =
  (* Slow-client defense: reads and writes that make no progress for
     io_timeout_ms fail (surfacing as Stalled) instead of pinning this
     thread; the same budget bounds whole-frame progress inside
     read_frame.  Socket options only exist on sockets — the raw-stream
     unit tests drive this code over files, where setsockopt fails and
     is ignored. *)
  let io_ms = t.config.io_timeout_ms in
  if io_ms > 0 then begin
    let s = float_of_int io_ms /. 1000. in
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s with _ -> ());
    try Unix.setsockopt_float fd Unix.SO_SNDTIMEO s with _ -> ()
  end;
  let budget_ms = if io_ms > 0 then Some io_ms else None in
  let conn_deadline =
    if t.config.conn_lifetime_ms > 0 then
      Deadline.after_ms t.config.conn_lifetime_ms
    else Deadline.never
  in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send reply =
    try Protocol.write_frame oc (Protocol.encode_reply reply)
    with _ ->
      (* A write timeout means the peer stopped reading: drop it. *)
      Server_stats.io_stall t.stats;
      raise Exit
  in
  let rec loop () =
    if Deadline.expired conn_deadline then Server_stats.conn_expired t.stats
    else
      match Protocol.read_frame ~max:t.config.max_frame ?budget_ms ic with
      | Error Protocol.Stalled -> Server_stats.io_stall t.stats
      | Error (Protocol.Refused _ as e) ->
          (* Unrecoverable but polite: say why, then hang up. *)
          Server_stats.protocol_error t.stats;
          (try send (Protocol.error (Protocol.read_error_message e))
           with _ -> ())
      | Error e when Protocol.connection_survives e ->
          Server_stats.protocol_error t.stats;
          send (Protocol.error (Protocol.read_error_message e));
          loop ()
      | Error _ -> () (* EOF or truncated payload: the stream is done. *)
      | Ok payload ->
          let req = Protocol.decode_request payload in
          if req.Protocol.op = "" then begin
            Server_stats.protocol_error t.stats;
            send (Protocol.error "empty request")
          end
          else send (handle_request t req);
          loop ()
  in
  (try loop () with _ -> ());
  forget_connection t fd;
  (try Unix.close fd with _ -> ())

(* ------------------------------------------------------------------ *)
(* Accept loop and graceful shutdown                                  *)
(* ------------------------------------------------------------------ *)

let accept_ready t lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      Mutex.lock t.conn_mutex;
      t.conn_fds <- fd :: t.conn_fds;
      t.conn_threads <-
        Thread.create (fun () -> handle_connection t fd) () :: t.conn_threads;
      Mutex.unlock t.conn_mutex

let serve t =
  while not (Atomic.get t.stop_flag) do
    match Unix.select t.listeners [] [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ -> List.iter (accept_ready t) ready
  done;
  (* 1. Refuse new connections. *)
  List.iter (fun fd -> try Unix.close fd with _ -> ()) t.listeners;
  (match t.unix_path with
  | Some path -> ( try Unix.unlink path with _ -> ())
  | None -> ());
  (* 2. Drain under the grace budget: queued and in-flight requests
     complete and their replies are written by the connection threads;
     new submits get [draining].  The hard stop is armed first so
     in-flight work that would outlive the grace raises at its next
     cooperative check instead of wedging the drain; when the grace
     runs out, still-queued jobs are resolved with timeout replies. *)
  let grace =
    if t.config.grace_ms > 0 then Some (Deadline.after_ms t.config.grace_ms)
    else None
  in
  (match grace with Some d -> Deadline.set_hard_stop d | None -> ());
  Admission.drain ?deadline:grace t.admission;
  (* 3. The final account, logged where the operator is watching. *)
  Format.eprintf "%a@." Server_stats.pp t.stats;
  (* 4. Disconnect lingering clients and collect every thread. *)
  Mutex.lock t.conn_mutex;
  let fds = t.conn_fds and threads = t.conn_threads in
  t.conn_threads <- [];
  Mutex.unlock t.conn_mutex;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
    fds;
  List.iter Thread.join threads;
  Admission.shutdown t.admission;
  Deadline.clear_hard_stop ()
