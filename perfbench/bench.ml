(* The served-query benchmark.

   Drives a real in-process daemon ([Server] over a Unix socket, one
   [Client] connection per closed-loop client) against a generated
   workspace, plus — on edit-paged — one in-process writer on its own
   [Workspace] handle, and prints one JSON result line.

     bench --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]

   --trace 0 reports the end-to-end metrics of one untraced run.
   --trace 1 runs the same seeded sequence twice on one set-up: first
   untraced (counter deltas, and the untraced p50 the tracing overhead
   is taken against), then traced, where every request records a span
   tree (client round trip, server time from [stats] deltas, and an
   in-process replay of the server's calls), and reports the per-layer
   metrics.  Everything is measured from outside the program: timed
   calls into public functions and the program's public counters. *)

open Workloads

(* ------------------------------------------------------------------ *)
(* Arguments                                                          *)
(* ------------------------------------------------------------------ *)

type args = {
  kind : kind;
  seed : int;
  seconds : float;
  trace : bool;
  rev : string;
  setup_only : bool;  (** Set up once, print the time and exit (see below). *)
}

(* Scratch space inside the working directory: workspaces (deleted at
   the end of a run), the results log and the span files. *)
let work = ".perfbench_work"

(* Cold set-ups per run; [setup_s] is their median. *)
let setups = 3

(* edit-paged: the writer's edits per second, a rate the store sustains
   (edits take about 100 ms on the reference machine). *)
let edit_rate = 2.0

let usage () =
  prerr_endline
    "usage: bench --workload serve-flat|serve-paged|edit-paged --seed N \
     --seconds S --trace 0|1 [--rev REV]";
  exit 2

let parse_args () =
  let a =
    ref
      {
        kind = Serve_flat;
        seed = 1;
        seconds = 10.0;
        trace = false;
        rev = "unknown";
        setup_only = false;
      }
  in
  let have_workload = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> (
        match List.assoc_opt w kinds with
        | Some k ->
            a := { !a with kind = k };
            have_workload := true;
            go rest
        | None ->
            Printf.eprintf "unknown workload %s\n" w;
            usage ())
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some s -> a := { !a with seed = s }; go rest
        | None -> usage ())
    | "--seconds" :: n :: rest -> (
        match float_of_string_opt n with
        | Some s when s > 0.0 -> a := { !a with seconds = s }; go rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest ->
        a := { !a with trace = t = "1" };
        go rest
    | "--rev" :: r :: rest -> a := { !a with rev = r }; go rest
    | "--setup-only" :: rest -> a := { !a with setup_only = true }; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not !have_workload then usage ();
  !a

(* ------------------------------------------------------------------ *)
(* Small helpers                                                      *)
(* ------------------------------------------------------------------ *)

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

let secs_since t0 = Monotonic.elapsed_s ~since:t0
let us_of_ns ns = Int64.to_float ns /. 1e3

(* A growable float array. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted ts =
    let a = Array.concat (List.map (fun t -> Array.sub t.a 0 t.n) ts) in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ------------------------------------------------------------------ *)
(* What the server computes for a query, computed in process          *)
(* ------------------------------------------------------------------ *)

(* The environment [Server] builds for a space on an env-memo miss. *)
let build_env space =
  let kbs =
    List.map
      (fun o -> Kb.of_ontology_instances ~ontology:o ("kb-" ^ Ontology.name o))
      space.Federation.sources
  in
  Mediator.env_federated ~kbs ~space ()

let health_warnings h =
  if Health.ok h then []
  else List.map (fun i -> Format.asprintf "%a" Health.pp_issue i) h.Health.issues

let render_report r = Format.asprintf "%a" Mediator.pp_report r ^ "\n"

(* An MRU of mediator environments keyed physically on the space, as
   wide as the daemon's per-domain memo. *)
module Env_mru = struct
  let width = 8

  type t = { mutable entries : (Federation.t * Mediator.env) list }

  let create () = { entries = [] }

  let find t space =
    match List.find_opt (fun (s, _) -> s == space) t.entries with
    | Some (_, env) ->
        t.entries <- (space, env) :: List.filter (fun (s, _) -> not (s == space)) t.entries;
        Some env
    | None -> None

  let add t space env =
    t.entries <- (space, env) :: List.filteri (fun i _ -> i < width - 1) t.entries
end

(* The reply the daemon must send for [text]: the server's query path
   replayed against [ws].  Also returns the sources of the space that
   answered. *)
let reference ~mru ws text =
  match Workspace.query_space ws text with
  | Error m -> (Protocol.error ("workspace: " ^ m), [])
  | Ok (space, health) -> (
      let env =
        match Env_mru.find mru space with
        | Some env -> env
        | None ->
            let env = build_env space in
            Env_mru.add mru space env;
            env
      in
      ( (match
           Mediator.run_text ?default_ontology:(Workspace.default_ontology ws) env text
         with
        | Ok report -> Protocol.ok ~warnings:(health_warnings health) (render_report report)
        | Error m -> Protocol.error ("query error: " ^ m)),
        Federation.source_names space ))

(* ------------------------------------------------------------------ *)
(* Set-up                                                             *)
(* ------------------------------------------------------------------ *)

type setup = {
  gen : Workloads.t;
  ws : Workspace.t;  (** The daemon's handle. *)
  writer_ws : Workspace.t option;  (** edit-paged: the writer's handle. *)
  queries : (string * string * Protocol.reply) array;
      (** Query text, its anchor label, and the reference reply. *)
  server : Server.t;
  serve_thread : Thread.t;
  socket : string;
  probes : (string, unit) Hashtbl.t;
      (** edit-paged: sources that hold the writer's probe node now. *)
}

let address s = Client.Unix_socket s.socket

let teardown s =
  Server.stop s.server;
  Thread.join s.serve_thread;
  rm_rf s.gen.dir;
  (try Sys.remove s.socket with Sys_error _ -> ())

let anchor_of ws text =
  match Query.parse ?default_ontology:(Workspace.default_ontology ws) text with
  | Ok q -> Some (Term.qualified q.Query.concept)
  | Error _ -> None

(* Reference replies for the generated queries, each computed on a
   fresh handle.  Queries the parser rejects (the generator's [Order]
   concept reads as a keyword) would route to the full space and answer
   an error; they are dropped, as are any the reference does not answer
   [Ok].  On a paged workspace the queries are visited grouped by anchor
   and a handle is renewed whenever the anchor leaves the group it
   answered last, so the references never hold more than one group
   space; the client order stays the generated one. *)
let references ws ~dir texts =
  let texts = Array.of_list texts in
  let anchors = Array.map (anchor_of ws) texts in
  let replies = Array.make (Array.length texts) None in
  let order = List.init (Array.length texts) Fun.id in
  let order =
    List.stable_sort (fun i j -> compare anchors.(i) anchors.(j)) order
  in
  let fresh = ref None and group = ref [] and mru = ref (Env_mru.create ()) in
  List.iter
    (fun i ->
      match anchors.(i) with
      | None -> ()
      | Some anchor ->
          let onto = List.hd (String.split_on_char ':' anchor) in
          let h =
            match !fresh with
            | Some h when (not (Workspace.is_paged ws)) || List.mem onto !group -> h
            | _ ->
                let h = ok "open" (Workspace.open_ dir) in
                fresh := Some h;
                mru := Env_mru.create ();
                h
          in
          let reply, sources = reference ~mru:!mru h texts.(i) in
          group := sources;
          if reply.Protocol.status = Protocol.Ok then replies.(i) <- Some (anchor, reply))
    order;
  Array.to_list texts
  |> List.mapi (fun i text -> Option.map (fun (a, r) -> (text, a, r)) replies.(i))
  |> List.filter_map Fun.id |> Array.of_list

(* Generate, publish, open, compute the reference replies on a fresh
   handle, cold-lint the writer's handle (edit-paged), start the daemon
   and send every query through it once. *)
let set_up args ~dir =
  let phases = ref [] in
  let phase name f =
    let t0 = Monotonic.now_ns () in
    let v = f () in
    phases := Printf.sprintf "%s %.2fs" name (secs_since t0) :: !phases;
    v
  in
  let gen = phase "generate" (fun () -> Workloads.generate args.kind ~seed:args.seed ~dir) in
  let ws = ok "open" (Workspace.open_ dir) in
  let queries = phase "references" (fun () -> references ws ~dir gen.queries) in
  if Array.length queries = 0 then failwith "set-up: no query answers ok";
  let writer_ws =
    match args.kind with
    | Edit_paged ->
        let w = ok "open" (Workspace.open_ dir) in
        phase "cold lint" (fun () -> ignore (Workspace.lint w : Lint.report));
        Some w
    | Serve_flat | Serve_paged -> None
  in
  let socket = dir ^ ".sock" in
  let config =
    {
      Server.default_config with
      Server.unix_path = Some socket;
      workers = Domain_pool.size ();
    }
  in
  let server = ok "serve" (Server.create config [ ("bench", ws) ]) in
  let serve_thread = Thread.create Server.serve server in
  let s =
    { gen; ws; writer_ws; queries; server; serve_thread; socket; probes = Hashtbl.create 16 }
  in
  phase "warm-up" (fun () ->
      ok "warm-up"
        (Client.with_connection (address s) (fun c ->
             Array.iter
               (fun (text, _, _) -> ignore (Client.request c ~op:"query" ~arg:text))
               queries;
             Ok ())));
  log "set-up phases: %s" (String.concat ", " (List.rev !phases));
  s

let run_dir () = Filename.concat work (Printf.sprintf "run-%d" (Unix.getpid ()))

let timed_set_up args ~dir =
  let t0 = Monotonic.now_ns () in
  let s = set_up args ~dir in
  (s, secs_since t0)

(* A set-up in a child process of this executable ([--setup-only]),
   returning its time.  Each child starts cold, and none of its garbage
   or worker domains stays in the heap that [peak_heap_mb] reads. *)
let child_set_up args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv =
    [| Sys.executable_name; "--workload"; Workloads.name args.kind; "--seed";
       string_of_int args.seed; "--setup-only" |]
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match (snd (Unix.waitpid [] pid), float_of_string_opt line) with
  | Unix.WEXITED 0, Some t -> t
  | _ -> failwith "set-up in a child process failed"

(* [setups] cold set-ups: all but the last in child processes, the last
   in this process, which keeps it for measuring.  The set-up time is
   their median.  A run owns the scratch space: workspaces left by an
   interrupted run are removed first. *)
let set_up_repeatedly args =
  mkdir_p work;
  Array.iter
    (fun f -> if String.starts_with ~prefix:"run-" f then rm_rf (Filename.concat work f))
    (Sys.readdir work);
  let child_times =
    List.init (setups - 1) (fun k ->
        let t = child_set_up args in
        log "set-up %d: %.3fs (child process)" k t;
        t)
  in
  let base = run_dir () in
  mkdir_p base;
  let s, t = timed_set_up args ~dir:(Filename.concat base "ws") in
  log "set-up %d: %.3fs (%d queries)" (setups - 1) t (Array.length s.queries);
  let sorted = Array.of_list (t :: child_times) in
  Array.sort Float.compare sorted;
  (base, s, percentile sorted 0.5)

(* ------------------------------------------------------------------ *)
(* The daemon's stats op                                              *)
(* ------------------------------------------------------------------ *)

type server_counts = {
  query_ok : int;
  query_total_ns : float;
  shed : int;
  timeouts : int;
  expired : int;
  protocol_errors : int;
}

let server_counts c =
  match Client.request c ~op:"stats" ~arg:"" with
  | Ok { Protocol.status = Protocol.Ok; body; _ } ->
      let j = Json_lite.parse body in
      let query =
        List.find_opt
          (fun o -> Json_lite.member "op" o = Some (Json_lite.Str "query"))
          (Json_lite.items (Json_lite.member "ops" j))
      in
      let qf k = match query with Some o -> Json_lite.num (Json_lite.member k o) | None -> 0.0 in
      let i k = int_of_float (Json_lite.num (Json_lite.member k j)) in
      {
        query_ok = int_of_float (qf "ok");
        query_total_ns = qf "total_ns";
        shed = i "shed_busy";
        timeouts = i "timeouts";
        expired = i "expired_in_queue";
        protocol_errors = i "protocol_errors";
      }
  | Ok r -> failwith ("stats: " ^ Protocol.status_to_string r.Protocol.status)
  | Error m -> failwith ("stats: " ^ m)

let stats_of s = ok "stats" (Client.with_connection (address s) (fun c -> Ok (server_counts c)))

(* ------------------------------------------------------------------ *)
(* Load                                                               *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

type client_out = {
  lat : Samples.t;  (** Round trips of correct replies, ms. *)
  c_tally : tally;
  reply_bytes : Samples.t;
  digest_us : Samples.t;
  lookup_us : Samples.t;
  mutable env_builds : int;
  mutable rebuilds : int;
  mutable warned : int;  (** Correct replies whose warnings differ. *)
  mutable tuples : int;
  mutable replayed : int;
  rec_ : Spans.recorder;
}

let new_client_out ~first ~stride =
  {
    lat = Samples.create ();
    c_tally = { attempted = 0; failed = 0 };
    reply_bytes = Samples.create ();
    digest_us = Samples.create ();
    lookup_us = Samples.create ();
    env_builds = 0;
    rebuilds = 0;
    warned = 0;
    tuples = 0;
    replayed = 0;
    rec_ = Spans.recorder ~first ~stride;
  }

let time_us f =
  let t0 = Monotonic.now_ns () in
  let v = f () in
  (v, us_of_ns (Monotonic.elapsed_ns ~since:t0))

(* The calls [Server] makes for one query, replayed in process on the
   daemon's own handle and recorded as children of [server]. *)
let replay s out tree ~mru ~last_space ~server ~text ~anchor reply =
  let span name f = Spans.replay tree ~parent:server name f in
  span "protocol.codec" (fun () ->
      let req =
        Protocol.encode_request
          { Protocol.op = "query"; arg = text; deadline_ms = None; workspace = None }
      in
      ignore (Protocol.decode_request req : Protocol.request);
      ignore (Protocol.decode_reply (Protocol.encode_reply reply)));
  let space = span "workspace.query_space" (fun () -> Workspace.query_space s.ws text) in
  let default_ontology =
    span "workspace.default_ontology" (fun () -> Workspace.default_ontology s.ws)
  in
  (* The segment layer, called standalone: the manifest digest that keys
     every paged memo and the shard lookup that routes the anchor. *)
  let root = Workspace.root s.ws in
  Samples.add out.digest_us (snd (time_us (fun () -> Segment.manifest_digest root)));
  Samples.add out.lookup_us (snd (time_us (fun () -> Segment.lookup_label root anchor)));
  match space with
  | Error _ -> ()
  | Ok (space, _) -> (
      let group = String.concat "," (Federation.source_names space) in
      (match Hashtbl.find_opt last_space group with
      | Some prev when not (prev == space) -> out.rebuilds <- out.rebuilds + 1
      | _ -> ());
      Hashtbl.replace last_space group space;
      let env =
        match Env_mru.find mru space with
        | Some env -> env
        | None ->
            let env = span "mediator.env_build" (fun () -> build_env space) in
            out.env_builds <- out.env_builds + 1;
            Env_mru.add mru space env;
            env
      in
      match span "mediator.run" (fun () -> Mediator.run_text ?default_ontology env text) with
      | Error _ -> ()
      | Ok r ->
          out.tuples <- out.tuples + List.length r.Mediator.tuples;
          ignore (span "mediator.report" (fun () -> render_report r) : string))

(* One closed-loop client: its own connection, the seeded query sequence
   from [first] in steps of [stride], until [until_s]. *)
let client s ~traced ~first ~stride ~until_s out () =
  let n = Array.length s.queries in
  let conn = ref None in
  let get () =
    match !conn with
    | Some c -> c
    | None ->
        let c = ok "connect" (Client.connect ~io_timeout_ms:30_000 (address s)) in
        conn := Some c;
        c
  in
  let drop () =
    Option.iter Client.close !conn;
    conn := None
  in
  let mru = Env_mru.create () and last_space = Hashtbl.create 64 in
  let i = ref first in
  while Monotonic.now_s () < until_s do
    let text, anchor, expected = s.queries.(!i mod n) in
    i := !i + stride;
    out.c_tally.attempted <- out.c_tally.attempted + 1;
    let before = if traced then Some (server_counts (get ())) else None in
    let t0 = Monotonic.now_ns () in
    let r = Client.request (get ()) ~op:"query" ~arg:text in
    let rtt = Monotonic.elapsed_ns ~since:t0 in
    match r with
    | Error m ->
        log "transport error: %s" m;
        out.c_tally.failed <- out.c_tally.failed + 1;
        drop ()
    | Ok reply -> (
        (* The body is the answer and must match byte for byte.  Health
           warnings ride in their own field: a reader that overlaps a
           paged publish can see its in-flight files, so they are
           counted, not failed. *)
        if reply.Protocol.status <> Protocol.Ok
           || not (String.equal reply.Protocol.body expected.Protocol.body)
        then begin
          out.c_tally.failed <- out.c_tally.failed + 1;
          log "reply differs from its reference: %s" text
        end
        else Samples.add out.lat (Int64.to_float rtt /. 1e6);
        if reply.Protocol.warnings <> expected.Protocol.warnings then
          out.warned <- out.warned + 1;
        match before with
        | None -> ()
        | Some b ->
            let a = server_counts (get ()) in
            let tree = Spans.request out.rec_ in
            let root =
              Spans.add tree ~how:Spans.Measured "client.round_trip" ~start_ns:t0 ~dur_ns:rtt
            in
            (* The server's own time for this request.  When the other
               client's query completed in the same window the delta is
               their mean; alone, it is exact. *)
            let served = max 1 (a.query_ok - b.query_ok) in
            let server_ns =
              Int64.of_float ((a.query_total_ns -. b.query_total_ns) /. float_of_int served)
            in
            let server =
              Spans.add tree ~parent:root ~how:Spans.Stats_delta "server" ~start_ns:t0
                ~dur_ns:server_ns
            in
            Samples.add out.reply_bytes
              (float_of_int (String.length (Protocol.encode_reply reply)));
            out.replayed <- out.replayed + 1;
            replay s out tree ~mru ~last_space ~server ~text ~anchor reply)
  done;
  drop ()

type writer_out = {
  edit_ms : Samples.t;  (** From each edit's due time. *)
  edit_call_us : Samples.t;
  lint_ms : Samples.t;
  late_ms : Samples.t;
  io_ops : Samples.t;
  w_tally : tally;
  w_rec : Spans.recorder;
}

let probe = "zz_perfbench_probe"

(* The open-loop writer: at [rate] edits per second, a one-node probe
   edit to a seeded source, then the incremental lint that follows it.
   Each edit is timed from the moment it was due. *)
let writer s ~seed ~rate ~traced ~t_start ~until_s out () =
  let ws = Option.get s.writer_ws in
  let rng = Prng.create (sub_seed seed 77) in
  let sources = Array.of_list s.gen.sources in
  let present = s.probes in
  let k = ref 0 in
  let due () = Int64.add t_start (Int64.of_float (float_of_int !k /. rate *. 1e9)) in
  while Int64.to_float (due ()) /. 1e9 < until_s do
    let due_ns = due () in
    incr k;
    let wait = Int64.to_float (Int64.sub due_ns (Monotonic.now_ns ())) /. 1e9 in
    if wait > 0.0 then Unix.sleepf wait;
    let started = Monotonic.now_ns () in
    Samples.add out.late_ms (Int64.to_float (Int64.sub started due_ns) /. 1e6);
    let source = sources.(Prng.int rng (Array.length sources)) in
    let op =
      if Hashtbl.mem present source then Transform.Delete_node probe
      else Transform.Add_node (probe, [])
    in
    let io0 = Atomic_io.ops () in
    out.w_tally.attempted <- out.w_tally.attempted + 1;
    (match Workspace.edit ws ~source [ op ] with
    | Ok _ ->
        if Hashtbl.mem present source then Hashtbl.remove present source
        else Hashtbl.replace present source ()
    | Error m ->
        log "edit failed: %s" m;
        out.w_tally.failed <- out.w_tally.failed + 1);
    let edited = Monotonic.now_ns () in
    Samples.add out.io_ops (float_of_int (Atomic_io.ops () - io0));
    Samples.add out.edit_ms (Int64.to_float (Int64.sub edited due_ns) /. 1e6);
    Samples.add out.edit_call_us (us_of_ns (Int64.sub edited started));
    out.w_tally.attempted <- out.w_tally.attempted + 1;
    let _report = Workspace.lint ws in
    let lint_ns = Monotonic.elapsed_ns ~since:edited in
    Samples.add out.lint_ms (Int64.to_float lint_ns /. 1e6);
    if traced then begin
      let tree = Spans.request out.w_rec in
      ignore
        (Spans.add tree ~how:Spans.Measured "writer.edit" ~start_ns:started
           ~dur_ns:(Int64.sub edited started));
      let tree = Spans.request out.w_rec in
      ignore (Spans.add tree ~how:Spans.Measured "writer.lint" ~start_ns:edited ~dur_ns:lint_ns)
    end
  done

type phase = {
  clients : client_out list;
  w : writer_out option;
  elapsed_s : float;
}

let clients_for = function Serve_flat | Serve_paged -> 2 | Edit_paged -> 1

(* One measured window: the closed-loop clients, and the writer on its
   own domain for edit-paged. *)
let run_phase args s ~traced =
  let n = clients_for args.kind in
  (* Request ids: clients take residues 1..n mod (n + 1), the writer 0. *)
  let outs = List.init n (fun c -> new_client_out ~first:(c + 1) ~stride:(n + 1)) in
  let t_start = Monotonic.now_ns () in
  let until_s = Int64.to_float t_start /. 1e9 +. args.seconds in
  let w =
    match s.writer_ws with
    | None -> None
    | Some _ ->
        let out =
          {
            edit_ms = Samples.create ();
            edit_call_us = Samples.create ();
            lint_ms = Samples.create ();
            late_ms = Samples.create ();
            io_ops = Samples.create ();
            w_tally = { attempted = 0; failed = 0 };
            w_rec = Spans.recorder ~first:0 ~stride:(n + 1);
          }
        in
        Some
          ( out,
            Domain.spawn
              (writer s ~seed:args.seed ~rate:edit_rate ~traced ~t_start ~until_s out) )
  in
  let threads =
    List.mapi
      (fun c out ->
        Thread.create (client s ~traced ~first:(c * 7919) ~stride:n ~until_s out) ())
      outs
  in
  List.iter Thread.join threads;
  let elapsed_s = secs_since t_start in
  let w = Option.map (fun (out, d) -> Domain.join d; out) w in
  { clients = outs; w; elapsed_s }

let latencies p = Samples.sorted (List.map (fun c -> c.lat) p.clients)

let completed p = Array.length (latencies p)

let tally p =
  let t = { attempted = 0; failed = 0 } in
  let add (x : tally) =
    t.attempted <- t.attempted + x.attempted;
    t.failed <- t.failed + x.failed
  in
  List.iter (fun c -> add c.c_tally) p.clients;
  Option.iter (fun w -> add w.w_tally) p.w;
  t

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

type counters = {
  plans : (string * int) list;
  caches : (string * Cache_stats.snapshot) list;
  gc : Gc.stat;
}

let counters () =
  { plans = Cache_stats.plan_counts (); caches = Cache_stats.all (); gc = Gc.quick_stat () }

let plan_delta a b name =
  let get c = Option.value ~default:0 (List.assoc_opt name c.plans) in
  get b - get a

let cache_hit_ratio a b name =
  match (List.assoc_opt name a.caches, List.assoc_opt name b.caches) with
  | Some x, Some y ->
      let hits = y.Cache_stats.hits - x.Cache_stats.hits
      and misses = y.Cache_stats.misses - x.Cache_stats.misses in
      ratio hits (hits + misses)
  | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* Result                                                             *)
(* ------------------------------------------------------------------ *)

let metric name unit v = (name, unit, v)

(* The writer's samples over [phases], edit-paged only. *)
let writer_samples phases f = Samples.sorted (List.filter_map (fun p -> Option.map f p.w) phases)

(* Each function below returns the metrics every workload reports —
   the result line's set, the same for all workloads — and the extra
   ones only the writer's workload has, which are printed beside it. *)

let end_to_end ~setup_s p =
  let lat = latencies p in
  let top_heap_bytes = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  ( [
      metric "setup_s" "s" setup_s;
      metric "query.p50_ms" "ms" (percentile lat 0.50);
      metric "query.p99_ms" "ms" (percentile lat 0.99);
      metric "peak_heap_mb" "MB" (float_of_int top_heap_bytes /. 1048576.0);
    ],
    (* Closed-loop throughput restates the mean round trip, and on
       edit-paged, where rebuild bursts take half the reader's time, it
       amplifies run-to-run machine noise past any usable bound; it is
       reported, not gated. *)
    metric "query.rps" "1/s" (float_of_int (Array.length lat) /. p.elapsed_s)
    ::
    match p.w with
    | None -> []
    | Some _ ->
        let edit_ms = writer_samples [ p ] (fun w -> w.edit_ms) in
        [
          metric "edit.p50_ms" "ms" (percentile edit_ms 0.50);
          metric "edit.p90_ms" "ms" (percentile edit_ms 0.90);
          metric "lint.p50_ms" "ms" (percentile (writer_samples [ p ] (fun w -> w.lint_ms)) 0.50);
        ] )

(* Per-layer metrics of a traced run.  Counter deltas ([c0]..[c1]) and
   the per-request GC figures come from the untraced window, so the
   replay's own cache traffic is not counted; span figures come from
   the traced window; server counters from [stats] before and after
   both windows. *)
let per_layer ~untraced ~traced ~(c0 : counters) ~(c1 : counters) ~(st0 : server_counts)
    ~(st2 : server_counts) spans =
  let requests = List.fold_left (fun acc c -> acc + c.replayed) 0 traced.clients in
  let per_req = max 1 (completed untraced) in
  let sum_clients f = List.fold_left (fun acc c -> acc + f c) 0 traced.clients in
  let durations name =
    List.filter_map
      (fun sp -> if sp.Spans.name = name then Some (us_of_ns sp.Spans.dur_ns) else None)
      spans
  in
  let mean_dur name = mean (Array.of_list (durations name)) in
  let client_samples f = Samples.sorted (List.map f traced.clients) in
  let plan name = plan_delta c0 c1 name in
  let hits = plan "store.block_hit" and misses = plan "store.block_miss" in
  let edits = match untraced.w with Some w -> w.edit_ms.Samples.n | None -> 0 in
  let per_edit name = ratio (plan name) edits in
  let gc f = f c1.gc - f c0.gc in
  let count name v = metric name "count" (float_of_int v) in
  let writer f = writer_samples [ untraced; traced ] f in
  ( [
      metric "protocol.codec_us" "us" (mean_dur "protocol.codec");
      metric "protocol.reply_bytes" "bytes" (mean (client_samples (fun c -> c.reply_bytes)));
      metric "server.query_mean_us" "us" (mean_dur "server");
      (* Self times: the round trip minus the server's time, and the
         server's time minus the replayed layers under it. *)
      metric "server.wire_us" "us" (Spans.mean_self_us spans "client.round_trip");
      metric "server.unattributed_us" "us" (Spans.mean_self_us spans "server");
      count "admission.shed" (st2.shed - st0.shed);
      count "server.timeouts" (st2.timeouts - st0.timeouts);
      count "server.expired_in_queue" (st2.expired - st0.expired);
      count "server.protocol_errors" (st2.protocol_errors - st0.protocol_errors);
      count "server.warned_replies"
        (List.fold_left (fun acc c -> acc + c.warned) 0 (untraced.clients @ traced.clients));
      metric "workspace.query_space_us" "us" (mean_dur "workspace.query_space");
      metric "workspace.default_ontology_us" "us" (mean_dur "workspace.default_ontology");
      count "workspace.space_rebuilds" (sum_clients (fun c -> c.rebuilds));
      metric "segment.manifest_digest_us" "us" (mean (client_samples (fun c -> c.digest_us)));
      metric "segment.lookup_label_us" "us" (mean (client_samples (fun c -> c.lookup_us)));
      count "block_cache.hits" hits;
      count "block_cache.misses" misses;
      count "block_cache.evictions" (plan "store.block_evict");
      metric "block_cache.hit_ratio" "ratio" (ratio hits (hits + misses));
      count "store.segment_loads" (plan "store.segment_load");
      metric "mediator.env_build_us" "us" (mean_dur "mediator.env_build");
      count "mediator.env_builds" (sum_clients (fun c -> c.env_builds));
      metric "mediator.run_us" "us" (mean_dur "mediator.run");
      metric "mediator.report_us" "us" (mean_dur "mediator.report");
      metric "mediator.tuples" "count/req" (ratio (sum_clients (fun c -> c.tuples)) requests);
      metric "cache.kb.instances_of.hit_ratio" "ratio" (cache_hit_ratio c0 c1 "kb.instances_of");
      metric "cache.rewrite.plan.hit_ratio" "ratio" (cache_hit_ratio c0 c1 "rewrite.plan");
      metric "pool.sequential" "count/req" (ratio (plan "pool.sequential") per_req);
      metric "pool.parallel" "count/req" (ratio (plan "pool.parallel") per_req);
      metric "pool.steal" "count/req" (ratio (plan "pool.steal") per_req);
      metric "delta.passes_rerun" "count/edit" (per_edit "delta.passes_rerun");
      metric "delta.passes_skipped" "count/edit" (per_edit "delta.passes_skipped");
      metric "delta.index_patches" "count/edit" (per_edit "delta.index_patch");
      metric "gc.minor_per_req" "count/req" (ratio (gc (fun g -> g.Gc.minor_collections)) per_req);
      metric "gc.major_per_req" "count/req" (ratio (gc (fun g -> g.Gc.major_collections)) per_req);
      metric "gc.promoted_kb_per_req" "KiB/req"
        ((c1.gc.Gc.promoted_words -. c0.gc.Gc.promoted_words)
        *. float_of_int (Sys.word_size / 8)
        /. 1024.0 /. float_of_int per_req);
      metric "trace.overhead_p50_ms" "ms"
        (percentile (latencies traced) 0.5 -. percentile (latencies untraced) 0.5);
    ],
    match untraced.w with
    | None -> []
    | Some _ ->
        [
          metric "workspace.edit_us" "us" (mean (writer (fun w -> w.edit_call_us)));
          metric "workspace.edit_io_ops" "count/edit" (mean (writer (fun w -> w.io_ops)));
          metric "workspace.lint_us" "us" (1e3 *. mean (writer (fun w -> w.lint_ms)));
          metric "writer.late_ms" "ms" (percentile (writer (fun w -> w.late_ms)) 1.0);
        ] )

(* edit-paged: the writer's incremental lint must equal a cold lint with
   every cache off.  Run once the clients and the writer have stopped. *)
let lint_consistent s =
  match s.writer_ws with
  | None -> true
  | Some w ->
      let incremental = Workspace.lint w in
      let cold = Cache_stats.with_disabled (fun () -> Workspace.lint w) in
      incremental.Lint.diagnostics = cold.Lint.diagnostics

let meta args ~queries =
  let str s = Json_lite.escape s and int = string_of_int in
  [
    ("workload", str (Workloads.name args.kind));
    ("seed", int args.seed);
    ("seconds", Json_lite.float args.seconds);
    ("trace", if args.trace then "true" else "false");
    ("rev", str args.rev);
    ("nproc", int (Domain.recommended_domain_count ()));
    ("domain_pool_size", int (Domain_pool.size ()));
    ("ocaml", str Sys.ocaml_version);
    ("block_cache_budget_bytes", int (Workspace.block_cache_budget ()));
    ("flush_policy", str "Durable_io: tmp + fsync + rename on every publish");
    ("clients", int (clients_for args.kind));
    ("edit_rate_per_s", match args.kind with Edit_paged -> Json_lite.float edit_rate | _ -> "0");
    ("setups", int setups);
    ("queries", int queries);
  ]

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Json_lite.escape k ^ ": " ^ v) fields) ^ "}"

let result_line ~attempted ~failed metrics =
  json_obj
    [
      ("correct", if failed = 0 then "true" else "false");
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        json_obj
          (List.map
             (fun (name, unit, v) ->
               (name, json_obj [ ("value", Json_lite.float v); ("unit", Json_lite.escape unit) ]))
             metrics) );
    ]

let main args =
  let base, s, setup_s = set_up_repeatedly args in
  let measure () =
    let t, (metrics, extra), spans =
      if not args.trace then begin
        let p = run_phase args s ~traced:false in
        (tally p, end_to_end ~setup_s p, [])
      end
      else begin
        let st0 = stats_of s in
        let c0 = counters () in
        let untraced = run_phase args s ~traced:false in
        let c1 = counters () in
        let traced = run_phase args s ~traced:true in
        let st2 = stats_of s in
        let spans =
          Spans.spans
            (List.map (fun c -> c.rec_) traced.clients
            @ Option.to_list (Option.map (fun w -> w.w_rec) traced.w))
        in
        let t = tally untraced and t' = tally traced in
        t.attempted <- t.attempted + t'.attempted;
        t.failed <- t.failed + t'.failed;
        (t, per_layer ~untraced ~traced ~c0 ~c1 ~st0 ~st2 spans, spans)
      end
    in
    t.attempted <- t.attempted + 1;
    if not (lint_consistent s) then begin
      log "incremental lint differs from the cold lint";
      t.failed <- t.failed + 1
    end;
    (t, metrics, extra, spans, Array.length s.queries)
  in
  let t, metrics, extra, spans, queries =
    Fun.protect
      ~finally:(fun () ->
        teardown s;
        rm_rf base)
      measure
  in
  if spans <> [] then begin
    let unbalanced = Spans.unbalanced spans in
    if unbalanced <> [] then begin
      log "%d span trees whose self times do not sum to their root" (List.length unbalanced);
      t.failed <- t.failed + List.length unbalanced
    end;
    let dir = Filename.concat work "spans" in
    mkdir_p dir;
    let path =
      Filename.concat dir (Printf.sprintf "%s-seed%d.jsonl" (Workloads.name args.kind) args.seed)
    in
    Spans.write path spans;
    log "wrote %d spans (%d request trees) to %s" (List.length spans)
      (List.length (List.filter (fun sp -> sp.Spans.parent < 0) spans))
      path
  end;
  let extra = extra @ [ metric "failed_ratio" "ratio" (ratio t.failed t.attempted) ] in
  let meta = json_obj (meta args ~queries) in
  let line = result_line ~attempted:t.attempted ~failed:t.failed metrics in
  (* Every result is kept with the environment that produced it. *)
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat work "results.jsonl")
  in
  Printf.fprintf oc "{\"meta\": %s, \"result\": %s, \"extra\": %s}\n" meta line
    (json_obj (List.map (fun (n, _, v) -> (n, Json_lite.float v)) extra));
  close_out oc;
  List.iter
    (fun (name, unit, v) -> Printf.printf "# %-32s %14.4f %s\n" name v unit)
    (metrics @ extra);
  print_endline ("# meta " ^ meta);
  print_endline line

let () =
  let args = parse_args () in
  if args.setup_only then begin
    let base = run_dir () in
    mkdir_p base;
    let s, t = timed_set_up args ~dir:(Filename.concat base "ws") in
    teardown s;
    rm_rf base;
    Printf.printf "%.9f\n" t;
    exit 0
  end;
  match main args with
  | () -> exit 0
  | exception e ->
      log "failed: %s" (Printexc.to_string e);
      exit 1

