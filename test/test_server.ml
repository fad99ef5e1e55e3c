(* The serve subsystem: protocol framing, bounded admission, and the
   daemon end to end over a Unix-domain socket — including a concurrent
   soak whose replies must be bit-for-bit equal to direct computation,
   deterministic load shedding, and graceful drain via the shutdown op. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------------- protocol framing ---------------- *)

(* Frames travel over a temp file: same channel API the sockets use. *)
let with_raw_stream bytes f =
  let path = Filename.temp_file "onion-frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic))

let frame payload = Printf.sprintf "%d\n%s" (String.length payload) payload

let test_frame_roundtrip () =
  let path = Filename.temp_file "onion-frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let payloads = [ ""; "ping"; "query SELECT Price FROM Cars"; String.make 70_000 'x' ] in
      let oc = open_out_bin path in
      List.iter (Protocol.write_frame oc) payloads;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      List.iter
        (fun expected ->
          match Protocol.read_frame ic with
          | Ok got -> check_string "payload round-trips" expected got
          | Error e -> Alcotest.failf "read failed: %s" (Protocol.read_error_message e))
        payloads;
      check_bool "then clean EOF" true
        (match Protocol.read_frame ic with Error Protocol.Eof -> true | _ -> false))

let test_frame_garbage_resyncs () =
  (* A non-decimal header is reported but the stream resynchronises at
     the newline: the next frame still parses. *)
  with_raw_stream ("no-such-length\n" ^ frame "ping") (fun ic ->
      (match Protocol.read_frame ic with
      | Error (Protocol.Garbage _ as e) ->
          check_bool "survivable" true (Protocol.connection_survives e)
      | other ->
          Alcotest.failf "expected garbage, got %s"
            (match other with
            | Ok p -> "payload " ^ p
            | Error e -> Protocol.read_error_message e));
      match Protocol.read_frame ic with
      | Ok p -> check_string "resynced" "ping" p
      | Error e -> Alcotest.failf "resync failed: %s" (Protocol.read_error_message e))

let test_frame_oversized_drains () =
  let big = String.make 2048 'z' in
  with_raw_stream (frame big ^ frame "after") (fun ic ->
      (match Protocol.read_frame ~max:1024 ic with
      | Error (Protocol.Oversized n as e) ->
          check_int "declared length" 2048 n;
          check_bool "survivable" true (Protocol.connection_survives e)
      | _ -> Alcotest.fail "expected oversized");
      match Protocol.read_frame ~max:1024 ic with
      | Ok p -> check_string "stream stayed in sync" "after" p
      | Error e -> Alcotest.failf "post-drain read failed: %s" (Protocol.read_error_message e))

let test_frame_truncated_is_fatal () =
  with_raw_stream "10\nabc" (fun ic ->
      match Protocol.read_frame ic with
      | Error (Protocol.Truncated as e) ->
          check_bool "not survivable" false (Protocol.connection_survives e)
      | _ -> Alcotest.fail "expected truncated")

let test_request_codec () =
  let r = Protocol.decode_request "QUERY   SELECT Price FROM Cars " in
  check_string "op lowercased" "query" r.Protocol.op;
  check_string "arg trimmed" "SELECT Price FROM Cars" r.Protocol.arg;
  let r = Protocol.decode_request "ping" in
  check_string "bare op" "ping" r.Protocol.op;
  check_string "empty arg" "" r.Protocol.arg

let test_reply_codec () =
  let reply =
    Protocol.ok
      ~warnings:[ "first warning"; "second\nline" ]
      "body line 1\nbody line 2\n"
  in
  (match Protocol.decode_reply (Protocol.encode_reply reply) with
  | Ok got ->
      check_bool "ok status" true (got.Protocol.status = Protocol.Ok);
      Alcotest.(check (list string))
        "warnings survive (newlines squashed)"
        [ "first warning"; "second line" ]
        got.Protocol.warnings;
      check_string "body verbatim" "body line 1\nbody line 2\n" got.Protocol.body
  | Error m -> Alcotest.failf "decode failed: %s" m);
  let busy =
    { Protocol.status = Protocol.Busy { depth = 7; retry_ms = 200 };
      warnings = []; body = "" }
  in
  (match Protocol.decode_reply (Protocol.encode_reply busy) with
  | Ok got ->
      check_bool "busy round-trips" true
        (got.Protocol.status = Protocol.Busy { depth = 7; retry_ms = 200 })
  | Error m -> Alcotest.failf "decode failed: %s" m);
  match Protocol.decode_reply "nonsense status line\nwarnings 0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed reply must not decode"

let test_request_codec_attributes () =
  (* [workspace=] routes, [deadline-ms=] budgets; both optional, in any
     order, each at most once. *)
  let r =
    Protocol.decode_request "workspace=quiet QUERY  SELECT Price FROM Cars"
  in
  check_string "op behind the attribute" "query" r.Protocol.op;
  check_string "arg behind the attribute" "SELECT Price FROM Cars"
    r.Protocol.arg;
  Alcotest.(check (option string)) "workspace parsed" (Some "quiet")
    r.Protocol.workspace;
  Alcotest.(check (option int)) "no deadline" None r.Protocol.deadline_ms;
  List.iter
    (fun line ->
      let r = Protocol.decode_request line in
      check_string "op with both attrs" "ping" r.Protocol.op;
      Alcotest.(check (option string)) "workspace with both attrs" (Some "b")
        r.Protocol.workspace;
      Alcotest.(check (option int)) "deadline with both attrs" (Some 250)
        r.Protocol.deadline_ms)
    [ "deadline-ms=250 workspace=b ping"; "workspace=b deadline-ms=250 ping" ];
  (* Round-trip through the encoder. *)
  let req =
    { Protocol.op = "query"; arg = "SELECT Price FROM Vehicle";
      deadline_ms = Some 100; workspace = Some "second" }
  in
  check_bool "encode/decode round-trips" true
    (Protocol.decode_request (Protocol.encode_request req) = req);
  (* An empty value does not parse as the attribute: the token surfaces
     as the (unknown) op instead of vanishing silently. *)
  let r = Protocol.decode_request "workspace= ping" in
  check_string "empty value becomes the op" "workspace=" r.Protocol.op;
  Alcotest.(check (option string)) "no workspace" None r.Protocol.workspace;
  (* A duplicate attribute stops attribute parsing: the second copy is
     the op (an unknown-op error downstream, not a silent override). *)
  let r = Protocol.decode_request "workspace=a workspace=b ping" in
  Alcotest.(check (option string)) "first copy wins" (Some "a")
    r.Protocol.workspace;
  check_string "duplicate surfaces as op" "workspace=b" r.Protocol.op

(* ---------------- admission control ---------------- *)

let test_admission_runs_jobs () =
  (* Capacity comfortably above the burst so no submit can race the
     workers into a momentary shed. *)
  let a = Admission.create ~capacity:64 ~workers:2 () in
  let counter = Atomic.make 0 in
  for _ = 1 to 20 do
    match Admission.submit a (fun () -> Atomic.incr counter) with
    | Admission.Accepted -> ()
    | _ -> Alcotest.fail "submit refused below capacity"
  done;
  Admission.shutdown a;
  check_int "every job ran" 20 (Atomic.get counter)

let test_admission_sheds_when_full () =
  (* One worker parked on a mutex we hold: the queue backs up behind it
     deterministically, so the capacity'th+1 submit must shed. *)
  let a = Admission.create ~capacity:2 ~workers:1 () in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let started = Semaphore.Binary.make false in
  (match
     Admission.submit a (fun () ->
         Semaphore.Binary.release started;
         Mutex.lock gate;
         Mutex.unlock gate)
   with
  | Admission.Accepted -> ()
  | _ -> Alcotest.fail "blocker refused");
  Semaphore.Binary.acquire started;
  (* Worker busy; fill the queue. *)
  for _ = 1 to 2 do
    match Admission.submit a (fun () -> ()) with
    | Admission.Accepted -> ()
    | _ -> Alcotest.fail "queue slot refused"
  done;
  (match Admission.submit a (fun () -> ()) with
  | Admission.Shed { depth } -> check_int "shed at capacity" 2 depth
  | _ -> Alcotest.fail "expected shed");
  Mutex.unlock gate;
  Admission.shutdown a

let test_admission_capacity_zero_always_sheds () =
  let a = Admission.create ~capacity:0 ~workers:1 () in
  (match Admission.submit a (fun () -> ()) with
  | Admission.Shed { depth } -> check_int "empty queue" 0 depth
  | _ -> Alcotest.fail "capacity 0 must shed");
  Admission.shutdown a

let test_admission_drain_refuses_then_completes () =
  let a = Admission.create ~capacity:16 ~workers:2 () in
  let counter = Atomic.make 0 in
  for _ = 1 to 10 do
    ignore (Admission.submit a (fun () -> Atomic.incr counter))
  done;
  Admission.drain a;
  check_int "queued work completed before drain returned" 10 (Atomic.get counter);
  (match Admission.submit a (fun () -> ()) with
  | Admission.Draining -> ()
  | _ -> Alcotest.fail "post-drain submit must be refused");
  Admission.shutdown a

let test_admission_fair_share () =
  (* Two tenants, capacity 4, the one worker parked on a mutex: tenant
     [a] fills the whole queue, so [a]'s next submit sheds while [b] —
     still under its share of 2 — displaces [a]'s newest queued job. *)
  let a = Admission.create ~tenants:[ "a"; "b" ] ~capacity:4 ~workers:1 () in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let started = Semaphore.Binary.make false in
  (match
     Admission.submit a ~tenant:"a" (fun () ->
         Semaphore.Binary.release started;
         Mutex.lock gate;
         Mutex.unlock gate)
   with
  | Admission.Accepted -> ()
  | _ -> Alcotest.fail "blocker refused");
  Semaphore.Binary.acquire started;
  let ran_a = Atomic.make 0 and ran_b = Atomic.make 0 in
  let evicted = Atomic.make 0 in
  for _ = 1 to 4 do
    match
      Admission.submit a ~tenant:"a"
        ~on_evicted:(fun ~depth:_ -> Atomic.incr evicted)
        (fun () -> Atomic.incr ran_a)
    with
    | Admission.Accepted -> ()
    | _ -> Alcotest.fail "queue slot refused"
  done;
  (* [a] holds the whole queue — at/over its share, so it is shed. *)
  (match Admission.submit a ~tenant:"a" (fun () -> Atomic.incr ran_a) with
  | Admission.Shed { depth } -> check_int "hog shed at capacity" 4 depth
  | _ -> Alcotest.fail "expected shed for the hog");
  (* [b] is under its share: its submit displaces [a]'s newest job. *)
  (match Admission.submit a ~tenant:"b" (fun () -> Atomic.incr ran_b) with
  | Admission.Accepted -> ()
  | _ -> Alcotest.fail "under-share tenant must be admitted");
  check_int "victim answered through on_evicted" 1 (Atomic.get evicted);
  check_int "eviction counted" 1 (Admission.evicted_total a);
  check_int "a keeps three queued" 3 (Admission.tenant_depth a "a");
  check_int "b queued one" 1 (Admission.tenant_depth a "b");
  (* Both refusals were [a]'s: one shed, one displaced victim. *)
  check_int "refusals attributed to the hog" 2
    (Option.value (List.assoc_opt "a" (Admission.shed_by_tenant a)) ~default:0);
  check_int "no refusals for b" 0
    (Option.value (List.assoc_opt "b" (Admission.shed_by_tenant a)) ~default:0);
  Mutex.unlock gate;
  Admission.shutdown a;
  check_int "surviving a-jobs ran" 3 (Atomic.get ran_a);
  check_int "b's job ran" 1 (Atomic.get ran_b)

let test_admission_tenant_round_robin () =
  (* One worker, a hot tenant's backlog of four, one quiet request
     submitted last: round-robin pickup must serve the quiet tenant
     after at most one more hog job, not behind the whole backlog. *)
  let a =
    Admission.create ~tenants:[ "hog"; "quiet" ] ~capacity:8 ~workers:1 ()
  in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let started = Semaphore.Binary.make false in
  (match
     Admission.submit a ~tenant:"hog" (fun () ->
         Semaphore.Binary.release started;
         Mutex.lock gate;
         Mutex.unlock gate)
   with
  | Admission.Accepted -> ()
  | _ -> Alcotest.fail "blocker refused");
  Semaphore.Binary.acquire started;
  let order_lock = Mutex.create () in
  let order = ref [] in
  let note tag () =
    Mutex.lock order_lock;
    order := tag :: !order;
    Mutex.unlock order_lock
  in
  for _ = 1 to 4 do
    match Admission.submit a ~tenant:"hog" (note "hog") with
    | Admission.Accepted -> ()
    | _ -> Alcotest.fail "hog slot refused"
  done;
  (match Admission.submit a ~tenant:"quiet" (note "quiet") with
  | Admission.Accepted -> ()
  | _ -> Alcotest.fail "quiet submit refused");
  Mutex.unlock gate;
  Admission.shutdown a;
  let executed = List.rev !order in
  check_int "all five ran" 5 (List.length executed);
  let quiet_pos =
    let rec find i = function
      | [] -> -1
      | "quiet" :: _ -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 executed
  in
  check_bool
    (Printf.sprintf "quiet served within one hog job (position %d)" quiet_pos)
    true
    (quiet_pos >= 0 && quiet_pos <= 1)

(* ---------------- the daemon end to end ---------------- *)

let carrier_xml =
  {|<ontology name="carrier">
  <term name="Cars">
    <subclassOf term="Carrier"/>
    <attribute term="Price"/>
    <attribute term="Owner"/>
  </term>
  <term name="Trucks"><subclassOf term="Carrier"/><attribute term="Price"/></term>
  <instance name="MyCar" of="Cars"/>
  <edge src="MyCar" label="Price" dst="2000"/>
  <instance name="OldTruck" of="Trucks"/>
  <edge src="OldTruck" label="Price" dst="9000"/>
</ontology>|}

let factory_xml =
  {|<ontology name="factory">
  <term name="Vehicle"><subclassOf term="Transportation"/><attribute term="Price"/></term>
  <instance name="Van1" of="Vehicle"/>
  <edge src="Van1" label="Price" dst="7000"/>
</ontology>|}

let rules_text =
  {|[r1] carrier:Cars => factory:Vehicle
[r2] factory:Vehicle => (carrier:Cars | carrier:Trucks) as CarsTrucks|}

(* A second tenant's factory: same shape, observably different data
   (Van1 at 3000 instead of 7000), so a misrouted request is caught by
   a bit-for-bit body comparison. *)
let factory_xml_b =
  {|<ontology name="factory">
  <term name="Vehicle"><subclassOf term="Transportation"/><attribute term="Price"/></term>
  <instance name="Van1" of="Vehicle"/>
  <edge src="Van1" label="Price" dst="3000"/>
</ontology>|}

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A throwaway workspace populated with the carrier/factory pair and the
   transport articulation; [factory] varies the factory source so two
   tenants can hold observably different data. *)
let with_populated_workspace ?(factory = factory_xml) f =
  let dir = Filename.temp_file "onion-serve" "" in
  Sys.remove dir;
  let ws =
    match Workspace.init dir with
    | Ok ws -> ws
    | Error m -> Alcotest.failf "init failed: %s" m
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  let add body =
    let path = Filename.temp_file "src" ".xml" in
    let oc = open_out path in
    output_string oc body;
    close_out oc;
    let r = Workspace.add_source ws ~path in
    Sys.remove path;
    match r with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "add_source failed: %s" m
  in
  add carrier_xml;
  add factory;
  let rules =
    match Rule_parser.parse ~default_ontology:"transport" rules_text with
    | Ok rules -> rules
    | Error _ -> Alcotest.fail "rules failed to parse"
  in
  (match
     Workspace.articulate ~conversions:Conversion.builtin ws ~left:"carrier"
       ~right:"factory" ~name:"transport" ~rules
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "articulate failed: %s" m);
  f ws

let with_server ?(queue = 64) ?(workers = 4)
    ?(max_frame = Protocol.default_max_frame) tenants f =
  let socket_path = Filename.temp_file "onion-sock" ".sock" in
  Sys.remove socket_path;
  let config =
    { Server.default_config with
      Server.unix_path = Some socket_path;
      queue_capacity = queue;
      workers;
      max_frame }
  in
  let server =
    match Server.create config tenants with
    | Ok s -> s
    | Error m -> Alcotest.failf "server create failed: %s" m
  in
  let serve_thread = Thread.create Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join serve_thread;
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () -> f server (Client.Unix_socket socket_path))

let with_served_workspace ?queue ?workers ?max_frame f =
  with_populated_workspace (fun ws ->
      with_server ?queue ?workers ?max_frame
        [ ("default", ws) ]
        (fun server address -> f ws server address))

let with_served_two_workspaces ?queue ?workers f =
  with_populated_workspace (fun ws_a ->
      with_populated_workspace ~factory:factory_xml_b (fun ws_b ->
          with_server ?queue ?workers
            [ ("default", ws_a); ("second", ws_b) ]
            (fun server address -> f (ws_a, ws_b) server address)))

let request_ok address ~op ~arg =
  match
    Client.with_connection address (fun c -> Client.request c ~op ~arg)
  with
  | Error m -> Alcotest.failf "%s: transport error: %s" op m
  | Ok reply -> reply

(* What the daemon must answer for [query]: the same environment the
   server keeps warm, evaluated directly. *)
let direct_query_body ws text =
  match Workspace.space ws with
  | Error m -> Alcotest.failf "space failed: %s" m
  | Ok (space, _) -> (
      let kbs =
        List.map
          (fun o -> Kb.of_ontology_instances ~ontology:o ("kb-" ^ Ontology.name o))
          space.Federation.sources
      in
      let env = Mediator.env_federated ~kbs ~space () in
      match Mediator.run_text env text with
      | Ok report -> Format.asprintf "%a" Mediator.pp_report report ^ "\n"
      | Error m -> Alcotest.failf "direct query failed: %s" m)

let direct_algebra_body ws op =
  match Workspace.load_articulation ws "transport" with
  | Error m -> Alcotest.failf "load_articulation failed: %s" m
  | Ok art -> (
      match
        ( Workspace.load_source ws (Articulation.left art),
          Workspace.load_source ws (Articulation.right art) )
      with
      | Ok left, Ok right -> (
          match op with
          | "union" -> Render.unified_overview (Algebra.union ~left ~right art)
          | "intersection" -> Render.ontology_tree (Algebra.intersection art)
          | _ ->
              Render.ontology_tree
                (Algebra.difference ~minuend:left ~subtrahend:right art))
      | Error m, _ | _, Error m -> Alcotest.failf "load_source failed: %s" m)

let test_serve_basic_ops () =
  with_served_workspace (fun ws _server address ->
      let reply = request_ok address ~op:"ping" ~arg:"" in
      check_bool "ping ok" true (reply.Protocol.status = Protocol.Ok);
      check_string "pong" "pong\n" reply.Protocol.body;
      let reply = request_ok address ~op:"query" ~arg:"SELECT Price FROM Vehicle" in
      check_bool "query ok" true (reply.Protocol.status = Protocol.Ok);
      check_string "query body matches direct evaluation"
        (direct_query_body ws "SELECT Price FROM Vehicle")
        reply.Protocol.body;
      let reply = request_ok address ~op:"algebra" ~arg:"union transport" in
      check_bool "algebra ok" true (reply.Protocol.status = Protocol.Ok);
      check_string "algebra body matches direct evaluation"
        (direct_algebra_body ws "union") reply.Protocol.body;
      let reply = request_ok address ~op:"status" ~arg:"" in
      check_bool "status ok" true (reply.Protocol.status = Protocol.Ok);
      check_string "status is the shared JSON document"
        (Status_json.workspace ws) reply.Protocol.body;
      let reply = request_ok address ~op:"health" ~arg:"" in
      check_bool "health ok" true (reply.Protocol.status = Protocol.Ok);
      check_string "health is the shared JSON document"
        (Status_json.health (Workspace.health ws))
        reply.Protocol.body;
      let reply = request_ok address ~op:"stats" ~arg:"" in
      check_bool "stats ok" true (reply.Protocol.status = Protocol.Ok);
      check_bool "stats is JSON" true
        (String.length reply.Protocol.body > 0 && reply.Protocol.body.[0] = '{');
      let reply = request_ok address ~op:"frobnicate" ~arg:"" in
      check_bool "unknown op is an error reply" true
        (reply.Protocol.status = Protocol.Error);
      let reply = request_ok address ~op:"query" ~arg:"" in
      check_bool "empty query is an error reply" true
        (reply.Protocol.status = Protocol.Error))

let test_serve_connection_survives_bad_frames () =
  with_served_workspace ~max_frame:1024 (fun _ws _server address ->
      let socket_path =
        match address with Client.Unix_socket p -> p | _ -> assert false
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
      @@ fun () ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let read_reply what =
        match Protocol.read_frame ic with
        | Error e -> Alcotest.failf "%s: %s" what (Protocol.read_error_message e)
        | Ok payload -> (
            match Protocol.decode_reply payload with
            | Ok r -> r
            | Error m -> Alcotest.failf "%s: bad reply: %s" what m)
      in
      (* Garbage header: error reply, connection stays up. *)
      output_string oc "utter-garbage\n";
      flush oc;
      let r = read_reply "after garbage" in
      check_bool "garbage answered with error" true (r.Protocol.status = Protocol.Error);
      (* Oversized frame: drained, error reply, connection stays up. *)
      Protocol.write_frame oc ("ping " ^ String.make 4000 'x');
      let r = read_reply "after oversized" in
      check_bool "oversized answered with error" true (r.Protocol.status = Protocol.Error);
      (* Empty request: error reply, connection stays up. *)
      Protocol.write_frame oc "";
      let r = read_reply "after empty" in
      check_bool "empty answered with error" true (r.Protocol.status = Protocol.Error);
      (* And the same connection still serves real requests. *)
      Protocol.write_frame oc "ping";
      let r = read_reply "final ping" in
      check_bool "connection survived it all" true (r.Protocol.status = Protocol.Ok);
      check_string "still pongs" "pong\n" r.Protocol.body)

let test_serve_sheds_with_busy () =
  (* Queue capacity 0: every workload op sheds, deterministically. *)
  with_served_workspace ~queue:0 ~workers:1 (fun _ws server address ->
      let reply = request_ok address ~op:"query" ~arg:"SELECT Price FROM Cars" in
      (match reply.Protocol.status with
      | Protocol.Busy { depth; retry_ms } ->
          check_int "queue empty" 0 depth;
          check_bool "retry hint is positive" true (retry_ms > 0)
      | _ -> Alcotest.fail "expected busy");
      (* Control ops still answer inline under saturation. *)
      let reply = request_ok address ~op:"ping" ~arg:"" in
      check_bool "ping bypasses admission" true (reply.Protocol.status = Protocol.Ok);
      let s = Server_stats.snapshot (Server.stats server) in
      check_bool "shed counted" true (s.Server_stats.shed_busy >= 1))

let test_serve_concurrent_soak () =
  with_served_workspace (fun ws _server address ->
      let queries =
        [ "SELECT Price FROM Vehicle";
          "SELECT Price FROM Vehicle WHERE Price < 5000";
          "SELECT Price FROM carrier:Cars";
          "SELECT Owner FROM carrier:Trucks" ]
      in
      (* Expected bodies computed once, directly, before the hammering. *)
      let expected_queries =
        List.map (fun q -> (q, direct_query_body ws q)) queries
      in
      let expected_union = direct_algebra_body ws "union" in
      let expected_status = Status_json.workspace ws in
      let n_threads = 8 and n_rounds = 25 in
      let failures = Atomic.make 0 in
      let note got expected =
        if not (String.equal got expected) then Atomic.incr failures
      in
      let worker i () =
        match
          Client.with_connection address (fun c ->
              for round = 0 to n_rounds - 1 do
                (match
                   List.nth expected_queries ((i + round) mod List.length expected_queries)
                 with
                | q, expected -> (
                    match Client.request c ~op:"query" ~arg:q with
                    | Ok { Protocol.status = Protocol.Ok; body; _ } ->
                        note body expected
                    | _ -> Atomic.incr failures));
                (match Client.request c ~op:"algebra" ~arg:"union transport" with
                | Ok { Protocol.status = Protocol.Ok; body; _ } ->
                    note body expected_union
                | _ -> Atomic.incr failures);
                match Client.request c ~op:"status" ~arg:"" with
                | Ok { Protocol.status = Protocol.Ok; body; _ } ->
                    note body expected_status
                | _ -> Atomic.incr failures
              done;
              Result.Ok ())
        with
        | Ok () -> ()
        | Error _ -> Atomic.incr failures
      in
      let threads = List.init n_threads (fun i -> Thread.create (worker i) ()) in
      List.iter Thread.join threads;
      check_int "every concurrent reply bit-for-bit equal" 0 (Atomic.get failures))

let test_serve_shutdown_op_drains () =
  with_served_workspace (fun _ws server address ->
      let reply = request_ok address ~op:"query" ~arg:"SELECT Price FROM Vehicle" in
      check_bool "pre-shutdown query ok" true (reply.Protocol.status = Protocol.Ok);
      let reply = request_ok address ~op:"shutdown" ~arg:"" in
      check_bool "shutdown acknowledged" true (reply.Protocol.status = Protocol.Ok);
      (* The accept loop notices the flag within its 0.1s poll; after the
         drain the socket is unlinked and connects are refused. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait_down () =
        match Client.connect address with
        | Error _ -> ()
        | Ok c ->
            Client.close c;
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "server did not shut down"
            else begin
              Thread.yield ();
              Unix.sleepf 0.05;
              wait_down ()
            end
      in
      wait_down ();
      let s = Server_stats.snapshot (Server.stats server) in
      check_int "nothing left in flight" 0 s.Server_stats.in_flight;
      check_bool "work was accounted" true (s.Server_stats.accepted >= 2))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_serve_two_workspaces_bit_for_bit () =
  with_served_two_workspaces (fun (ws_a, ws_b) _server address ->
      let q = "SELECT Price FROM Vehicle" in
      let expected_a = direct_query_body ws_a q in
      let expected_b = direct_query_body ws_b q in
      check_bool "tenants hold observably different data" false
        (String.equal expected_a expected_b);
      (* Concurrent clients pinned to either tenant: every reply must be
         bit-for-bit the single-workspace answer. *)
      let failures = Atomic.make 0 in
      let worker i () =
        let workspace, expected =
          if i mod 2 = 0 then (None, expected_a)
          else (Some "second", expected_b)
        in
        match
          Client.with_connection address (fun c ->
              for _ = 1 to 20 do
                match Client.request ?workspace c ~op:"query" ~arg:q with
                | Ok { Protocol.status = Protocol.Ok; body; _ } ->
                    if not (String.equal body expected) then
                      Atomic.incr failures
                | _ -> Atomic.incr failures
              done;
              Result.Ok ())
        with
        | Ok () -> ()
        | Error _ -> Atomic.incr failures
      in
      let threads = List.init 6 (fun i -> Thread.create (worker i) ()) in
      List.iter Thread.join threads;
      check_int "every tenant-routed reply bit-for-bit" 0
        (Atomic.get failures);
      (* The explicit default tenant and the bare request agree. *)
      match
        Client.with_connection address (fun c ->
            Client.request ~workspace:"default" c ~op:"query" ~arg:q)
      with
      | Ok r ->
          check_string "workspace=default equals the bare form" expected_a
            r.Protocol.body
      | Error m -> Alcotest.failf "transport error: %s" m)

let test_serve_unknown_workspace () =
  with_served_two_workspaces (fun _ _server address ->
      (match
         Client.with_connection address (fun c ->
             Client.request ~workspace:"nope" c ~op:"query"
               ~arg:"SELECT Price FROM Vehicle")
       with
      | Ok r ->
          check_bool "unknown workspace is an error reply" true
            (r.Protocol.status = Protocol.Error);
          check_bool "error names the problem" true
            (contains r.Protocol.body "unknown workspace")
      | Error m -> Alcotest.failf "transport error: %s" m);
      (* The stats body lists both tenants for operators. *)
      let r = request_ok address ~op:"stats" ~arg:"" in
      check_bool "stats lists the tenants" true
        (contains r.Protocol.body "\"workspaces\""
        && contains r.Protocol.body "\"default\""
        && contains r.Protocol.body "\"second\"");
      check_bool "stats counts snapshots, shard decodes and envs" true
        (contains r.Protocol.body "\"route_snapshots\": "
        && contains r.Protocol.body "\"shard_decodes\": "
        && contains r.Protocol.body "\"envs\": "))

let test_serve_breaker_fsck_isolation () =
  with_served_two_workspaces (fun (ws_a, ws_b) _server address ->
      let q = "SELECT Price FROM Vehicle" in
      let expected_a = direct_query_body ws_a q in
      (* Corrupt the second tenant's factory source on disk and trip its
         circuit: [health] classifies through the breaker gate, so
         threshold-many scans open the circuit for the failing part. *)
      let victim =
        Filename.concat (Workspace.root ws_b) "sources/factory.xml"
      in
      let oc = open_out victim in
      output_string oc "<broken";
      close_out oc;
      for _ = 1 to (Breaker.default_config ()).Breaker.threshold do
        ignore (Workspace.health ws_b)
      done;
      check_bool "second tenant's circuit is open" true
        (List.exists
           (fun b -> b.Breaker.info_state = Breaker.Open)
           (Workspace.breakers ws_b));
      check_bool "first tenant's breakers untouched" true
        (List.for_all
           (fun b -> b.Breaker.info_state = Breaker.Closed)
           (Workspace.breakers ws_a));
      (* The healthy tenant still answers bit-for-bit through the
         daemon while its neighbour is broken. *)
      let r = request_ok address ~op:"query" ~arg:q in
      check_string "healthy tenant unaffected" expected_a r.Protocol.body;
      (* fsck repairs and resets circuits for the tenant it ran on —
         and only that tenant. *)
      let report = Workspace.fsck ws_b in
      check_bool "fsck repaired the corrupt source" true
        (report.Workspace.repairs <> []);
      check_bool "second tenant's circuits reset" true
        (Workspace.breakers ws_b = []);
      check_bool "first tenant still clean" true
        (List.for_all
           (fun b -> b.Breaker.info_state = Breaker.Closed)
           (Workspace.breakers ws_a)))

let test_stats_histogram () =
  let s = Server_stats.create () in
  Server_stats.record s ~op:"query" ~ok:true ~ns:1_500.0;
  Server_stats.record s ~op:"query" ~ok:true ~ns:2_000.0;
  Server_stats.record s ~op:"query" ~ok:false ~ns:3_000_000.0;
  let snap = Server_stats.snapshot s in
  match snap.Server_stats.ops with
  | [ o ] ->
      check_string "op name" "query" o.Server_stats.op;
      check_int "ok count" 2 o.Server_stats.ok;
      check_int "error count" 1 o.Server_stats.errors;
      check_bool "p50 within a bucket of the medians" true
        (o.Server_stats.p50_ns >= 1_500.0 && o.Server_stats.p50_ns <= 4_096.0);
      check_bool "p99 reflects the slow outlier" true
        (o.Server_stats.p99_ns >= 2_000_000.0);
      check_bool "max is exact" true (o.Server_stats.max_ns = 3_000_000.0)
  | ops -> Alcotest.failf "expected one op, got %d" (List.length ops)

let suite =
  [
    ( "server protocol",
      [
        Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
        Alcotest.test_case "garbage resyncs" `Quick test_frame_garbage_resyncs;
        Alcotest.test_case "oversized drains" `Quick test_frame_oversized_drains;
        Alcotest.test_case "truncated is fatal" `Quick test_frame_truncated_is_fatal;
        Alcotest.test_case "request codec" `Quick test_request_codec;
        Alcotest.test_case "request attributes" `Quick
          test_request_codec_attributes;
        Alcotest.test_case "reply codec" `Quick test_reply_codec;
      ] );
    ( "server admission",
      [
        Alcotest.test_case "runs jobs" `Quick test_admission_runs_jobs;
        Alcotest.test_case "sheds when full" `Quick test_admission_sheds_when_full;
        Alcotest.test_case "capacity zero sheds" `Quick test_admission_capacity_zero_always_sheds;
        Alcotest.test_case "drain refuses then completes" `Quick test_admission_drain_refuses_then_completes;
        Alcotest.test_case "fair-share eviction" `Quick test_admission_fair_share;
        Alcotest.test_case "tenant round-robin pickup" `Quick
          test_admission_tenant_round_robin;
      ] );
    ( "server daemon",
      [
        Alcotest.test_case "basic ops" `Quick test_serve_basic_ops;
        Alcotest.test_case "survives bad frames" `Quick test_serve_connection_survives_bad_frames;
        Alcotest.test_case "sheds with busy" `Quick test_serve_sheds_with_busy;
        Alcotest.test_case "concurrent soak" `Slow test_serve_concurrent_soak;
        Alcotest.test_case "shutdown drains" `Quick test_serve_shutdown_op_drains;
        Alcotest.test_case "two workspaces bit-for-bit" `Slow
          test_serve_two_workspaces_bit_for_bit;
        Alcotest.test_case "unknown workspace" `Quick
          test_serve_unknown_workspace;
        Alcotest.test_case "breaker and fsck stay per-tenant" `Quick
          test_serve_breaker_fsck_isolation;
        Alcotest.test_case "stats histogram" `Quick test_stats_histogram;
      ] );
  ]
