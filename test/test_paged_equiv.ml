(* Paged ≡ in-memory equivalence: the paged segment store is a pure
   storage backend, so every observable — the composed federation space,
   query reports, lint verdicts, fsck cleanliness — must agree with the
   flat backend on identical content.  Property-tested over generated
   island federations; the corrupt-segment case checks the one place the
   backends are ALLOWED to differ (repair policy) while both still
   degrade rather than die. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rec rm path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let build ~paged ~islands ~terms ~seed =
  let dir = Filename.temp_file "onion-pequiv" "" in
  Sys.remove dir;
  let ws =
    match Workspace.init ~paged dir with
    | Ok ws -> ws
    | Error m -> Alcotest.failf "init: %s" m
  in
  let p = Workspace.publisher ws in
  (match
     Gen.federation_stream ~islands ~terms ~seed ~prefix:"src"
       ~emit_source:(fun o ->
         Workspace.publish_source p o ~ext:".adj"
           ~payload:(Adjacency.print (Ontology.graph o)))
       ~emit_articulation:(Workspace.publish_articulation p)
       ()
   with
  | Ok () -> ()
  | Error m -> Alcotest.failf "stream: %s" m);
  (match Workspace.commit p with
  | Ok () -> ()
  | Error m -> Alcotest.failf "commit: %s" m);
  (dir, ws)

let with_pair ~islands ~terms ~seed f =
  let fdir, fws = build ~paged:false ~islands ~terms ~seed in
  let pdir, pws = build ~paged:true ~islands ~terms ~seed in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists fdir then rm fdir;
      if Sys.file_exists pdir then rm pdir)
    (fun () -> f fws pws)

let space_of ws =
  match Workspace.space ws with
  | Ok (space, health) -> (space, health)
  | Error m -> Alcotest.failf "space: %s" m

let report_string ws text =
  match Workspace.query_space ws text with
  | Error m -> Alcotest.failf "query_space: %s" m
  | Ok (space, _health) -> (
      let kbs =
        List.map
          (fun o ->
            Kb.of_ontology_instances ~ontology:o ("kb-" ^ Ontology.name o))
          space.Federation.sources
      in
      let env = Mediator.env_federated ~kbs ~space () in
      match
        Mediator.run_text
          ?default_ontology:(Workspace.default_ontology ws)
          env text
      with
      | Ok report -> Format.asprintf "%a" Mediator.pp_report report
      | Error m -> "error: " ^ m)

let params =
  QCheck.make
    ~print:(fun (islands, terms, seed) ->
      Printf.sprintf "islands=%d terms=%d seed=%d" islands terms seed)
    QCheck.Gen.(
      triple (int_range 2 6) (int_range 6 30) (int_range 0 10_000))

let prop_spaces_equal =
  QCheck.Test.make ~count:15 ~name:"paged and flat compose the same space"
    params
    (fun (islands, terms, seed) ->
      with_pair ~islands ~terms ~seed (fun fws pws ->
          let fs, fh = space_of fws in
          let ps, ph = space_of pws in
          Health.ok fh && Health.ok ph
          && Digraph.equal fs.Federation.graph ps.Federation.graph
          && List.sort compare (List.map Ontology.name fs.Federation.sources)
             = List.sort compare (List.map Ontology.name ps.Federation.sources)
          && List.sort compare (Workspace.source_names fws)
             = List.sort compare (Workspace.source_names pws)
          && List.sort compare (Workspace.articulation_names fws)
             = List.sort compare (Workspace.articulation_names pws)))

let prop_query_reports_equal =
  QCheck.Test.make ~count:15
    ~name:"routed paged queries report byte-for-byte like flat" params
    (fun (islands, terms, seed) ->
      with_pair ~islands ~terms ~seed (fun fws pws ->
          (* One anchor per island: the paged side routes each to its
             articulation group; answers must not depend on that. *)
          List.for_all
            (fun k ->
              let text =
                Printf.sprintf "SELECT * FROM %s:%s"
                  (Gen.federation_source_name "src" k)
                  (Gen.concept_name (seed mod terms))
              in
              String.equal (report_string fws text) (report_string pws text))
            (List.init islands Fun.id)))

let prop_lint_equal =
  QCheck.Test.make ~count:10 ~name:"lint verdicts agree across backends"
    params
    (fun (islands, terms, seed) ->
      with_pair ~islands ~terms ~seed (fun fws pws ->
          let counts ws =
            let report = Workspace.lint ws in
            let ds =
              Diagnostic.apply_config Diagnostic.default_config
                report.Lint.diagnostics
            in
            ( List.length (Diagnostic.errors ds),
              List.length (Diagnostic.warnings ds),
              Diagnostic.exit_code ds )
          in
          counts fws = counts pws))

let prop_clean_fsck =
  QCheck.Test.make ~count:10 ~name:"fsck of a clean workspace repairs nothing"
    params
    (fun (islands, terms, seed) ->
      with_pair ~islands ~terms ~seed (fun fws pws ->
          let fr = Workspace.fsck fws in
          let pr = Workspace.fsck pws in
          fr.Workspace.repairs = []
          && pr.Workspace.repairs = []
          && Health.ok fr.Workspace.health
          && Health.ok pr.Workspace.health))

(* Corruption: clobber one source's stored bytes in BOTH backends.  Both
   must degrade (serve the rest, flag the loss) — dying or silently
   serving garbage are the failure modes.  Repair policy then differs by
   design: the paged store quarantines (content-addressing means the
   edited payload can't be re-adopted), which must restore a clean
   workspace minus the victim. *)
let test_corrupt_segment_degrades () =
  let islands = 4 and terms = 12 and seed = 3 in
  let fdir, fws = build ~paged:false ~islands ~terms ~seed in
  let pdir, pws = build ~paged:true ~islands ~terms ~seed in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists fdir then rm fdir;
      if Sys.file_exists pdir then rm pdir)
  @@ fun () ->
  let victim = Gen.federation_source_name "src" 1 in
  let clobber path =
    let oc = open_out_bin path in
    output_string oc "\xff\xfe not a segment \xff\xfe";
    close_out oc
  in
  (* Flat: the registered file itself. *)
  clobber (Filename.concat (Filename.concat fdir "sources") (victim ^ ".adj"));
  (* Paged: the victim's content-addressed segment. *)
  let entries =
    match Segment.read_manifest pdir with
    | Ok e -> e
    | Error m -> Alcotest.failf "manifest: %s" m
  in
  let fp =
    match
      List.find_opt
        (fun (e : Segment.entry) ->
          e.Segment.kind = Segment.Source && String.equal e.Segment.name victim)
        entries
    with
    | Some e -> e.Segment.fp
    | None -> Alcotest.failf "no manifest entry for %s" victim
  in
  clobber (Segment.seg_path pdir fp);
  (* Fresh handles: the memoised spaces must not mask the corruption. *)
  let fws2 = Result.get_ok (Workspace.open_ (Workspace.root fws)) in
  let pws2 = Result.get_ok (Workspace.open_ (Workspace.root pws)) in
  List.iter
    (fun (label, ws) ->
      let health = Workspace.health ws in
      check_bool (label ^ " degrades") true (Health.degraded health);
      check_bool
        (label ^ " flags the victim") true
        (List.exists
           (fun (i : Health.issue) -> String.equal i.Health.name victim)
           health.Health.issues);
      check_bool
        (label ^ " still serves the others") true
        (List.for_all
           (fun n ->
             String.equal n victim
             || Result.is_ok (Workspace.load_source ws n))
           (Workspace.source_names ws)))
    [ ("flat", fws2); ("paged", pws2) ];
  (* Paged fsck: quarantine the victim, come back clean without it. *)
  let report = Workspace.fsck pws2 in
  check_bool "paged fsck repaired something" true
    (report.Workspace.repairs <> []);
  let health = Workspace.health pws2 in
  check_bool "paged clean after fsck" false (Health.degraded health);
  check_bool "victim quarantined" false
    (List.mem victim (Workspace.source_names pws2));
  check_int "survivors intact" (islands - 1)
    (List.length (Workspace.source_names pws2))

(* Satellite regression: the streaming CRC equals the one-shot digest,
   and the streaming verifier agrees with the buffering reader. *)
let test_crc_streaming () =
  let payload = String.init 70_000 (fun i -> Char.chr (i * 31 mod 256)) in
  let chunked =
    let rec go st off =
      if off >= String.length payload then Crc32.finish st
      else
        let len = min 4096 (String.length payload - off) in
        go (Crc32.update st (String.sub payload off len)) (off + len)
    in
    go Crc32.init 0
  in
  check_bool "chunked = one-shot" true (chunked = Crc32.digest payload);
  let dir = Filename.temp_file "onion-crcstream" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
  @@ fun () ->
  let path = Filename.concat dir "payload.dat" in
  (match Durable_io.write ~path payload with
  | Ok () -> ()
  | Error m -> Alcotest.failf "write: %s" m);
  let verdict_of = function
    | Ok (_, v) -> v
    | Error m -> Alcotest.failf "read_verified: %s" m
  in
  let streamed = function
    | Ok v -> v
    | Error m -> Alcotest.failf "verify_file: %s" m
  in
  check_bool "clean file verdicts agree" true
    (verdict_of (Durable_io.read_verified ~path)
    = streamed (Durable_io.verify_file ~chunk_bytes:512 ~path ()));
  (* Flip a byte: both paths must call it a mismatch, identically. *)
  let fd = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  seek_out fd (String.length payload / 2);
  output_char fd '\x00';
  close_out fd;
  check_bool "corrupt file verdicts agree" true
    (verdict_of (Durable_io.read_verified ~path)
    = streamed (Durable_io.verify_file ~chunk_bytes:512 ~path ()))

(* What the daemon sends for a query, as (warnings, body):
   [Workspace.query_env] supplies the space's shared env, its health and
   the default ontology. *)
let served_reply ws text =
  match Workspace.query_env ws text with
  | Error m -> ([], "workspace: " ^ m)
  | Ok { Workspace.env; health; default_ontology } -> (
      ( List.map
          (fun i -> Format.asprintf "%a" Health.pp_issue i)
          health.Health.issues,
        match Mediator.run_text ?default_ontology env text with
        | Ok report -> Format.asprintf "%a" Mediator.pp_report report
        | Error m -> "query error: " ^ m ))

(* The same reply from a fresh handle with every cache off: no snapshot,
   shard table, group space or env survives from earlier requests. *)
let cold_reply ws text =
  Cache_stats.with_disabled (fun () ->
      served_reply (Result.get_ok (Workspace.open_ (Workspace.root ws))) text)

let live_groups root =
  match Segment.read_manifest root with
  | Error m -> Alcotest.failf "manifest: %s" m
  | Ok entries ->
      let rep_of = Segment.groups entries in
      List.sort_uniq String.compare
        (List.map (fun (e : Segment.entry) -> rep_of e.Segment.name) entries)
      |> List.length

let edit_islands = 4
let edit_terms = 8

(* One paged federation edited further by every case, so the snapshot
   path is exercised across a long chain of manifests.  Edits go through
   a second handle, as from another process: the serving handle sees
   them only as a new manifest digest. *)
let with_edited_federation =
  let state = ref None in
  fun f ->
    let handles =
      match !state with
      | Some handles -> handles
      | None ->
          let dir, ws =
            build ~paged:true ~islands:edit_islands ~terms:edit_terms ~seed:11
          in
          at_exit (fun () -> if Sys.file_exists dir then rm dir);
          let handles = (ws, Result.get_ok (Workspace.open_ dir)) in
          state := Some handles;
          handles
    in
    f handles

let edit_case =
  let open QCheck.Gen in
  let node =
    oneof [ oneofl (Gen.concept_pool edit_terms); oneofl [ "zz0"; "zz1" ] ]
  in
  let edge =
    map3
      (fun src label dst -> { Digraph.src; label; dst })
      node
      (oneofl [ Rel.subclass_of; Rel.attribute_of; "x" ])
      node
  in
  let op =
    oneof
      [
        map (fun n -> Transform.Add_node (n, [])) node;
        map (fun n -> Transform.Delete_node n) node;
        map (fun e -> Transform.Add_edges [ e ]) edge;
        map (fun e -> Transform.Delete_edges [ e ]) edge;
      ]
  in
  QCheck.make
    ~print:(fun (src, ops) ->
      Printf.sprintf "src%d: %s" src
        (String.concat "; " (List.map Transform.to_string ops)))
    (pair (int_range 0 (edit_islands - 1)) (list_size (int_range 1 3) op))

(* Anchored on every island (some anchors vanish under deletes and fall
   back to the full space), plus one bare concept parsed under the
   default ontology. *)
let sampled_queries =
  "SELECT * FROM Car"
  :: List.concat_map
       (fun k ->
         List.map
           (fun c ->
             Printf.sprintf "SELECT * FROM %s:%s"
               (Gen.federation_source_name "src" k)
               c)
           [ Gen.concept_name 0; Gen.concept_name (k + 1) ])
       (List.init edit_islands Fun.id)

let prop_edits_serve_like_cold =
  QCheck.Test.make ~count:60
    ~name:"after each edit, snapshot replies = cold replies; envs bounded"
    edit_case
    (fun (src, ops) ->
      with_edited_federation (fun (ws, writer) ->
          (match
             Workspace.edit writer
               ~source:(Gen.federation_source_name "src" src)
               ops
           with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "edit: %s" m);
          List.iter
            (fun text ->
              let show (warnings, body) = String.concat "\n" (warnings @ [ body ]) in
              let served = served_reply ws text and cold = cold_reply ws text in
              if served <> cold then
                QCheck.Test.fail_reportf "%s\nserved:\n%s\ncold:\n%s" text
                  (show served) (show cold))
            sampled_queries;
          (* At most one env per live group, plus the full space's for
             the queries that fell back — no matter how many manifests
             came before. *)
          let envs = Workspace.resident_envs ws
          and bound = live_groups (Workspace.root ws) + 1 in
          if envs > bound then
            QCheck.Test.fail_reportf "%d envs resident, bound %d" envs bound;
          true))

let plan_count name =
  Option.value ~default:0 (List.assoc_opt name (Cache_stats.plan_counts ()))

(* Damage under a routed query: a routing shard lost or corrupted (the
   anchor's queries fall back to the full space) or a stale stamp on the
   anchor's segment (the routed reply warns).  fsck must repair it and
   drop every cached view of the old state — the snapshot's group space
   and the decoded shards — after which the query routes again, with
   the full space's reply and no warning. *)
let test_fsck_restores_routing () =
  let onto = Gen.federation_source_name "src" 1 and concept = Gen.concept_name 2 in
  let text = Printf.sprintf "SELECT * FROM %s:%s" onto concept in
  let shard dir =
    Segment.shard_path dir (Segment.shard_of_label (onto ^ ":" ^ concept))
  in
  let segment_sidecar dir =
    match Segment.read_manifest dir with
    | Error m -> Alcotest.failf "manifest: %s" m
    | Ok entries ->
        let e =
          List.find
            (fun (e : Segment.entry) -> String.equal e.Segment.name onto)
            entries
        in
        Durable_io.sidecar_path (Segment.seg_path dir e.Segment.fp)
  in
  let overwrite bytes path =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc
  in
  let damages =
    [
      ("deleted shard", true, fun dir -> Sys.remove (shard dir));
      ( "corrupted shard",
        true,
        fun dir -> overwrite "\xff not a shard \xff" (shard dir) );
      ( "stale segment stamp",
        false,
        fun dir -> overwrite "crc32 00000000 size 1\n" (segment_sidecar dir) );
    ]
  in
  let store () = build ~paged:true ~islands:4 ~terms:12 ~seed:5 in
  let full =
    let dir, ws = store () in
    Fun.protect ~finally:(fun () -> rm dir) (fun () -> snd (cold_reply ws text))
  in
  List.iter
    (fun (what, shard_damage, damage) ->
      (* A fresh store per case, damaged before its first read: the block
         cache must not hold anything decoded from the undamaged files. *)
      let dir, ws = store () in
      Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
      @@ fun () ->
      let sources ws =
        match Workspace.query_space ws text with
        | Ok (space, _) -> List.length space.Federation.sources
        | Error m -> Alcotest.failf "query_space: %s" m
      in
      damage dir;
      let all = List.length (Workspace.source_names ws) in
      let warnings, body = served_reply ws text in
      check_bool (what ^ ": reply body before fsck") true (String.equal full body);
      if shard_damage then
        check_int (what ^ ": falls back to the full space") all (sources ws)
      else
        (* The routed group space now caches this warning. *)
        check_bool (what ^ ": routed reply warns") true (warnings <> []);
      let report = Workspace.fsck ws in
      check_bool (what ^ ": fsck repaired") true (report.Workspace.repairs <> []);
      let decodes = plan_count "store.shard_decode" in
      check_bool (what ^ ": routes to one group again") true (sources ws < all);
      if shard_damage then
        check_bool (what ^ ": shard decoded afresh") true
          (plan_count "store.shard_decode" > decodes);
      check_bool (what ^ ": routed reply = full-space reply") true
        (served_reply ws text = ([], full)))
    damages

let suite =
  [
    ( "paged-equiv",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_spaces_equal;
          prop_query_reports_equal;
          prop_lint_equal;
          prop_clean_fsck;
          prop_edits_serve_like_cold;
        ]
      @ [
          Alcotest.test_case "corrupt segment degrades then quarantines"
            `Quick test_corrupt_segment_degrades;
          Alcotest.test_case "crc32 streaming = one-shot" `Quick
            test_crc_streaming;
          Alcotest.test_case "fsck restores routing after shard damage" `Quick
            test_fsck_restores_routing;
        ] );
  ]
