type space_result = (Federation.t * Health.t, string) result

type backend = Flat | Paged

(* Everything the incremental lint path needs from the previous full
   run: the parsed view (so unchanged parts stay physically shared and
   keep answering from their revision-keyed memos), the storage-layer
   diagnostics that were spliced into the report, and the enabled-code
   fingerprint the report was computed under. *)
type lint_state = {
  ls_cfg : string;
  ls_view : Lint.view;
  ls_io : Diagnostic.t list;
  ls_report : Lint.report;
}

(* One edited source in the pending chain.  [ec_delta] is the
   {!Delta.union} of every edit since the memoized view — a sound
   trigger superset even when later edits cancel earlier ones — and
   [ec_ontology] is chained from the view's value, so the unchanged
   sources of the substituted view are still the memoized ones. *)
type edit_change = {
  ec_name : string;
  ec_delta : Delta.t;
  ec_ontology : Ontology.t;
  ec_payload : string;  (* serialized bytes now on disk *)
  ec_file : string option;  (* logical file, for diagnostics *)
}

(* The chain of edits between two disk fingerprints: valid for the
   incremental path exactly when the lint memo holds [p_from] and the
   workspace currently fingerprints to [p_to]. *)
type pending = {
  p_from : string;
  p_to : string;
  p_changes : edit_change list;
}

(* A query space paired with the one mediator environment built over it
   on first use.  Spaces and [Mediator.env] are immutable values, so
   every admission domain shares the env; a lost compare-and-set race
   merely builds one duplicate that is dropped. *)
type served_space = {
  ss_result : space_result;
  ss_env : Mediator.env option Atomic.t;
}

(* Everything a routed query needs from one manifest, parsed once and
   replaced (never edited) when the manifest digest changes.  The
   tables are filled at build time and only read afterwards, so domains
   share them without a lock; [rs_groups] fills lazily under [rs_lock].
   Retiring a snapshot frees its group spaces and envs with it. *)
type route_snapshot = {
  rs_digest : string;  (* MD5 of exactly the manifest bytes decoded *)
  rs_entries : Segment.entry list;
  rs_group_of_fp : (string, string) Hashtbl.t;
      (* segment fingerprint -> its group's representative; only
         manifest-referenced fingerprints are present *)
  rs_default : string option;  (* [default_ontology] of these entries *)
  rs_lock : Mutex.t;
  rs_groups : (string, served_space) Hashtbl.t;
}

type t = {
  root : string;
  backend : backend;
      (* Flat: one file per part under sources/ and articulations/ —
         every open loads everything.  Paged: content-fingerprinted
         immutable segments under segments/, named by a manifest; parts
         are decoded on demand through the process-wide block cache, and
         routed queries load only the anchor's articulation group. *)
  memo_lock : Mutex.t;
      (* Guards the space and lint memos: the daemon's admission workers
         are domains, so concurrent requests against one workspace race
         on the memo slots.  Rebuilds run under the lock, so every
         domain observes the SAME space value, and the same env, for a
         given fingerprint. *)
  mutable space_memo : (string * served_space) option;
      (* Last computed query space paired with the disk fingerprint it was
         built from: while the files under sources/ and articulations/ are
         byte-identical, [space] answers from the memo instead of
         re-parsing and re-merging everything.  Honours the global
         Cache_stats.enabled switch like every other cache. *)
  mutable lint_memo : (string * lint_state) option;
      (* Same scheme for the whole lint report: byte-identical workspace
         files mean byte-identical findings.  The state keeps the parsed
         view alongside the report so [edit] can chain in-memory values
         and the incremental path can substitute only what changed. *)
  mutable pending_edits : pending option;
      (* Edits applied through [edit] since the memoized lint, keyed by
         the fingerprints they connect.  Any out-of-band change to the
         workspace breaks the fingerprint chain and falls back to the
         cold path — the chain can mislead no one. *)
  breaker : Breaker.t;
      (* Per-source circuit breakers: a repeatedly-corrupt file is
         skipped (Health.Breaker_open) instead of re-paying read+parse
         on every scan until its cooldown elapses. *)
  route_lock : Mutex.t;
      (* Serialises snapshot rebuilds.  Separate from [memo_lock]
         because space/lint rebuilds (which hold memo_lock) read the
         manifest; a snapshot build never takes memo_lock, so there is
         no cycle. *)
  route : route_snapshot option Atomic.t;
      (* Paged: the snapshot of the manifest last seen on disk.  The
         request path reads it with one atomic load after one manifest
         digest. *)
}

(* ------------------------------------------------------------------ *)
(* Block cache (paged backend)                                        *)
(* ------------------------------------------------------------------ *)

(* One process-wide cache of decoded segments, shared by every paged
   workspace (the daemon serves several tenants from one budget).  Keys
   are [root ^ "#" ^ fingerprint]: content-addressed, so entries can
   never go stale — a changed part publishes a new fingerprint. *)
type cached_part = {
  cp_part :
    [ `Source of Ontology.t | `Articulation of Articulation.t ];
  cp_warns : Health.issue list;
  cp_bytes : int;  (* payload bytes, the cache-budget charge *)
}

(* Decoded routing shards share the budget.  Shards are rewritten in
   place by publishes, so their keys carry the manifest digest of the
   snapshot that decoded them: [root ^ "#" ^ digest ^ "#shard." ^ k]. *)
type block =
  | Part of cached_part
  | Shard of { table : (string, Segment.shard_line) Hashtbl.t; bytes : int }

let block_cache : block Block_cache.t =
  Block_cache.create ~name:"store.block"
    ~size_of:(function
      | Part p -> p.cp_bytes + 512 | Shard s -> s.bytes + 512)
    ()

let block_stats t = Block_cache.stats_for_group block_cache t.root
let block_cache_resident () = Block_cache.bytes_resident block_cache
let block_cache_budget () = Block_cache.budget block_cache

let marker = "onion.workspace"
let marker_content = "onion workspace, format 1\n"

let ( let* ) = Result.bind

let ( / ) = Filename.concat

let root t = t.root

let sources_dir t = t.root / "sources"
let articulations_dir t = t.root / "articulations"
let quarantine_dir t = t.root / "quarantine"

let is_workspace dir = Sys.file_exists (dir / marker)
let is_paged_dir dir = Sys.file_exists (dir / Segment.paged_marker)

let mkdir_if_missing dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let make ~backend dir =
  {
    root = dir;
    backend;
    memo_lock = Mutex.create ();
    space_memo = None;
    lint_memo = None;
    pending_edits = None;
    breaker = Breaker.create ();
    route_lock = Mutex.create ();
    route = Atomic.make None;
  }

let is_paged t = match t.backend with Paged -> true | Flat -> false

let init ?(paged = false) dir =
  if is_workspace dir then
    Error (Printf.sprintf "%s is already a workspace" dir)
  else begin
    try
      mkdir_if_missing dir;
      if paged then begin
        mkdir_if_missing (Segment.segments_dir dir);
        match Segment.write_manifest dir [] with
        | Error m -> Error m
        | Ok () ->
            Atomic_io.write (dir / Segment.paged_marker)
              Segment.paged_marker_content;
            Atomic_io.write (dir / marker) marker_content;
            Ok (make ~backend:Paged dir)
      end
      else begin
        mkdir_if_missing (dir / "sources");
        mkdir_if_missing (dir / "articulations");
        Atomic_io.write (dir / marker) marker_content;
        Ok (make ~backend:Flat dir)
      end
    with Sys_error m -> Error m
  end

(* The backend is a property of the directory, auto-detected from the
   onion.paged marker, so every existing caller (CLI, daemon tenants)
   opens paged workspaces transparently.  [~paged] asserts the
   expectation instead of switching behaviour. *)
let open_ ?paged dir =
  if not (is_workspace dir) then
    Error (Printf.sprintf "%s is not an onion workspace (missing %s)" dir marker)
  else
    let actual = if is_paged_dir dir then Paged else Flat in
    match (paged, actual) with
    | Some true, Flat ->
        Error (Printf.sprintf "%s is not a paged workspace (missing %s)" dir
                 Segment.paged_marker)
    | Some false, Paged ->
        Error (Printf.sprintf "%s is a paged workspace (has %s)" dir
                 Segment.paged_marker)
    | _ -> Ok (make ~backend:actual dir)

(* ------------------------------------------------------------------ *)
(* Manifest access (paged backend)                                    *)
(* ------------------------------------------------------------------ *)

let shard_key t digest k = Printf.sprintf "%s#%s#shard.%d" t.root digest k

(* The digest is taken over the very bytes decoded, so a publish racing
   the read can never pair one manifest's digest with another's
   entries. *)
let build_snapshot t =
  let* bytes = Durable_io.read ~path:(Segment.manifest_path t.root) in
  let* entries = Segment.decode_manifest bytes in
  Cache_stats.record_plan "store.route_snapshot";
  let rep_of = Segment.groups entries in
  let group_of_fp = Hashtbl.create 64 in
  List.iter
    (fun (e : Segment.entry) ->
      Hashtbl.replace group_of_fp e.Segment.fp (rep_of e.Segment.name))
    entries;
  let articulations =
    List.filter_map
      (fun (e : Segment.entry) ->
        match e.Segment.kind with
        | Segment.Articulation -> Some e.Segment.name
        | Segment.Source -> None)
      entries
  in
  Ok
    {
      rs_digest = Digest.to_hex (Digest.string bytes);
      rs_entries = entries;
      rs_group_of_fp = group_of_fp;
      rs_default =
        (match List.rev (List.sort String.compare articulations) with
        | [] -> None
        | n :: _ -> Some n);
      rs_lock = Mutex.create ();
      rs_groups = Hashtbl.create 16;
    }

(* Replace the current snapshot (caller holds [route_lock]); the
   retired one's decoded shards leave the block cache with it. *)
let set_route_locked t next =
  (match Atomic.get t.route with
  | Some old ->
      for k = 0 to Segment.shards - 1 do
        Block_cache.remove block_cache (shard_key t old.rs_digest k)
      done
  | None -> ());
  Atomic.set t.route next

(* Repairs and shard rebuilds can change routing without changing the
   manifest bytes; they drop the snapshot so the next request re-reads. *)
let drop_route t = Mutex.protect t.route_lock (fun () -> set_route_locked t None)

(* The snapshot of the manifest currently on disk: one MD5 over a small
   file and an atomic load on a hit; a rebuild only when the digest
   moved. *)
let snapshot t =
  let current digest =
    match Atomic.get t.route with
    | Some s when String.equal s.rs_digest digest -> Some s
    | _ -> None
  in
  match Segment.manifest_digest t.root with
  | None -> Error "manifest missing"
  | Some digest -> (
      match current digest with
      | Some s -> Ok s
      | None ->
          Mutex.protect t.route_lock (fun () ->
              match current digest with
              | Some s -> Ok s
              | None ->
                  let* s = build_snapshot t in
                  set_route_locked t (Some s);
                  Ok s))

let manifest t = Result.map (fun s -> s.rs_entries) (snapshot t)

let manifest_entries t =
  match manifest t with Ok entries -> entries | Error _ -> []

let paged_entry t kind name =
  List.find_opt
    (fun (e : Segment.entry) ->
      e.Segment.kind = kind && String.equal e.Segment.name name)
    (manifest_entries t)

(* Logical file name reported for a paged part: segment fingerprints
   change on every edit, so diagnostics anchor to the stable name the
   flat backend would use. *)
let logical_file (e : Segment.entry) =
  match e.Segment.kind with
  | Segment.Source -> "sources/" ^ e.Segment.name ^ e.Segment.ext
  | Segment.Articulation ->
      "articulations/" ^ e.Segment.name ^ ".articulation.xml"

(* Payload files only: in-flight tmp files and checksum sidecars are
   protocol artefacts, not registered content. *)
let payload_files dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir
    |> Array.to_list
    |> List.filter (fun f ->
           not (Atomic_io.is_tmp f) && not (Durable_io.is_sidecar f))

(* Source files keep their original extension so the loader's format
   dispatch still applies; the registered name is the ontology's own. *)
let source_file t name =
  let candidates =
    [ name ^ ".xml"; name ^ ".idl"; name ^ ".adj"; name ^ ".graph"; name ^ ".txt" ]
  in
  List.find_map
    (fun f ->
      let path = sources_dir t / f in
      if Sys.file_exists path then Some path else None)
    candidates

let ext_of_path path =
  match String.lowercase_ascii (Filename.extension path) with
  | "" -> ".xml"
  | e -> e

(* ------------------------------------------------------------------ *)
(* Paged backend: loading through the block cache                     *)
(* ------------------------------------------------------------------ *)

let part_of_kind = function
  | Segment.Source -> Health.Source
  | Segment.Articulation -> Health.Articulation

(* Decode one manifest entry, through the process-wide block cache.
   Only clean decodes are cached (a warned or failed part re-reads, so
   transient verdicts never stick); keys are content-addressed, so a hit
   can never be stale. *)
let paged_load t (e : Segment.entry) =
  let file = logical_file e in
  let issue kind detail =
    { Health.part = part_of_kind e.Segment.kind; name = e.Segment.name; file;
      kind; detail }
  in
  let key = t.root ^ "#" ^ e.Segment.fp in
  match Block_cache.find_opt block_cache key with
  | Some (Part p) -> Ok p
  | Some (Shard _) | None -> (
      Cache_stats.record_plan "store.segment_load";
      match Segment.read_segment t.root e.Segment.fp with
      | Error m -> Error (issue Health.Unreadable m)
      | Ok (decoded, verdict) -> (
          let mismatch_note m =
            match verdict with
            | Durable_io.Mismatch { expected; actual } ->
                Printf.sprintf "%s (checksum mismatch: stamped %s, payload %s)"
                  m expected actual
            | _ -> m
          in
          match decoded with
          | Error m -> Error (issue Health.Unparseable (mismatch_note m))
          | Ok (kind, name, _ext, payload) ->
              if
                kind <> e.Segment.kind
                || not (String.equal name e.Segment.name)
              then
                Error
                  (issue Health.Unparseable
                     (mismatch_note "segment header disagrees with the manifest"))
              else
                let warns =
                  match verdict with
                  | Durable_io.Mismatch { expected; actual } ->
                      [
                        issue Health.Checksum_mismatch
                          (Printf.sprintf
                             "stamped %s, payload %s — external edit or \
                              silent corruption (fsck quarantines)"
                             expected actual);
                      ]
                  | _ -> []
                in
                let finish part =
                  let p =
                    { cp_part = part; cp_warns = warns;
                      cp_bytes = String.length payload }
                  in
                  if warns = [] then
                    Block_cache.insert block_cache ~group:t.root key (Part p);
                  Ok p
                in
                (match e.Segment.kind with
                | Segment.Source -> (
                    let format = Loader.format_of_path ("f" ^ e.Segment.ext) in
                    match
                      Loader.load_string ?format ~name:e.Segment.name payload
                    with
                    | Error m -> Error (issue Health.Unparseable (mismatch_note m))
                    | Ok o -> finish (`Source o))
                | Segment.Articulation -> (
                    match Articulation_io.of_string payload with
                    | Error m -> Error (issue Health.Unparseable (mismatch_note m))
                    | Ok a -> finish (`Articulation a)))))

(* Raw payload text of a paged part (the lint passes want the bytes the
   diagnostics' spans refer to). *)
let paged_text t (e : Segment.entry) =
  match Segment.read_segment t.root e.Segment.fp with
  | Ok (Ok (_, _, _, payload), _) -> Some payload
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Paged backend: publishing                                          *)
(* ------------------------------------------------------------------ *)

(* A part staged for publication. *)
type staged = {
  st_kind : Segment.kind;
  st_name : string;
  st_ext : string;
  st_payload : string;
  st_index : Segment.index;
  st_links : string list;
}

let stage_source o ~ext ~payload =
  {
    st_kind = Segment.Source;
    st_name = Ontology.name o;
    st_ext = ext;
    st_payload = payload;
    st_index = Segment.index_of_source o;
    st_links = [];
  }

let articulation_links a =
  let endpoints =
    List.concat_map
      (fun (b : Bridge.t) ->
        [ b.Bridge.src.Term.ontology; b.Bridge.dst.Term.ontology ])
      (Articulation.bridges a)
  in
  List.sort_uniq String.compare
    (Articulation.left a :: Articulation.right a :: endpoints)
  |> List.filter (fun n -> not (String.equal n (Articulation.name a)))

let stage_articulation a =
  {
    st_kind = Segment.Articulation;
    st_name = Articulation.name a;
    st_ext = "";
    st_payload = Articulation_io.to_string a;
    st_index = Segment.index_of_articulation a;
    st_links = articulation_links a;
  }

(* One paged publish: write new segments + indexes, update the routing
   shards, swap the manifest (the single commit point), then unlink
   retired segment files.  A crash before the swap leaves the new files
   as orphans; a crash after it leaves the retired ones — fsck removes
   either, and readers only ever follow the manifest. *)
let paged_publish t ~(add : staged list) ~(remove : (Segment.kind * string) list)
    =
  let* entries =
    match manifest t with
    | Ok entries -> Ok entries
    | Error m -> Error ("manifest: " ^ m)
  in
  (* Stage every new segment on disk first. *)
  let* added =
    List.fold_left
      (fun acc st ->
        let* acc = acc in
        let* fp =
          Segment.write_segment t.root ~kind:st.st_kind ~name:st.st_name
            ~ext:st.st_ext st.st_payload
        in
        let* () = Segment.write_index t.root fp st.st_index in
        Ok ((st, fp) :: acc))
      (Ok []) add
    |> Result.map List.rev
  in
  let replaces (e : Segment.entry) =
    List.exists
      (fun (st, _) ->
        st.st_kind = e.Segment.kind && String.equal st.st_name e.Segment.name)
      added
    || List.exists
         (fun (k, n) -> k = e.Segment.kind && String.equal n e.Segment.name)
         remove
  in
  let retired, kept = List.partition replaces entries in
  let new_entries =
    kept
    @ List.map
        (fun (st, fp) ->
          {
            Segment.kind = st.st_kind;
            name = st.st_name;
            ext = st.st_ext;
            fp;
            links = st.st_links;
          })
        added
  in
  (* Incremental shard maintenance; any trouble reading a retired index
     falls back to a full rebuild from the new entry set. *)
  let retired_indexes =
    List.filter_map
      (fun (e : Segment.entry) ->
        (* A re-publish of identical bytes keeps the same fingerprint;
           its labels must not be retired. *)
        if List.exists (fun (_, fp) -> String.equal fp e.Segment.fp) added then
          None
        else
          match Segment.read_index t.root e.Segment.fp with
          | Ok idx -> Some (e.Segment.fp, idx)
          | Error _ -> Some (e.Segment.fp, Segment.{ idx_nodes = []; idx_edges = []; idx_parents = [] }))
      retired
  in
  let add_indexes =
    List.filter_map
      (fun (st, fp) ->
        if List.exists (fun (e : Segment.entry) -> String.equal e.Segment.fp fp) entries
        then None
        else Some (fp, st.st_index))
      added
  in
  let* () =
    match
      Segment.apply_shard_delta t.root ~remove:retired_indexes ~add:add_indexes
    with
    | Ok () -> Ok ()
    | Error _ -> Segment.rebuild_shards t.root new_entries
  in
  (* The commit point.  The snapshot goes with it: the shard fallback
     above rewrites routing even when the manifest bytes come out
     identical. *)
  let* () = Segment.write_manifest t.root new_entries in
  drop_route t;
  (* Post-commit cleanup: retired fingerprints no longer referenced. *)
  let still_referenced fp =
    List.exists (fun (e : Segment.entry) -> String.equal e.Segment.fp fp)
      new_entries
  in
  List.iter
    (fun (e : Segment.entry) ->
      if not (still_referenced e.Segment.fp) then begin
        ignore (Durable_io.remove ~path:(Segment.seg_path t.root e.Segment.fp));
        ignore (Durable_io.remove ~path:(Segment.idx_path t.root e.Segment.fp))
      end)
    retired;
  Ok ()

let add_source_flat t ~path ~name ~ext =
  let target = sources_dir t / (name ^ ext) in
  (* Drop any previously registered file for this name under another
     extension (same-extension re-adds are atomically overwritten by
     the rename, no removal needed).  A failure here must not be
     swallowed: the stale file would keep shadowing or duplicating
     the source, so it is surfaced as a warning. *)
  let warnings =
    match source_file t name with
    | Some old when not (String.equal old target) -> (
        match Durable_io.remove ~path:old with
        | Ok () -> []
        | Error m ->
            [
              Printf.sprintf "could not remove previously registered %s: %s"
                old m;
            ])
    | _ -> []
  in
  match Durable_io.read ~path with
  | Error m -> Error m
  | Ok content -> (
      match Durable_io.write ~path:target content with
      | Ok () -> Ok (name, warnings)
      | Error m -> Error m)

let add_source t ~path =
  match Loader.load_file path with
  | Error m -> Error (Printf.sprintf "cannot register %s: %s" path m)
  | Ok o -> (
      let name = Ontology.name o in
      let ext = ext_of_path path in
      match t.backend with
      | Flat -> add_source_flat t ~path ~name ~ext
      | Paged -> (
          match Durable_io.read ~path with
          | Error m -> Error m
          | Ok content -> (
              match
                paged_publish t
                  ~add:[ stage_source o ~ext ~payload:content ]
                  ~remove:[]
              with
              | Ok () -> Ok (name, [])
              | Error m -> Error m)))

let remove_source t name =
  match t.backend with
  | Flat -> (
      match source_file t name with
      | Some path -> Durable_io.remove ~path
      | None -> Error (Printf.sprintf "no source named %s" name))
  | Paged -> (
      match paged_entry t Segment.Source name with
      | None -> Error (Printf.sprintf "no source named %s" name)
      | Some _ -> paged_publish t ~add:[] ~remove:[ (Segment.Source, name) ])

let source_names t =
  match t.backend with
  | Flat ->
      payload_files (sources_dir t)
      |> List.map Filename.remove_extension
      |> List.sort_uniq String.compare
  | Paged ->
      manifest_entries t
      |> List.filter_map (fun (e : Segment.entry) ->
             match e.Segment.kind with
             | Segment.Source -> Some e.Segment.name
             | Segment.Articulation -> None)
      |> List.sort_uniq String.compare

let load_source t name =
  match t.backend with
  | Flat -> (
      match source_file t name with
      | None -> Error (Printf.sprintf "no source named %s" name)
      | Some path -> (
          match Loader.load_file path with
          | Ok o -> Ok o
          | Error m -> Error (Printf.sprintf "source %s: %s" name m)))
  | Paged -> (
      match paged_entry t Segment.Source name with
      | None -> Error (Printf.sprintf "no source named %s" name)
      | Some e -> (
          match paged_load t e with
          | Ok { cp_part = `Source o; _ } -> Ok o
          | Ok _ ->
              Error (Printf.sprintf "source %s: segment kind mismatch" name)
          | Error issue ->
              Error (Printf.sprintf "source %s: %s" name issue.Health.detail)))

let rel_file t path =
  let prefix = t.root / "" in
  let lp = String.length prefix in
  if String.length path > lp && String.equal (String.sub path 0 lp) prefix then
    String.sub path lp (String.length path - lp)
  else path

(* [entry] pins the manifest entry (a routed build classifies its
   snapshot's entries); by default the current manifest names it. *)
let classify_paged_raw ?entry t kind name =
  match
    match entry with Some _ -> entry | None -> paged_entry t kind name
  with
  | None ->
      Error
        {
          Health.part = part_of_kind kind;
          name;
          file =
            (match kind with
            | Segment.Source -> "sources/" ^ name
            | Segment.Articulation ->
                "articulations/" ^ name ^ ".articulation.xml");
          kind = Health.Unreadable;
          detail = "registered file disappeared";
        }
  | Some e -> (
      match paged_load t e with
      | Error issue -> Error issue
      | Ok p -> Ok (p.cp_part, p.cp_warns))

(* Degraded load of one source: IO errors, parse failures and checksum
   verdicts become Health issues instead of aborting the federation. *)
let classify_source_raw_flat t name =
  match source_file t name with
  | None ->
      Error
        {
          Health.part = Health.Source;
          name;
          file = "sources/" ^ name;
          kind = Health.Unreadable;
          detail = "registered file disappeared";
        }
  | Some path -> (
      let file = rel_file t path in
      match Durable_io.read_verified ~path with
      | Error m ->
          Error
            {
              Health.part = Health.Source;
              name;
              file;
              kind = Health.Unreadable;
              detail = m;
            }
      | Ok (content, verdict) -> (
          let format = Loader.format_of_path path in
          match Loader.load_string ?format ~name content with
          | Error m ->
              let detail =
                match verdict with
                | Durable_io.Mismatch { expected; actual } ->
                    Printf.sprintf
                      "%s (checksum mismatch: stamped %s, payload %s)" m
                      expected actual
                | _ -> m
              in
              Error
                {
                  Health.part = Health.Source;
                  name;
                  file;
                  kind = Health.Unparseable;
                  detail;
                }
          | Ok o -> (
              match verdict with
              | Durable_io.Mismatch { expected; actual } ->
                  Ok
                    ( o,
                      [
                        {
                          Health.part = Health.Source;
                          name;
                          file;
                          kind = Health.Checksum_mismatch;
                          detail =
                            Printf.sprintf
                              "stamped %s, payload %s — external edit or \
                               silent corruption (fsck re-stamps)"
                              expected actual;
                        };
                      ] )
              | _ -> Ok (o, []))))

let classify_source_raw ?entry t name =
  match t.backend with
  | Flat -> classify_source_raw_flat t name
  | Paged -> (
      match classify_paged_raw ?entry t Segment.Source name with
      | Error issue -> Error issue
      | Ok (`Source o, warns) -> Ok (o, warns)
      | Ok (`Articulation _, _) ->
          Error
            {
              Health.part = Health.Source;
              name;
              file = "sources/" ^ name;
              kind = Health.Unparseable;
              detail = "segment kind mismatch";
            })

(* Feed every load outcome to the part's circuit breaker; an open
   circuit skips the load entirely and surfaces as Breaker_open. *)
let classify_with_breaker t ~key ~skip_issue classify =
  if Breaker.should_skip t.breaker key then Error (skip_issue ())
  else
    match classify () with
    | Ok _ as ok ->
        Breaker.record_success t.breaker key;
        ok
    | Error (issue : Health.issue) ->
        Breaker.record_failure t.breaker key ~detail:issue.Health.detail;
        Error issue

let classify_source ?entry t name =
  let key = "source:" ^ name in
  classify_with_breaker t ~key
    ~skip_issue:(fun () ->
      {
        Health.part = Health.Source;
        name;
        file = "sources/" ^ name;
        kind = Health.Breaker_open;
        detail = Breaker.skip_detail t.breaker key;
      })
    (fun () -> classify_source_raw ?entry t name)

let breakers t = Breaker.snapshot t.breaker

let load_sources t =
  List.fold_left
    (fun (sources, issues) name ->
      match classify_source t name with
      | Ok (o, warns) -> (sources @ [ o ], issues @ warns)
      | Error issue -> (sources, issues @ [ issue ]))
    ([], []) (source_names t)

let articulation_file t name = articulations_dir t / (name ^ ".articulation.xml")

let store_articulation t articulation =
  match t.backend with
  | Flat ->
      Durable_io.write
        ~path:(articulation_file t (Articulation.name articulation))
        (Articulation_io.to_string articulation)
  | Paged -> paged_publish t ~add:[ stage_articulation articulation ] ~remove:[]

let articulation_names t =
  match t.backend with
  | Flat ->
      payload_files (articulations_dir t)
      |> List.filter_map (fun f ->
             if Filename.check_suffix f ".articulation.xml" then
               Some (Filename.chop_suffix f ".articulation.xml")
             else None)
      |> List.sort String.compare
  | Paged ->
      manifest_entries t
      |> List.filter_map (fun (e : Segment.entry) ->
             match e.Segment.kind with
             | Segment.Articulation -> Some e.Segment.name
             | Segment.Source -> None)
      |> List.sort_uniq String.compare

let load_articulation t name =
  match t.backend with
  | Flat ->
      let path = articulation_file t name in
      if not (Sys.file_exists path) then
        Error (Printf.sprintf "no articulation named %s" name)
      else Articulation_io.load_file path
  | Paged -> (
      match paged_entry t Segment.Articulation name with
      | None -> Error (Printf.sprintf "no articulation named %s" name)
      | Some e -> (
          match paged_load t e with
          | Ok { cp_part = `Articulation a; _ } -> Ok a
          | Ok _ ->
              Error
                (Printf.sprintf "articulation %s: segment kind mismatch" name)
          | Error issue ->
              Error
                (Printf.sprintf "articulation %s: %s" name issue.Health.detail)
          ))

let remove_articulation t name =
  match t.backend with
  | Flat ->
      let path = articulation_file t name in
      if not (Sys.file_exists path) then
        Error (Printf.sprintf "no articulation named %s" name)
      else Durable_io.remove ~path
  | Paged -> (
      match paged_entry t Segment.Articulation name with
      | None -> Error (Printf.sprintf "no articulation named %s" name)
      | Some _ ->
          paged_publish t ~add:[] ~remove:[ (Segment.Articulation, name) ])

let classify_articulation_raw_flat t name =
  let path = articulation_file t name in
  let file = rel_file t path in
  match Durable_io.read_verified ~path with
  | Error m ->
      Error
        {
          Health.part = Health.Articulation;
          name;
          file;
          kind = Health.Unreadable;
          detail = m;
        }
  | Ok (content, verdict) -> (
      match Articulation_io.of_string content with
      | Error m ->
          let detail =
            match verdict with
            | Durable_io.Mismatch { expected; actual } ->
                Printf.sprintf "%s (checksum mismatch: stamped %s, payload %s)"
                  m expected actual
            | _ -> m
          in
          Error
            {
              Health.part = Health.Articulation;
              name;
              file;
              kind = Health.Unparseable;
              detail;
            }
      | Ok a -> (
          match verdict with
          | Durable_io.Mismatch { expected; actual } ->
              Ok
                ( a,
                  [
                    {
                      Health.part = Health.Articulation;
                      name;
                      file;
                      kind = Health.Checksum_mismatch;
                      detail =
                        Printf.sprintf
                          "stamped %s, payload %s — external edit or silent \
                           corruption (fsck re-stamps)"
                          expected actual;
                    };
                  ] )
          | _ -> Ok (a, [])))

let classify_articulation_raw ?entry t name =
  match t.backend with
  | Flat -> classify_articulation_raw_flat t name
  | Paged -> (
      match classify_paged_raw ?entry t Segment.Articulation name with
      | Error issue -> Error issue
      | Ok (`Articulation a, warns) -> Ok (a, warns)
      | Ok (`Source _, _) ->
          Error
            {
              Health.part = Health.Articulation;
              name;
              file = "articulations/" ^ name ^ ".articulation.xml";
              kind = Health.Unparseable;
              detail = "segment kind mismatch";
            })

let classify_articulation ?entry t name =
  let key = "articulation:" ^ name in
  classify_with_breaker t ~key
    ~skip_issue:(fun () ->
      {
        Health.part = Health.Articulation;
        name;
        file = rel_file t (articulation_file t name);
        kind = Health.Breaker_open;
        detail = Breaker.skip_detail t.breaker key;
      })
    (fun () -> classify_articulation_raw ?entry t name)

let load_articulations t =
  List.fold_left
    (fun (arts, issues) name ->
      match classify_articulation t name with
      | Ok (a, warns) -> (arts @ [ a ], issues @ warns)
      | Error issue -> (arts, issues @ [ issue ]))
    ([], [])
    (articulation_names t)

(* ------------------------------------------------------------------ *)
(* Bulk publish                                                       *)
(* ------------------------------------------------------------------ *)

(* Streaming bulk publisher: parts are written as they arrive (bounded
   memory — the workload generator feeds million-node federations
   through this), and [commit] performs ONE shard rebuild and ONE
   manifest swap instead of a rewrite per part.  On the flat backend
   every part write is already durable and [commit] is a no-op.
   Staged names are expected unique; a crash before [commit] leaves
   only orphan segments, which fsck removes. *)
type publisher = {
  pub_ws : t;
  mutable pub_entries : Segment.entry list;  (* reversed *)
}

let publisher t = { pub_ws = t; pub_entries = [] }

let publish_staged p st =
  let t = p.pub_ws in
  match t.backend with
  | Flat -> (
      match st.st_kind with
      | Segment.Source ->
          Durable_io.write
            ~path:(sources_dir t / (st.st_name ^ st.st_ext))
            st.st_payload
      | Segment.Articulation ->
          Durable_io.write ~path:(articulation_file t st.st_name) st.st_payload)
  | Paged ->
      let* fp =
        Segment.write_segment t.root ~kind:st.st_kind ~name:st.st_name
          ~ext:st.st_ext st.st_payload
      in
      let* () = Segment.write_index t.root fp st.st_index in
      p.pub_entries <-
        {
          Segment.kind = st.st_kind;
          name = st.st_name;
          ext = st.st_ext;
          fp;
          links = st.st_links;
        }
        :: p.pub_entries;
      Ok ()

let publish_source p o ~ext ~payload =
  publish_staged p (stage_source o ~ext ~payload)

let publish_articulation p a = publish_staged p (stage_articulation a)

let commit p =
  let t = p.pub_ws in
  match t.backend with
  | Flat -> Ok ()
  | Paged ->
      let* existing =
        match manifest t with
        | Ok entries -> Ok entries
        | Error m -> Error ("manifest: " ^ m)
      in
      let staged = List.rev p.pub_entries in
      let superseded (e : Segment.entry) =
        List.exists
          (fun (e' : Segment.entry) ->
            e'.Segment.kind = e.Segment.kind
            && String.equal e'.Segment.name e.Segment.name)
          staged
      in
      let entries = List.filter (fun e -> not (superseded e)) existing @ staged in
      let* () = Segment.rebuild_shards t.root entries in
      let* () = Segment.write_manifest t.root entries in
      drop_route t;
      Ok ()

let articulate ?conversions t ~left ~right ~name ~rules =
  let* left_o = load_source t left in
  let* right_o = load_source t right in
  match
    Generator.generate ?conversions ~articulation_name:name ~left:left_o
      ~right:right_o rules
  with
  | exception Invalid_argument m -> Error m
  | r ->
      let* () = store_articulation t r.Generator.articulation in
      Ok (r.Generator.articulation, r.Generator.warnings)

(* Protocol debris in a directory: stray tmp files (torn writes) and
   sidecars whose payload is gone. *)
let stray_issues_in t part dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.filter_map (fun f ->
           let path = dir / f in
           if Atomic_io.is_tmp f then
             Some
               {
                 Health.part;
                 name = f;
                 file = rel_file t path;
                 kind = Health.Torn;
                 detail = "in-flight tmp file left by an interrupted write";
               }
           else if
             Durable_io.is_sidecar f
             && not (Sys.file_exists (dir / Durable_io.payload_of_sidecar f))
           then
             Some
               {
                 Health.part;
                 name = f;
                 file = rel_file t path;
                 kind = Health.Orphan_sidecar;
                 detail = "checksum sidecar without a payload";
               }
           else None)

(* Paged debris scan: tmp files and orphan sidecars like the flat
   backend, plus orphan segments — .seg/.idx files no manifest entry
   references, debris from a crash on either side of a manifest swap.
   All degrade health until fsck sweeps them, mirroring Torn. *)
let stray_issues_paged t =
  let entries = manifest_entries t in
  let referenced fp =
    List.exists
      (fun (e : Segment.entry) -> String.equal e.Segment.fp fp)
      entries
  in
  let segs = Segment.segments_dir t.root in
  let seg_issues =
    if not (Sys.file_exists segs) then []
    else
      Sys.readdir segs |> Array.to_list |> List.sort String.compare
      |> List.filter_map (fun f ->
             let path = segs / f in
             let issue kind detail =
               Some
                 {
                   Health.part = Health.Store;
                   name = f;
                   file = rel_file t path;
                   kind;
                   detail;
                 }
             in
             if Atomic_io.is_tmp f then
               issue Health.Torn
                 "in-flight tmp file left by an interrupted write"
             else if
               Durable_io.is_sidecar f
               && not (Sys.file_exists (segs / Durable_io.payload_of_sidecar f))
             then issue Health.Orphan_sidecar "checksum sidecar without a payload"
             else if
               (Segment.is_seg f || Segment.is_idx f)
               && not (referenced (Filename.remove_extension f))
             then
               issue Health.Orphan_segment
                 "segment no manifest entry references (interrupted publish)"
             else None)
  in
  let manifest_tmp =
    let dir = t.root and base = Filename.basename (Segment.manifest_path t.root) in
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.filter_map (fun f ->
           if
             Atomic_io.is_tmp f
             && String.length f >= String.length base
             && String.equal (String.sub f 0 (String.length base)) base
           then
             Some
               {
                 Health.part = Health.Store;
                 name = f;
                 file = rel_file t (dir / f);
                 kind = Health.Torn;
                 detail = "in-flight manifest swap left by a crash";
               }
           else None)
  in
  manifest_tmp @ seg_issues

let stray_issues t =
  match t.backend with
  | Flat ->
      stray_issues_in t Health.Source (sources_dir t)
      @ stray_issues_in t Health.Articulation (articulations_dir t)
  | Paged -> stray_issues_paged t

(* The health of the parts a space was built from. *)
let parts_health sources articulations issues =
  {
    Health.sources_ok = List.map Ontology.name sources;
    articulations_ok =
      List.sort String.compare (List.map Articulation.name articulations);
    issues;
  }

(* Whole-workspace health: the parts plus protocol debris on disk. *)
let health t =
  let sources, s_issues = load_sources t in
  let articulations, a_issues = load_articulations t in
  parts_health sources articulations (stray_issues t @ s_issues @ a_issues)

(* Content fingerprint of a directory: sorted file names, each with the
   MD5 of its bytes.  Content-based rather than mtime-based, so a file
   rewritten with identical contents still hits and a touch-only change
   never causes a stale answer. *)
let dir_fingerprint dir =
  if not (Sys.file_exists dir) then "<absent>"
  else
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.map (fun f ->
           let path = dir / f in
           let digest =
             try Digest.to_hex (Digest.file path) with Sys_error _ -> "?"
           in
           f ^ "=" ^ digest)
    |> String.concat ";"

let fingerprint t =
  match t.backend with
  | Flat ->
      dir_fingerprint (sources_dir t) ^ "|"
      ^ dir_fingerprint (articulations_dir t)
  | Paged -> (
      (* The manifest is the single commit point, so one small digest
         covers the whole workspace — no directory walk. *)
      match Segment.manifest_digest t.root with
      | Some d -> "paged:" ^ d
      | None -> "paged:<absent>")

(* The degraded federation: every healthy source and articulation serves;
   everything else it read is accounted for in the Health record.  Debris
   on disk (tmp files, orphan segments) is not a part the space reads, so
   it is left to {!health}, lint and fsck: a read overlapping a publish
   would otherwise report the publisher's in-flight files. *)
let compute_space t =
  let sources, s_issues = load_sources t in
  let articulations, a_issues = load_articulations t in
  let health = parts_health sources articulations (s_issues @ a_issues) in
  match Federation.of_parts ~sources ~articulations with
  | space -> Ok (space, health)
  | exception Invalid_argument m -> Error m

let served result = { ss_result = result; ss_env = Atomic.make None }

(* The full federation with its env slot.  Fingerprinting reads the disk
   and needs no lock; the memo check and any rebuild run under it, so
   concurrent domains missing on the same rollover compute the space
   once and all observe the same value. *)
let full_space t =
  if not (Cache_stats.enabled ()) then served (compute_space t)
  else
    let fp = fingerprint t in
    Mutex.protect t.memo_lock (fun () ->
        match t.space_memo with
        | Some (fp', s) when String.equal fp fp' -> s
        | _ ->
            let s = served (compute_space t) in
            t.space_memo <- Some (fp, s);
            s)

let space t = (full_space t).ss_result

(* ------------------------------------------------------------------ *)
(* Routed queries (paged backend)                                     *)
(* ------------------------------------------------------------------ *)

(* The ontology a bare query concept is qualified against.  Matches
   [Federation.primary_articulation] of the FULL space — the routed
   space restricts the federation, and the restriction must not change
   how the query text parses. *)
let default_ontology t =
  match List.rev (articulation_names t) with [] -> None | n :: _ -> Some n

(* The routed space for one articulation group: only the group's
   sources and articulations are decoded and merged.  Health carries the
   group's issues, so a reply still warns about what it serves — parts
   of OTHER groups are not read (that locality is the point of
   routing). *)
let compute_routed_space t group =
  let sources, s_issues =
    List.fold_left
      (fun (ss, is) (e : Segment.entry) ->
        match e.Segment.kind with
        | Segment.Articulation -> (ss, is)
        | Segment.Source -> (
            match classify_source ~entry:e t e.Segment.name with
            | Ok (o, warns) -> (ss @ [ o ], is @ warns)
            | Error issue -> (ss, is @ [ issue ])))
      ([], []) group
  in
  let articulations, a_issues =
    List.fold_left
      (fun (aa, is) (e : Segment.entry) ->
        match e.Segment.kind with
        | Segment.Source -> (aa, is)
        | Segment.Articulation -> (
            match classify_articulation ~entry:e t e.Segment.name with
            | Ok (a, warns) -> (aa @ [ a ], is @ warns)
            | Error issue -> (aa, is @ [ issue ])))
      ([], []) group
  in
  let health = parts_health sources articulations (s_issues @ a_issues) in
  match Federation.of_parts ~sources ~articulations with
  | space -> Ok (space, health)
  | exception Invalid_argument m -> Error m

(* One shard of the snapshot, decoded at most once per manifest digest
   and charged to the block-cache budget (approximate heap bytes).  A
   failed read is not cached, so a transient error is retried. *)
let shard_table t snap k =
  let key = shard_key t snap.rs_digest k in
  match Block_cache.find_opt block_cache key with
  | Some (Shard s) -> Ok s.table
  | Some (Part _) | None ->
      Cache_stats.record_plan "store.shard_decode";
      let* table = Segment.read_shard_table t.root k in
      if Cache_stats.enabled () then begin
        let bytes =
          Hashtbl.fold
            (fun label (l : Segment.shard_line) acc ->
              acc + String.length label + 96 + (56 * List.length l.Segment.sl_fps))
            table 0
        in
        Block_cache.insert block_cache ~group:t.root key (Shard { table; bytes })
      end;
      Ok table

(* The one group an anchor label routes to.  Only manifest-referenced
   fingerprints count: a shard updated by a publish that has not (or
   never) swapped its manifest must not route to orphan segments.  No
   owner, or owners in several groups, is a routing miss. *)
let route t snap anchor =
  match shard_table t snap (Segment.shard_of_label anchor) with
  | Error _ -> None
  | Ok table -> (
      match Hashtbl.find_opt table anchor with
      | None -> None
      | Some line -> (
          match
            List.filter_map
              (Hashtbl.find_opt snap.rs_group_of_fp)
              line.Segment.sl_fps
            |> List.sort_uniq String.compare
          with
          | [ rep ] -> Some rep
          | _ -> None))

(* A group's served space within one snapshot, built outside the lock
   (a duplicate build loses to the first insert, so every domain serves
   the same value).  A later publish may already have unlinked a segment
   this snapshot names: a build that hits an unreadable part while the
   manifest has moved on is neither cached nor served ([None]). *)
let group_space t snap rep =
  let cached () =
    if Cache_stats.enabled () then
      Mutex.protect snap.rs_lock (fun () -> Hashtbl.find_opt snap.rs_groups rep)
    else None
  in
  match cached () with
  | Some s -> Some s
  | None -> (
      let group =
        List.filter
          (fun (e : Segment.entry) ->
            Hashtbl.find_opt snap.rs_group_of_fp e.Segment.fp = Some rep)
          snap.rs_entries
      in
      let result = compute_routed_space t group in
      let unreadable =
        match result with
        | Ok (_, h) ->
            List.exists
              (fun (i : Health.issue) -> i.Health.kind = Health.Unreadable)
              h.Health.issues
        | Error _ -> true
      in
      if
        unreadable
        && Segment.manifest_digest t.root <> Some snap.rs_digest
      then None
      else if not (Cache_stats.enabled ()) then Some (served result)
      else
        Mutex.protect snap.rs_lock (fun () ->
            match Hashtbl.find_opt snap.rs_groups rep with
            | Some s -> Some s
            | None ->
                let s = served result in
                Hashtbl.replace snap.rs_groups rep s;
                Some s))

(* The space one query runs against, and the default ontology it
   parses under.  Flat: the full federation.  Paged: one manifest
   digest selects the snapshot, the anchor label routes through its
   shard to the one articulation group that can answer, and that
   group's space is served from memory.  Any routing miss (no snapshot,
   parse failure, unknown label, shards midway through a publish, a
   label spanning groups, a snapshot retired under the build) falls
   back to the full space — routing is an optimisation, never a
   filter. *)
let resolve t text =
  match t.backend with
  | Flat -> (full_space t, default_ontology t)
  | Paged ->
      let rec attempt retries =
        match snapshot t with
        | Error _ -> (full_space t, None)
        | Ok snap -> (
            let default = snap.rs_default in
            let rep =
              match Query.parse ?default_ontology:default text with
              | Error _ -> None
              | Ok q -> route t snap (Term.qualified q.Query.concept)
            in
            match Option.map (group_space t snap) rep with
            | Some (Some s) -> (s, default)
            | Some None when retries > 0 -> attempt (retries - 1)
            | Some None | None -> (full_space t, default))
      in
      attempt 2

let query_space t text = (fst (resolve t text)).ss_result

type served = {
  env : Mediator.env;
  health : Health.t;
  default_ontology : string option;
}

let env_of_space (space : Federation.t) =
  let kbs =
    List.map
      (fun o -> Kb.of_ontology_instances ~ontology:o ("kb-" ^ Ontology.name o))
      space.Federation.sources
  in
  Mediator.env_federated ~kbs ~space ()

let query_env t text =
  let s, default_ontology = resolve t text in
  match s.ss_result with
  | Error m -> Error m
  | Ok (space, health) ->
      let env =
        match Atomic.get s.ss_env with
        | Some env -> env
        | None ->
            let env = env_of_space space in
            if Atomic.compare_and_set s.ss_env None (Some env) then env
            else Option.value ~default:env (Atomic.get s.ss_env)
      in
      Ok { env; health; default_ontology }

let resident_envs t =
  let has s = Option.is_some (Atomic.get s.ss_env) in
  let routed =
    match Atomic.get t.route with
    | None -> 0
    | Some snap ->
        Mutex.protect snap.rs_lock (fun () ->
            Hashtbl.fold
              (fun _ s n -> if has s then n + 1 else n)
              snap.rs_groups 0)
  in
  let full =
    Mutex.protect t.memo_lock (fun () ->
        match t.space_memo with Some (_, s) when has s -> 1 | _ -> 0)
  in
  routed + full

let stale_bridges t =
  let sources, _ = load_sources t in
  let articulations, _ = load_articulations t in
  let has_term onto_name term =
    match List.find_opt (fun o -> Ontology.name o = onto_name) sources with
    | Some o -> Ontology.has_term o term
    | None -> true (* not a workspace source: cannot judge *)
  in
  Ok
    (List.concat_map
       (fun a ->
         let art_name = Articulation.name a in
         Articulation.bridges a
         |> List.filter (fun (b : Bridge.t) ->
                let endpoint_stale (term : Term.t) =
                  (not (String.equal term.Term.ontology art_name))
                  && not (has_term term.Term.ontology term.Term.name)
                in
                endpoint_stale b.Bridge.src || endpoint_stale b.Bridge.dst)
         |> List.map (fun b -> (art_name, b)))
       articulations)

(* ------------------------------------------------------------------ *)
(* lint                                                               *)
(* ------------------------------------------------------------------ *)

(* Storage-layer findings enter the same diagnostic stream as the
   analysis passes, under the "io" pass. *)
let io_diagnostic (i : Health.issue) =
  let code =
    match i.Health.kind with
    | Health.Torn -> "torn-write"
    | Health.Unreadable -> "unreadable"
    | Health.Unparseable -> "unparseable"
    | Health.Checksum_mismatch -> "checksum-mismatch"
    | Health.Orphan_sidecar -> "orphan-sidecar"
    | Health.Orphan_segment -> "orphan-segment"
    | Health.Breaker_open -> "breaker-open"
  in
  Diagnostic.v ~file:i.Health.file ~subject:i.Health.name ~code ~pass:"io"
    i.Health.detail

(* The lint view keeps the raw file texts alongside the parsed parts so
   the analysis passes can recover line/column spans. *)
let read_text path =
  match Durable_io.read ~path with Ok c -> Some c | Error _ -> None

(* ------------------------------------------------------------------ *)
(* edit                                                               *)
(* ------------------------------------------------------------------ *)

(* Apply a transformation stream to one registered source: load, apply,
   re-serialize in the file's own format, write through the durable
   path (flat) or publish a fresh segment (paged).  Alongside the write
   it maintains the incremental machinery: the pre-state label index is
   patched in O(|delta|) when warm, and the (fingerprint-before,
   fingerprint-after, delta) chain is recorded so the next [lint] can
   take the delta-driven path instead of re-reading the world. *)
let edit t ~source ops =
  Mutex.lock t.memo_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.memo_lock)
    (fun () ->
      let fp_before = fingerprint t in
      (* Does the incremental chain reach the bytes currently on disk? *)
      let chain =
        match (t.lint_memo, t.pending_edits) with
        | Some (fp_memo, ls), None when String.equal fp_memo fp_before ->
            Some (fp_memo, ls, [])
        | Some (fp_memo, ls), Some p
          when String.equal p.p_from fp_memo && String.equal p.p_to fp_before
          ->
            Some (fp_memo, ls, p.p_changes)
        | _ -> None
      in
      (* The base ontology: continue from the chained in-memory value
         when the chain holds (unchanged parts must stay physically the
         memoized values), else re-load from disk. *)
      let base =
        match chain with
        | None -> None
        | Some (_, ls, changes) -> (
            match
              List.find_opt (fun c -> String.equal c.ec_name source) changes
            with
            | Some c -> Some (c.ec_ontology, Some c)
            | None ->
                Option.map
                  (fun (s : Lint.source) -> (s.Lint.ontology, None))
                  (List.find_opt
                     (fun (s : Lint.source) ->
                       String.equal (Ontology.name s.Lint.ontology) source)
                     ls.ls_view.Lint.sources))
      in
      let* o, prev_change, chained =
        match base with
        | Some (o, c) -> Ok (o, c, true)
        | None ->
            let* o = load_source t source in
            Ok (o, None, false)
      in
      let* target =
        match t.backend with
        | Flat -> (
            match source_file t source with
            | Some path -> Ok (`Flat path)
            | None -> Error (Printf.sprintf "no source named %s" source))
        | Paged -> (
            match paged_entry t Segment.Source source with
            | Some e -> Ok (`Paged e.Segment.ext)
            | None -> Error (Printf.sprintf "no source named %s" source))
      in
      let ext =
        match target with `Flat path -> ext_of_path path | `Paged ext -> ext
      in
      let* post, delta =
        match Delta.of_ops (Ontology.graph o) ops with
        | r -> Ok r
        | exception Invalid_argument m -> Error m
      in
      let o' = Ontology.with_graph o post in
      let* payload =
        match
          Loader.save_string ?format:(Loader.format_of_path ("f" ^ ext)) o'
        with
        | Ok p -> Ok p
        | Error m -> Error (Printf.sprintf "source %s: %s" source m)
      in
      let* () =
        match target with
        | `Flat path -> Durable_io.write ~path payload
        | `Paged _ ->
            paged_publish t ~add:[ stage_source o' ~ext ~payload ] ~remove:[]
      in
      (* Keep the label index warm across the edit: the first edit of a
         chain builds the pre-state index (one full O(N+E) pass), every
         later one patches forward in O(|delta|) — so the feasibility
         scans never pay a rebuild after an edit, and the matcher may
         seed from its label buckets. *)
      if Cache_stats.enabled () then
        ignore
          (Label_index.update (Label_index.of_graph (Ontology.graph o)) delta
             post);
      (match chain with
      | Some (fp_memo, _, changes) when chained ->
          let fp_after = fingerprint t in
          let file =
            match target with
            | `Flat path -> Some (rel_file t path)
            | `Paged ext -> Some ("sources/" ^ source ^ ext)
          in
          let change =
            match prev_change with
            | Some c ->
                {
                  c with
                  ec_delta = Delta.union c.ec_delta delta;
                  ec_ontology = o';
                  ec_payload = payload;
                }
            | None ->
                {
                  ec_name = source;
                  ec_delta = delta;
                  ec_ontology = o';
                  ec_payload = payload;
                  ec_file = file;
                }
          in
          let changes =
            change
            :: List.filter
                 (fun c -> not (String.equal c.ec_name source))
                 changes
          in
          t.pending_edits <-
            Some { p_from = fp_memo; p_to = fp_after; p_changes = changes }
      | _ -> t.pending_edits <- None);
      Ok delta)

(* Lint is the offline full scan: it bypasses the circuit breakers so
   the ground-truth failure is always reported, and instead surfaces any
   breaker that the serving path has opened as its own diagnostic. *)
let compute_lint ~conversions ?enabled t =
  let sources, s_diags =
    List.fold_left
      (fun (ss, ds) name ->
        match classify_source_raw t name with
        | Error issue -> (ss, ds @ [ issue ])
        | Ok (o, warns) ->
            let file, text =
              match t.backend with
              | Flat ->
                  let path = source_file t name in
                  (Option.map (rel_file t) path, Option.bind path read_text)
              | Paged ->
                  let e = paged_entry t Segment.Source name in
                  (Option.map logical_file e, Option.bind e (paged_text t))
            in
            (ss @ [ Lint.source ?file ?text o ], ds @ warns))
      ([], []) (source_names t)
  in
  let articulations, a_diags =
    List.fold_left
      (fun (aa, ds) name ->
        match classify_articulation_raw t name with
        | Error issue -> (aa, ds @ [ issue ])
        | Ok (a, warns) ->
            let file, text =
              match t.backend with
              | Flat ->
                  let path = articulation_file t name in
                  (Some (rel_file t path), read_text path)
              | Paged ->
                  let e = paged_entry t Segment.Articulation name in
                  (Option.map logical_file e, Option.bind e (paged_text t))
            in
            (aa @ [ Lint.articulation ?file ?text a ], ds @ warns))
      ([], [])
      (articulation_names t)
  in
  let view = Lint.view ~conversions ~articulations sources in
  let report = Lint.run ?enabled view in
  let breaker_diags =
    List.filter_map
      (fun (b : Breaker.info) ->
        match b.Breaker.info_state with
        | Breaker.Open | Breaker.Half_open ->
            Some
              (Diagnostic.v ~subject:b.Breaker.name ~code:"breaker-open"
                 ~pass:"io"
                 (Breaker.skip_detail t.breaker b.Breaker.name))
        | Breaker.Closed -> None)
      (Breaker.snapshot t.breaker)
  in
  let io_diags =
    List.map io_diagnostic (stray_issues t @ s_diags @ a_diags)
    @ breaker_diags
  in
  let full =
    {
      report with
      Lint.diagnostics =
        List.stable_sort Diagnostic.order (io_diags @ report.Lint.diagnostics);
    }
  in
  (view, io_diags, full)

(* The delta-driven re-lint: substitute the edited ontologies into the
   memoized view (everything else stays physically the previous value,
   so its revision-keyed memo entries still answer), hand Lint the
   summarized delta for impact analysis, and splice the storage-layer
   diagnostics — the edited files were just rewritten by us, clean and
   stamped, so their previous io findings are dropped and the rest
   (whose files did not change) carried over. *)
let incremental_lint ?enabled (ls : lint_state) (p : pending) =
  let changed = List.map (fun c -> c.ec_name) p.p_changes in
  let delta =
    List.fold_left
      (fun acc c -> Delta.union acc c.ec_delta)
      Delta.empty p.p_changes
  in
  let sources =
    List.map
      (fun (s : Lint.source) ->
        match
          List.find_opt
            (fun c -> String.equal c.ec_name (Ontology.name s.Lint.ontology))
            p.p_changes
        with
        | Some c -> Lint.source ?file:c.ec_file ~text:c.ec_payload c.ec_ontology
        | None -> s)
      ls.ls_view.Lint.sources
  in
  let view = { ls.ls_view with Lint.sources } in
  let report = Lint.lint_incremental ?enabled ~delta ~changed view in
  let changed_files = List.filter_map (fun c -> c.ec_file) p.p_changes in
  let io =
    List.filter
      (fun (d : Diagnostic.t) ->
        match d.Diagnostic.file with
        | Some f -> not (List.mem f changed_files)
        | None -> true)
      ls.ls_io
  in
  let full =
    {
      report with
      Lint.diagnostics =
        List.stable_sort Diagnostic.order (io @ report.Lint.diagnostics);
    }
  in
  (view, io, full)

let lint ?(conversions = Conversion.builtin) ?enabled t =
  (* The memo key is the file fingerprint only, so it is valid only for
     the default registry; a custom registry bypasses it. *)
  if (not (Cache_stats.enabled ())) || conversions != Conversion.builtin then
    let _, _, report = compute_lint ~conversions ?enabled t in
    report
  else begin
    let fp = fingerprint t in
    let cfg = Lint.config_fingerprint enabled in
    Mutex.lock t.memo_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.memo_lock)
      (fun () ->
        let store (view, io, report) =
          t.lint_memo <-
            Some (fp, { ls_cfg = cfg; ls_view = view; ls_io = io;
                        ls_report = report });
          t.pending_edits <- None;
          report
        in
        match (t.lint_memo, t.pending_edits) with
        | Some (fp', ls), _
          when String.equal fp fp' && String.equal ls.ls_cfg cfg ->
            ls.ls_report
        | Some (fp_memo, ls), Some p
          when String.equal p.p_from fp_memo
               && String.equal p.p_to fp
               && String.equal ls.ls_cfg cfg ->
            store (incremental_lint ?enabled ls p)
        | _ -> store (compute_lint ~conversions ?enabled t))
  end

(* ------------------------------------------------------------------ *)
(* fsck                                                               *)
(* ------------------------------------------------------------------ *)

type repair =
  | Quarantined of { file : string; to_ : string; reason : string }
  | Restamped of { file : string; reason : string }
  | Removed_orphan of { file : string }
  | Removed_orphan_segment of { file : string }
  | Rebuilt_index of { file : string }
  | Rebuilt_manifest of { reason : string }

type fsck_report = { repairs : repair list; health : Health.t }

let pp_repair ppf = function
  | Quarantined { file; to_; reason } ->
      Format.fprintf ppf "quarantined %s -> %s (%s)" file to_ reason
  | Restamped { file; reason } ->
      Format.fprintf ppf "re-stamped %s (%s)" file reason
  | Removed_orphan { file } ->
      Format.fprintf ppf "removed orphan sidecar %s" file
  | Removed_orphan_segment { file } ->
      Format.fprintf ppf "removed orphan segment %s" file
  | Rebuilt_index { file } ->
      Format.fprintf ppf "rebuilt segment index %s" file
  | Rebuilt_manifest { reason } ->
      Format.fprintf ppf "rebuilt manifest (%s)" reason

let pp_fsck_report ppf r =
  Format.fprintf ppf "@[<v>";
  if r.repairs = [] then Format.fprintf ppf "nothing to repair@,"
  else
    List.iter (fun a -> Format.fprintf ppf "%a@," pp_repair a) r.repairs;
  Format.fprintf ppf "%a@]" Health.pp r.health

(* Move a file into <root>/quarantine, never overwriting earlier
   evidence. *)
let quarantine t path =
  mkdir_if_missing (quarantine_dir t);
  let base = Filename.basename path in
  let rec dest i =
    let candidate =
      if i = 0 then quarantine_dir t / base
      else quarantine_dir t / (base ^ "." ^ string_of_int i)
    in
    if Sys.file_exists candidate then dest (i + 1) else candidate
  in
  let d = dest 0 in
  match Sys.rename path d with
  | () -> Ok d
  | exception Sys_error m -> Error m

let quarantine_with_sidecar t path ~reason repairs =
  let repairs =
    match quarantine t path with
    | Ok d ->
        Quarantined { file = rel_file t path; to_ = rel_file t d; reason }
        :: repairs
    | Error _ -> repairs
  in
  let sc = Durable_io.sidecar_path path in
  if Sys.file_exists sc then
    match quarantine t sc with
    | Ok d ->
        Quarantined
          { file = rel_file t sc; to_ = rel_file t d; reason = "sidecar of " ^ Filename.basename path }
        :: repairs
    | Error _ -> repairs
  else repairs

let fsck_dir t part dir parse repairs =
  if not (Sys.file_exists dir) then repairs
  else begin
    let files = Sys.readdir dir |> Array.to_list |> List.sort String.compare in
    (* 1. Torn writes: stray tmp files are quarantined as evidence. *)
    let repairs =
      List.fold_left
        (fun repairs f ->
          let path = dir / f in
          if Atomic_io.is_tmp f then
            match quarantine t path with
            | Ok d ->
                Quarantined
                  {
                    file = rel_file t path;
                    to_ = rel_file t d;
                    reason = "torn write (crash before rename)";
                  }
                :: repairs
            | Error _ -> repairs
          else repairs)
        repairs files
    in
    (* 2. Orphan sidecars. *)
    let repairs =
      List.fold_left
        (fun repairs f ->
          let path = dir / f in
          if
            Durable_io.is_sidecar f
            && not (Sys.file_exists (dir / Durable_io.payload_of_sidecar f))
          then
            match Atomic_io.remove path with
            | () -> Removed_orphan { file = rel_file t path } :: repairs
            | exception Sys_error _ -> repairs
          else repairs)
        repairs files
    in
    ignore part;
    (* 3. Payloads: unparseable files are quarantined; parseable files
       whose stamp is stale or missing are re-stamped. *)
    List.fold_left
      (fun repairs f ->
        let path = dir / f in
        if Atomic_io.is_tmp f || Durable_io.is_sidecar f || not (Sys.file_exists path)
        then repairs
        else
          match Durable_io.read_verified ~path with
          | Error m ->
              quarantine_with_sidecar t path ~reason:("unreadable: " ^ m) repairs
          | Ok (content, verdict) -> (
              match parse ~file:f content with
              | Error m ->
                  quarantine_with_sidecar t path ~reason:("unparseable: " ^ m)
                    repairs
              | Ok () -> (
                  match verdict with
                  | Durable_io.Verified -> repairs
                  | Durable_io.Unstamped -> (
                      match Durable_io.stamp path with
                      | Ok () ->
                          Restamped
                            { file = rel_file t path; reason = "no stamp: adopted" }
                          :: repairs
                      | Error _ -> repairs)
                  | Durable_io.Mismatch _ -> (
                      match Durable_io.stamp path with
                      | Ok () ->
                          Restamped
                            {
                              file = rel_file t path;
                              reason = "stale stamp: accepted external edit";
                            }
                          :: repairs
                      | Error _ -> repairs))))
      repairs files
  end

(* Paged fsck.  One deliberate difference from the flat backend: a
   segment whose bytes no longer hash to its manifest fingerprint is
   QUARANTINED, not re-stamped — the fingerprint is the name, so
   "accepting the edit" would be filing corrupt bytes under a name that
   promises different content.  Conversely a segment whose bytes DO
   match its fingerprint is authentic whatever the CRC sidecar says, so
   a stale or missing sidecar is re-stamped. *)
let fsck_paged t =
  let repairs = ref [] in
  let push r = repairs := r :: !repairs in
  let segs = Segment.segments_dir t.root in
  mkdir_if_missing segs;
  (* 1. Torn writes: stray tmp files (root-level manifest swaps and
     segment publishes) are quarantined as evidence. *)
  let sweep_tmp dir =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.iter (fun f ->
           let path = dir / f in
           if Atomic_io.is_tmp f && Sys.file_exists path then
             match quarantine t path with
             | Ok d ->
                 push
                   (Quarantined
                      {
                        file = rel_file t path;
                        to_ = rel_file t d;
                        reason = "torn write (crash before rename)";
                      })
             | Error _ -> ())
  in
  sweep_tmp t.root;
  sweep_tmp segs;
  (* 2. Orphan sidecars. *)
  Sys.readdir segs |> Array.to_list |> List.sort String.compare
  |> List.iter (fun f ->
         if
           Durable_io.is_sidecar f
           && not (Sys.file_exists (segs / Durable_io.payload_of_sidecar f))
         then
           match Atomic_io.remove (segs / f) with
           | () -> push (Removed_orphan { file = rel_file t (segs / f) })
           | exception Sys_error _ -> ());
  (* 2b. Routing shards that fail their stamp or no longer decode are
     quarantined; any repair triggers the shard rebuild in step 6,
     which rewrites them from the per-segment indexes. *)
  for k = 0 to Segment.shards - 1 do
    let path = Segment.shard_path t.root k in
    if Sys.file_exists path then
      let reason =
        match Durable_io.verify_file ~path () with
        | Error m -> Some ("unreadable routing shard: " ^ m)
        | Ok (Durable_io.Mismatch _) -> Some "routing shard fails its checksum"
        | Ok (Durable_io.Verified | Durable_io.Unstamped) -> (
            match Segment.read_shard t.root k with
            | Error m -> Some ("undecodable routing shard: " ^ m)
            | Ok _ -> None)
      in
      Option.iter
        (fun reason ->
          List.iter push (List.rev (quarantine_with_sidecar t path ~reason [])))
        reason
  done;
  (* 3. The manifest itself: unreadable or missing means reconstructing
     the name map from the decodable segments on disk (first fingerprint
     wins on a duplicate name — crash debris can leave two). *)
  let entries0, manifest_rebuilt =
    match Segment.read_manifest t.root with
    | Ok entries -> (entries, false)
    | Error m ->
        let entries =
          Sys.readdir segs |> Array.to_list |> List.sort String.compare
          |> List.filter_map (fun f ->
                 if not (Segment.is_seg f) then None
                 else
                   let fp = Filename.remove_extension f in
                   match Segment.read_segment t.root fp with
                   | Ok (Ok (kind, name, ext, payload), _) ->
                       let links =
                         match kind with
                         | Segment.Source -> []
                         | Segment.Articulation -> (
                             match Articulation_io.of_string payload with
                             | Ok a -> articulation_links a
                             | Error _ -> [])
                       in
                       Some { Segment.kind; name; ext; fp; links }
                   | _ -> None)
          |> List.fold_left
               (fun acc (e : Segment.entry) ->
                 if
                   List.exists
                     (fun (e' : Segment.entry) ->
                       e'.Segment.kind = e.Segment.kind
                       && String.equal e'.Segment.name e.Segment.name)
                     acc
                 then acc
                 else e :: acc)
               []
          |> List.rev
        in
        push (Rebuilt_manifest { reason = "manifest unreadable: " ^ m });
        (entries, true)
  in
  (* 4. Every referenced segment: authentic (bytes hash to the
     fingerprint), decodable, parseable, and indexed — or quarantined
     and dropped from the manifest. *)
  let drop_entry (e : Segment.entry) reason =
    let seg = Segment.seg_path t.root e.Segment.fp in
    List.iter push (List.rev (quarantine_with_sidecar t seg ~reason []));
    let idx = Segment.idx_path t.root e.Segment.fp in
    if Sys.file_exists idx then
      List.iter push
        (List.rev
           (quarantine_with_sidecar t idx
              ~reason:("index of " ^ Filename.basename seg)
              []))
  in
  let keep =
    List.filter
      (fun (e : Segment.entry) ->
        let seg = Segment.seg_path t.root e.Segment.fp in
        let verdict =
          match Durable_io.verify_file ~path:seg () with
          | Error m -> Error ("unreadable: " ^ m)
          | Ok v -> (
              match Digest.to_hex (Digest.file seg) with
              | exception Sys_error m -> Error ("unreadable: " ^ m)
              | actual when not (String.equal actual e.Segment.fp) ->
                  Error
                    (Printf.sprintf
                       "content digest %s does not match fingerprint" actual)
              | _ -> Ok v)
        in
        match verdict with
        | Error reason ->
            drop_entry e reason;
            false
        | Ok v -> (
            (match v with
            | Durable_io.Verified -> ()
            | Durable_io.Unstamped -> (
                match Durable_io.stamp seg with
                | Ok () ->
                    push
                      (Restamped
                         { file = rel_file t seg; reason = "no stamp: adopted" })
                | Error _ -> ())
            | Durable_io.Mismatch _ -> (
                match Durable_io.stamp seg with
                | Ok () ->
                    push
                      (Restamped
                         {
                           file = rel_file t seg;
                           reason = "stale stamp: fingerprint authenticates payload";
                         })
                | Error _ -> ()));
            match Segment.read_segment t.root e.Segment.fp with
            | Error m ->
                drop_entry e ("unreadable: " ^ m);
                false
            | Ok (Error m, _) ->
                drop_entry e ("unparseable: " ^ m);
                false
            | Ok (Ok (kind, name, _ext, payload), _) ->
                if
                  kind <> e.Segment.kind
                  || not (String.equal name e.Segment.name)
                then begin
                  drop_entry e "segment header disagrees with the manifest";
                  false
                end
                else
                  let parsed =
                    match kind with
                    | Segment.Source -> (
                        let format =
                          Loader.format_of_path ("f" ^ e.Segment.ext)
                        in
                        match Loader.load_string ?format ~name payload with
                        | Ok o -> Ok (Segment.index_of_source o)
                        | Error m -> Error m)
                    | Segment.Articulation -> (
                        match Articulation_io.of_string payload with
                        | Ok a -> Ok (Segment.index_of_articulation a)
                        | Error m -> Error m)
                  in
                  (match parsed with
                  | Error m ->
                      drop_entry e ("unparseable: " ^ m);
                      false
                  | Ok fresh_idx -> (
                      (match Segment.read_index t.root e.Segment.fp with
                      | Ok _ -> ()
                      | Error _ -> (
                          match
                            Segment.write_index t.root e.Segment.fp fresh_idx
                          with
                          | Ok () ->
                              push
                                (Rebuilt_index
                                   {
                                     file =
                                       rel_file t
                                         (Segment.idx_path t.root e.Segment.fp);
                                   })
                          | Error _ -> ()));
                      true))))
      entries0
  in
  (* 5. Orphan segments: .seg/.idx files no surviving entry references —
     debris from a crash on either side of a manifest swap. *)
  let referenced fp =
    List.exists (fun (e : Segment.entry) -> String.equal e.Segment.fp fp) keep
  in
  Sys.readdir segs |> Array.to_list |> List.sort String.compare
  |> List.iter (fun f ->
         if
           (Segment.is_seg f || Segment.is_idx f)
           && (not (referenced (Filename.remove_extension f)))
           && Sys.file_exists (segs / f)
         then
           match Durable_io.remove ~path:(segs / f) with
           | Ok () ->
               push (Removed_orphan_segment { file = rel_file t (segs / f) })
           | Error _ -> ());
  (* 6. Re-publish the manifest when its entry set changed, and rebuild
     the routing shards from the survivors whenever anything was
     repaired (stale shard references would otherwise linger until the
     next publish). *)
  let dropped = List.length entries0 - List.length keep in
  if manifest_rebuilt || dropped > 0 then begin
    match Segment.write_manifest t.root keep with
    | Ok () ->
        if (not manifest_rebuilt) && dropped > 0 then
          push
            (Rebuilt_manifest
               {
                 reason =
                   Printf.sprintf "dropped %d quarantined entr%s" dropped
                     (if dropped = 1 then "y" else "ies");
               })
    | Error _ -> ()
  end;
  if !repairs <> [] then ignore (Segment.rebuild_shards t.root keep);
  List.rev !repairs

let fsck t =
  let repairs =
    match t.backend with
    | Paged -> fsck_paged t
    | Flat ->
        let parse_source ~file content =
          let format = Loader.format_of_path file in
          match
            Loader.load_string ?format ~name:(Filename.remove_extension file)
              content
          with
          | Ok _ -> Ok ()
          | Error m -> Error m
        in
        let parse_articulation ~file:_ content =
          match Articulation_io.of_string content with
          | Ok _ -> Ok ()
          | Error m -> Error m
        in
        []
        |> fsck_dir t Health.Source (sources_dir t) parse_source
        |> fsck_dir t Health.Articulation (articulations_dir t)
             parse_articulation
        |> List.rev
  in
  (* Anything repaired invalidates every derived result: the space memo
     is fingerprint-keyed (so already safe), but the global result caches
     may hold entries computed from pre-repair revisions of ontologies
     that no longer exist on disk. *)
  if repairs <> [] then begin
    Cache_stats.clear_all ();
    Mutex.lock t.memo_lock;
    t.space_memo <- None;
    t.lint_memo <- None;
    t.pending_edits <- None;
    Mutex.unlock t.memo_lock;
    drop_route t;
    (* Decoded segments of quarantined fingerprints, and shards decoded
       before the rebuild, must not keep serving from the block
       cache. *)
    Block_cache.remove_group block_cache t.root;
    (* Repaired files deserve a fresh chance: open circuits would skip
       the very loads the repair just fixed. *)
    Breaker.reset t.breaker
  end;
  { repairs; health = health t }

(* ------------------------------------------------------------------ *)
(* status                                                             *)
(* ------------------------------------------------------------------ *)

let status t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "workspace %s\n" t.root);
  Buffer.add_string buf "sources:\n";
  List.iter
    (fun name ->
      match load_source t name with
      | Ok o ->
          Buffer.add_string buf
            (Printf.sprintf "  %-20s %4d terms, %4d relationships\n" name
               (Ontology.nb_terms o)
               (Ontology.nb_relationships o))
      | Error m -> Buffer.add_string buf (Printf.sprintf "  %-20s ERROR: %s\n" name m))
    (source_names t);
  Buffer.add_string buf "articulations:\n";
  List.iter
    (fun name ->
      match load_articulation t name with
      | Ok a ->
          Buffer.add_string buf
            (Printf.sprintf "  %-20s %s <-> %s, %d bridges\n" name
               (Articulation.left a) (Articulation.right a)
               (Articulation.nb_bridges a))
      | Error m -> Buffer.add_string buf (Printf.sprintf "  %-20s ERROR: %s\n" name m))
    (articulation_names t);
  (match stale_bridges t with
  | Ok [] -> ()
  | Ok stale ->
      Buffer.add_string buf
        (Printf.sprintf "stale bridges (%d) — source terms vanished:\n"
           (List.length stale));
      List.iter
        (fun (art, b) ->
          Buffer.add_string buf (Format.asprintf "  [%s] %a\n" art Bridge.pp b))
        stale
  | Error m -> Buffer.add_string buf (Printf.sprintf "stale check failed: %s\n" m));
  Buffer.add_string buf (Format.asprintf "%a\n" Health.pp (health t));
  Buffer.contents buf
