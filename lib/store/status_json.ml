let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = "\"" ^ escape s ^ "\""

let arr items = "[" ^ String.concat ", " items ^ "]"

let obj fields =
  "{ "
  ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields)
  ^ " }"

let string_of_part = function
  | Health.Source -> "source"
  | Health.Articulation -> "articulation"
  | Health.Store -> "store"

let issue (i : Health.issue) =
  obj
    [
      ("part", str (string_of_part i.Health.part));
      ("name", str i.Health.name);
      ("file", str i.Health.file);
      ("kind", str (Health.string_of_kind i.Health.kind));
      ( "severity",
        str (if Health.is_failure i then "failure" else "warning") );
      ("detail", str i.Health.detail);
    ]

let health_obj (h : Health.t) =
  obj
    [
      ("ok", string_of_bool (Health.ok h));
      ("degraded", string_of_bool (Health.degraded h));
      ("sources_ok", arr (List.map str h.Health.sources_ok));
      ("articulations_ok", arr (List.map str h.Health.articulations_ok));
      ("issues", arr (List.map issue h.Health.issues));
    ]

let health h = health_obj h ^ "\n"

let workspace ws =
  let sources =
    List.map
      (fun name ->
        match Workspace.load_source ws name with
        | Ok o ->
            obj
              [
                ("name", str name);
                ("terms", string_of_int (Ontology.nb_terms o));
                ("relationships", string_of_int (Ontology.nb_relationships o));
              ]
        | Error m -> obj [ ("name", str name); ("error", str m) ])
      (Workspace.source_names ws)
  in
  let articulations =
    List.map
      (fun name ->
        match Workspace.load_articulation ws name with
        | Ok a ->
            obj
              [
                ("name", str name);
                ("left", str (Articulation.left a));
                ("right", str (Articulation.right a));
                ("bridges", string_of_int (Articulation.nb_bridges a));
              ]
        | Error m -> obj [ ("name", str name); ("error", str m) ])
      (Workspace.articulation_names ws)
  in
  let stale =
    match Workspace.stale_bridges ws with
    | Error m -> [ obj [ ("error", str m) ] ]
    | Ok stale ->
        List.map
          (fun (art, b) ->
            obj
              [
                ("articulation", str art);
                ("bridge", str (Format.asprintf "%a" Bridge.pp b));
              ])
          stale
  in
  let lint_summary =
    let report = Workspace.lint ws in
    let ds =
      Diagnostic.apply_config Diagnostic.default_config
        report.Lint.diagnostics
    in
    obj
      [
        ("errors", string_of_int (List.length (Diagnostic.errors ds)));
        ("warnings", string_of_int (List.length (Diagnostic.warnings ds)));
        ("exit_code", string_of_int (Diagnostic.exit_code ds));
      ]
  in
  (* No process-level counters here: status is a pure function of the
     workspace (the daemon's concurrent soak asserts replies bit-for-bit
     equal), so the plan counters (fan-out, store and delta decisions)
     are reported by the daemon's stats op instead, next to the cache
     counters.
     Breaker entries only exist once a load has failed, and their fields
     carry no live countdowns, so an unchanging workspace keeps an
     unchanging status body. *)
  (* Pure workspace facts only (like everything else in this body):
     the block-cache counters are process state and live in the daemon's
     stats op. *)
  let store_obj =
    if not (Workspace.is_paged ws) then obj [ ("backend", str "flat") ]
    else
      let root = Workspace.root ws in
      let entries =
        match Segment.read_manifest root with Ok e -> e | Error _ -> []
      in
      let count k =
        List.length
          (List.filter (fun (e : Segment.entry) -> e.Segment.kind = k) entries)
      in
      let shard_files =
        let dir = Segment.segments_dir root in
        if Sys.file_exists dir then
          Array.fold_left
            (fun n f -> if Segment.is_shard f then n + 1 else n)
            0 (Sys.readdir dir)
        else 0
      in
      obj
        [
          ("backend", str "paged");
          ("segments", string_of_int (List.length entries));
          ("source_segments", string_of_int (count Segment.Source));
          ("articulation_segments", string_of_int (count Segment.Articulation));
          ("shards", string_of_int shard_files);
        ]
  in
  let breaker (b : Breaker.info) =
    obj
      [
        ("name", str b.Breaker.name);
        ("state", str (Breaker.string_of_state b.Breaker.info_state));
        ("failures", string_of_int b.Breaker.info_failures);
        ("cooldown_ms", string_of_int b.Breaker.info_cooldown_ms);
        ("detail", str b.Breaker.info_detail);
      ]
  in
  obj
    [
      ("workspace", str (Workspace.root ws));
      ("store", store_obj);
      ("sources", arr sources);
      ("articulations", arr articulations);
      ("stale_bridges", arr stale);
      ("lint", lint_summary);
      ("breakers", arr (List.map breaker (Workspace.breakers ws)));
      ("health", health_obj (Workspace.health ws));
    ]
  ^ "\n"
