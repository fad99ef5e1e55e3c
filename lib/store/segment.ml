(* Content-fingerprinted immutable segments, the manifest that names
   them, per-segment label indexes, and the label-hash routing shards.

   On-disk layout under a paged workspace root:

     <root>/onion.workspace          flat-format marker (shared)
     <root>/onion.paged              paged-backend marker
     <root>/manifest                 name -> segment fingerprint map
     <root>/segments/<fp>.seg        immutable segment (header + payload)
     <root>/segments/<fp>.idx        per-segment label index
     <root>/segments/labels.<k>.shard  routing shard k of SHARDS

   Every file goes through Durable_io (atomic publish + CRC sidecar), so
   the crash matrix and fsck semantics from the flat backend carry over.
   A segment file is never rewritten: its name IS the MD5 of its bytes,
   so replacing a source publishes a new fingerprint and the manifest
   swap is the single atomic commit point.  Stale segments left by a
   crash between segment write and manifest swap are orphans; fsck
   removes them.

   The manifest carries, per articulation entry, the names of every
   ontology its bridges touch ("links").  Group assignment (weakly
   connected components of the source/articulation link graph) is
   recomputed from those links on load — never stored — so it cannot go
   stale.  A routed query loads only the segments of its anchor's group. *)

type kind = Source | Articulation

type entry = {
  kind : kind;
  name : string;
  ext : string;  (* original loader extension, e.g. ".adj"; "" for none *)
  fp : string;  (* hex MD5 of the segment file's bytes *)
  links : string list;  (* articulations: bridged ontology names *)
}

type index = {
  idx_nodes : string list;  (* qualified node labels, sorted *)
  idx_edges : (string * int) list;  (* edge label -> count, sorted *)
  idx_parents : (string * string) list;
      (* direct SubclassOf pairs (child, parent), qualified: the
         persisted form of the subclass closure — the transitive closure
         is rebuilt per group on load, which is cheap at group size and
         cannot go stale. *)
}

let ( / ) = Filename.concat

let paged_marker = "onion.paged"
let paged_marker_content = "onion paged workspace, format 1\n"

let segments_dir root = root / "segments"
let manifest_path root = root / "manifest"
let seg_path root fp = segments_dir root / (fp ^ ".seg")
let idx_path root fp = segments_dir root / (fp ^ ".idx")

let is_seg f = Filename.check_suffix f ".seg"
let is_idx f = Filename.check_suffix f ".idx"

let shards = 64

(* Deterministic across OCaml versions (unlike Hashtbl.hash): route by
   CRC of the label. *)
let shard_of_label label =
  Int32.to_int (Int32.logand (Crc32.digest label) 0x7FFFFFFFl) mod shards

let shard_file k = Printf.sprintf "labels.%02d.shard" k
let shard_path root k = segments_dir root / shard_file k

let is_shard f =
  String.length f = String.length "labels.00.shard"
  && String.sub f 0 7 = "labels."
  && Filename.check_suffix f ".shard"

(* ------------------------------------------------------------------ *)
(* Token escaping                                                     *)
(* ------------------------------------------------------------------ *)

(* Names and labels land in whitespace-separated line formats; escape
   the separators (and '%') so any string round-trips. *)
let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' | '%' | ',' ->
          Buffer.add_string b (Printf.sprintf "%%%02x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unesc s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '%' && !i + 2 < n then begin
       match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
       | Some code ->
           Buffer.add_char b (Char.chr code);
           i := !i + 2
       | None -> Buffer.add_char b s.[!i]
     end
     else Buffer.add_char b s.[!i]);
    incr i
  done;
  Buffer.contents b

let opt_token = function "" -> "-" | s -> esc s
let opt_untoken = function "-" -> "" | s -> unesc s

(* ------------------------------------------------------------------ *)
(* Segment encoding                                                   *)
(* ------------------------------------------------------------------ *)

let kind_token = function Source -> "source" | Articulation -> "articulation"

let kind_of_token = function
  | "source" -> Some Source
  | "articulation" -> Some Articulation
  | _ -> None

let header_magic = "onion.segment 1"

let encode ~kind ~name ~ext payload =
  Printf.sprintf "%s %s %s %s\n%s" header_magic (kind_token kind)
    (opt_token ext) (esc name) payload

let decode content =
  match String.index_opt content '\n' with
  | None -> Error "segment: missing header"
  | Some nl -> (
      let header = String.sub content 0 nl in
      let payload =
        String.sub content (nl + 1) (String.length content - nl - 1)
      in
      match String.split_on_char ' ' header with
      | [ "onion.segment"; "1"; kind; ext; name ] -> (
          match kind_of_token kind with
          | Some kind -> Ok (kind, unesc name, opt_untoken ext, payload)
          | None -> Error ("segment: unknown kind " ^ kind))
      | _ -> Error "segment: malformed header")

let fingerprint encoded = Digest.to_hex (Digest.string encoded)

(* ------------------------------------------------------------------ *)
(* Per-segment indexes                                                *)
(* ------------------------------------------------------------------ *)

let index_of_graph_nodes qualified_nodes graph_edges parents =
  {
    idx_nodes = List.sort_uniq String.compare qualified_nodes;
    idx_edges =
      List.sort (fun (a, _) (b, _) -> String.compare a b) graph_edges;
    idx_parents = List.sort_uniq compare parents;
  }

let index_of_source o =
  let name = Ontology.name o in
  let g = Ontology.graph o in
  let nodes =
    Digraph.fold_nodes (fun n acc -> (name ^ ":" ^ n) :: acc) g []
  in
  let edge_counts = Hashtbl.create 16 in
  let parents = ref [] in
  Digraph.iter_edges
    (fun (e : Digraph.edge) ->
      Hashtbl.replace edge_counts e.label
        (1 + Option.value ~default:0 (Hashtbl.find_opt edge_counts e.label));
      if String.equal e.label Rel.subclass_of then
        parents := (name ^ ":" ^ e.src, name ^ ":" ^ e.dst) :: !parents)
    g;
  index_of_graph_nodes nodes
    (Hashtbl.fold (fun l c acc -> (l, c) :: acc) edge_counts [])
    !parents

let index_of_articulation a =
  let name = Articulation.name a in
  let o = Articulation.ontology a in
  let g = Ontology.graph o in
  let nodes =
    Digraph.fold_nodes (fun n acc -> (name ^ ":" ^ n) :: acc) g []
  in
  (* Bridge endpoints are already qualified; indexing them routes a
     query anchored on a bridged source term to this articulation's
     group even before the source segment is consulted. *)
  let nodes =
    List.fold_left
      (fun acc (b : Bridge.t) ->
        Term.qualified b.Bridge.src :: Term.qualified b.Bridge.dst :: acc)
      nodes (Articulation.bridges a)
  in
  let edge_counts = Hashtbl.create 16 in
  let parents = ref [] in
  Digraph.iter_edges
    (fun (e : Digraph.edge) ->
      Hashtbl.replace edge_counts e.label
        (1 + Option.value ~default:0 (Hashtbl.find_opt edge_counts e.label));
      if String.equal e.label Rel.subclass_of then
        parents := (name ^ ":" ^ e.src, name ^ ":" ^ e.dst) :: !parents)
    g;
  List.iter
    (fun (b : Bridge.t) ->
      let label = b.Bridge.label in
      Hashtbl.replace edge_counts label
        (1 + Option.value ~default:0 (Hashtbl.find_opt edge_counts label)))
    (Articulation.bridges a);
  index_of_graph_nodes nodes
    (Hashtbl.fold (fun l c acc -> (l, c) :: acc) edge_counts [])
    !parents

let index_magic = "onion.idx 1"

let encode_index idx =
  let b = Buffer.create 1024 in
  Buffer.add_string b index_magic;
  Buffer.add_char b '\n';
  List.iter
    (fun n -> Buffer.add_string b (Printf.sprintf "node %s\n" (esc n)))
    idx.idx_nodes;
  List.iter
    (fun (l, c) ->
      Buffer.add_string b (Printf.sprintf "edge %d %s\n" c (esc l)))
    idx.idx_edges;
  List.iter
    (fun (child, parent) ->
      Buffer.add_string b
        (Printf.sprintf "parent %s %s\n" (esc child) (esc parent)))
    idx.idx_parents;
  Buffer.contents b

let decode_index content =
  match String.split_on_char '\n' content with
  | magic :: lines when String.equal magic index_magic -> (
      let nodes = ref [] and edges = ref [] and parents = ref [] in
      try
        List.iter
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "" ] | [] -> ()
            | [ "node"; n ] -> nodes := unesc n :: !nodes
            | [ "edge"; c; l ] -> (
                match int_of_string_opt c with
                | Some c -> edges := (unesc l, c) :: !edges
                | None -> raise Exit)
            | [ "parent"; child; parent ] ->
                parents := (unesc child, unesc parent) :: !parents
            | _ -> raise Exit)
          lines;
        Ok
          {
            idx_nodes = List.rev !nodes;
            idx_edges = List.rev !edges;
            idx_parents = List.rev !parents;
          }
      with Exit -> Error "index: malformed line")
  | _ -> Error "index: bad magic"

let write_index root fp idx =
  Durable_io.write ~path:(idx_path root fp) (encode_index idx)

let read_index root fp =
  match Durable_io.read ~path:(idx_path root fp) with
  | Error m -> Error m
  | Ok content -> decode_index content

(* ------------------------------------------------------------------ *)
(* Manifest                                                           *)
(* ------------------------------------------------------------------ *)

let manifest_magic = "onion.manifest 1"

let entry_order a b =
  match compare a.kind b.kind with
  | 0 -> String.compare a.name b.name
  | c -> c

let encode_manifest entries =
  let b = Buffer.create 1024 in
  Buffer.add_string b manifest_magic;
  Buffer.add_char b '\n';
  List.iter
    (fun e ->
      let links =
        match e.links with
        | [] -> "-"
        | ls -> String.concat "," (List.map esc ls)
      in
      Buffer.add_string b
        (Printf.sprintf "segment %s %s %s %s %s\n" (kind_token e.kind) e.fp
           (opt_token e.ext) links (esc e.name)))
    (List.sort entry_order entries);
  Buffer.contents b

let decode_manifest content =
  match String.split_on_char '\n' content with
  | magic :: lines when String.equal magic manifest_magic -> (
      try
        Ok
          (List.filter_map
             (fun line ->
               match String.split_on_char ' ' line with
               | [ "" ] | [] -> None
               | [ "segment"; kind; fp; ext; links; name ] -> (
                   match kind_of_token kind with
                   | None -> raise Exit
                   | Some kind ->
                       Some
                         {
                           kind;
                           name = unesc name;
                           ext = opt_untoken ext;
                           fp;
                           links =
                             (if String.equal links "-" then []
                              else
                                String.split_on_char ',' links
                                |> List.map unesc);
                         })
               | _ -> raise Exit)
             lines)
      with Exit -> Error "manifest: malformed line")
  | _ -> Error "manifest: bad magic"

let read_manifest root =
  match Durable_io.read ~path:(manifest_path root) with
  | Error m -> Error m
  | Ok content -> decode_manifest content

let write_manifest root entries =
  Durable_io.write ~path:(manifest_path root) (encode_manifest entries)

(* The paged workspace's content fingerprint: the manifest bytes pin
   every segment fingerprint, so one MD5 replaces the per-file walk of
   the flat backend. *)
let manifest_digest root =
  match Digest.file (manifest_path root) with
  | d -> Some (Digest.to_hex d)
  | exception Sys_error _ -> None

(* ------------------------------------------------------------------ *)
(* Segment IO                                                         *)
(* ------------------------------------------------------------------ *)

let mkdir_if_missing dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* Publish one segment file.  Content-addressed: if the fingerprint is
   already on disk the write is skipped (same bytes by construction). *)
let write_segment root ~kind ~name ~ext payload =
  mkdir_if_missing (segments_dir root);
  let encoded = encode ~kind ~name ~ext payload in
  let fp = fingerprint encoded in
  let path = seg_path root fp in
  if Sys.file_exists path then Ok fp
  else
    match Durable_io.write ~path encoded with
    | Ok () -> Ok fp
    | Error m -> Error m

type verdict = Durable_io.verdict =
  | Verified
  | Unstamped
  | Mismatch of { expected : string; actual : string }

(* Read + decode one segment; the verdict travels with the result so the
   paged classifiers can surface checksum mismatches exactly like the
   flat backend does. *)
let read_segment root fp =
  match Durable_io.read_verified ~path:(seg_path root fp) with
  | Error m -> Error m
  | Ok (content, verdict) -> (
      match decode content with
      | Error m -> Ok (Error m, verdict)
      | Ok decoded -> Ok (Ok decoded, verdict))

(* ------------------------------------------------------------------ *)
(* Groups (weakly connected components of the link graph)             *)
(* ------------------------------------------------------------------ *)

(* Union-find over ontology names: every articulation entry links its
   endpoints together (and itself).  The representative is the smallest
   member name, so group ids are deterministic. *)
let groups entries =
  let parent = Hashtbl.create 64 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | None ->
        Hashtbl.replace parent x x;
        x
    | Some p when String.equal p x -> x
    | Some p ->
        let r = find p in
        Hashtbl.replace parent x r;
        r
  in
  let union a b =
    let ra = find a and rb = find b in
    if not (String.equal ra rb) then
      if String.compare ra rb <= 0 then Hashtbl.replace parent rb ra
      else Hashtbl.replace parent ra rb
  in
  List.iter
    (fun e ->
      ignore (find e.name);
      List.iter (fun l -> union e.name l) e.links)
    entries;
  fun name -> find name

(* ------------------------------------------------------------------ *)
(* Routing shards                                                     *)
(* ------------------------------------------------------------------ *)

let shard_magic = "onion.shard 1"

type shard_line = { sl_label : string; sl_count : int; sl_fps : string list }

let encode_shard lines =
  let b = Buffer.create 1024 in
  Buffer.add_string b shard_magic;
  Buffer.add_char b '\n';
  List.iter
    (fun l ->
      Buffer.add_string b
        (Printf.sprintf "label %d %s %s\n" l.sl_count
           (match l.sl_fps with [] -> "-" | fps -> String.concat "," fps)
           (esc l.sl_label)))
    (List.sort (fun a b -> String.compare a.sl_label b.sl_label) lines);
  Buffer.contents b

let decode_shard content =
  match String.split_on_char '\n' content with
  | magic :: lines when String.equal magic shard_magic -> (
      try
        Ok
          (List.filter_map
             (fun line ->
               match String.split_on_char ' ' line with
               | [ "" ] | [] -> None
               | [ "label"; count; fps; label ] -> (
                   match int_of_string_opt count with
                   | None -> raise Exit
                   | Some c ->
                       Some
                         {
                           sl_label = unesc label;
                           sl_count = c;
                           sl_fps =
                             (if String.equal fps "-" then []
                              else String.split_on_char ',' fps);
                         })
               | _ -> raise Exit)
             lines)
      with Exit -> Error "shard: malformed line")
  | _ -> Error "shard: bad magic"

let read_shard root k =
  let path = shard_path root k in
  if not (Sys.file_exists path) then Ok []
  else
    match Durable_io.read ~path with
    | Error m -> Error m
    | Ok content -> decode_shard content

let write_shard root k lines =
  Durable_io.write ~path:(shard_path root k) (encode_shard lines)

(* Apply a publish delta to the routing shards: retire the labels of
   [remove]d segments, enroll the labels of [add]ed ones.  Only the
   shards actually touched are rewritten. *)
let apply_shard_delta root ~remove ~add =
  let touched = Hashtbl.create 16 in
  let note_label label = Hashtbl.replace touched (shard_of_label label) () in
  List.iter (fun (_, idx) -> List.iter note_label idx.idx_nodes) remove;
  List.iter (fun (_, idx) -> List.iter note_label idx.idx_nodes) add;
  let removals = Hashtbl.create 64 and additions = Hashtbl.create 64 in
  List.iter
    (fun (fp, idx) ->
      List.iter (fun l -> Hashtbl.add removals l fp) idx.idx_nodes)
    remove;
  List.iter
    (fun (fp, idx) ->
      List.iter (fun l -> Hashtbl.add additions l fp) idx.idx_nodes)
    add;
  let update_shard k =
    match read_shard root k with
    | Error m -> Error m
    | Ok lines ->
        let tbl = Hashtbl.create (List.length lines * 2) in
        List.iter
          (fun l -> Hashtbl.replace tbl l.sl_label (l.sl_count, l.sl_fps))
          lines;
        Hashtbl.iter
          (fun label fp ->
            if shard_of_label label = k then
              match Hashtbl.find_opt tbl label with
              | None -> ()
              | Some (c, fps) ->
                  let fps = List.filter (fun f -> not (String.equal f fp)) fps in
                  if fps = [] then Hashtbl.remove tbl label
                  else Hashtbl.replace tbl label (max 0 (c - 1), fps))
          removals;
        Hashtbl.iter
          (fun label fp ->
            if shard_of_label label = k then
              match Hashtbl.find_opt tbl label with
              | None -> Hashtbl.replace tbl label (1, [ fp ])
              | Some (c, fps) ->
                  if not (List.mem fp fps) then
                    Hashtbl.replace tbl label
                      (c + 1, List.sort String.compare (fp :: fps))
                  else Hashtbl.replace tbl label (c + 1, fps))
          additions;
        let lines =
          Hashtbl.fold
            (fun label (c, fps) acc ->
              { sl_label = label; sl_count = c; sl_fps = fps } :: acc)
            tbl []
        in
        write_shard root k lines
  in
  Hashtbl.fold
    (fun k () acc -> match acc with Error _ -> acc | Ok () -> update_shard k)
    touched (Ok ())

(* Rebuild every shard from the per-segment indexes of [entries] — the
   fsck path and the bulk-publish path.  Large federations are processed
   in several passes over disjoint shard ranges so the transient
   label->fp staging never holds the whole label population at once:
   bounding peak heap is the paged backend's reason to exist, and a
   single-pass rebuild at 10^6 labels would briefly dwarf the resident
   working set it was built to avoid.  Small entry sets stay one-pass
   (no repeated index reads). *)
let rebuild_shards root entries =
  let passes = if List.length entries > 64 then 8 else 1 in
  let per = Stdlib.( / ) (shards + passes - 1) passes in
  let rec run_pass p =
    if p >= passes then Ok ()
    else
      let lo = p * per and hi = min shards ((p + 1) * per) in
      let by_shard = Array.make (hi - lo) [] in
      let ok =
        List.fold_left
          (fun acc e ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
                match read_index root e.fp with
                | Error m -> Error (Printf.sprintf "index of %s: %s" e.name m)
                | Ok idx ->
                    List.iter
                      (fun label ->
                        let k = shard_of_label label in
                        if k >= lo && k < hi then
                          by_shard.(k - lo) <- (label, e.fp) :: by_shard.(k - lo))
                      idx.idx_nodes;
                    Ok ()))
          (Ok ()) entries
      in
      match ok with
      | Error _ as e -> e
      | Ok () ->
          let rec write k =
            if k >= hi then run_pass (p + 1)
            else
              let tbl = Hashtbl.create 64 in
              List.iter
                (fun (label, fp) ->
                  match Hashtbl.find_opt tbl label with
                  | None -> Hashtbl.replace tbl label (1, [ fp ])
                  | Some (c, fps) ->
                      Hashtbl.replace tbl label
                        ( c + 1,
                          if List.mem fp fps then fps
                          else List.sort String.compare (fp :: fps) ))
                by_shard.(k - lo);
              let lines =
                Hashtbl.fold
                  (fun label (c, fps) acc ->
                    { sl_label = label; sl_count = c; sl_fps = fps } :: acc)
                  tbl []
              in
              match
                if lines = [] && not (Sys.file_exists (shard_path root k))
                then Ok ()
                else write_shard root k lines
              with
              | Error _ as e -> e
              | Ok () -> write (k + 1)
          in
          write lo
  in
  run_pass 0

(* One shard decoded into a label -> line table, so a decoded shard
   answers any number of lookups.  Labels are unique in a shard written
   here; on a duplicate the first line wins. *)
let read_shard_table root k =
  match read_shard root k with
  | Error m -> Error m
  | Ok lines ->
      let table = Hashtbl.create (List.length lines) in
      List.iter
        (fun l ->
          if not (Hashtbl.mem table l.sl_label) then
            Hashtbl.add table l.sl_label l)
        lines;
      Ok table

(* Route one qualified label to the segment fingerprints that contain
   it, via its shard.  [None] when the label is unknown. *)
let lookup_label root label =
  match read_shard_table root (shard_of_label label) with
  | Error m -> Error m
  | Ok table -> Ok (Hashtbl.find_opt table label)
