(** Content-fingerprinted immutable segments for the paged workspace
    backend, plus the manifest, per-segment label indexes and label-hash
    routing shards built over them.

    Layout under a paged workspace root:

    {v
    <root>/manifest                   name -> fingerprint map (the commit point)
    <root>/segments/<fp>.seg          immutable segment: header + payload bytes
    <root>/segments/<fp>.idx          per-segment label index
    <root>/segments/labels.<k>.shard  routing shard k (k < shards)
    v}

    Everything is written through {!Durable_io} (atomic publish + CRC
    sidecars).  Segments are immutable and content-addressed — a mutation
    publishes new fingerprints and swaps the manifest, which is the single
    atomic commit point; anything newer than the manifest is an orphan
    that fsck removes. *)

type kind = Source | Articulation

type entry = {
  kind : kind;
  name : string;
  ext : string;  (** Original loader extension ([".adj"], ...); [""] if none. *)
  fp : string;  (** Hex MD5 of the segment file's bytes. *)
  links : string list;
      (** For articulations: every ontology name its bridges touch.
          Group assignment is recomputed from these on load. *)
}

type index = {
  idx_nodes : string list;  (** Qualified node labels, sorted. *)
  idx_edges : (string * int) list;  (** Edge-label histogram, sorted. *)
  idx_parents : (string * string) list;
      (** Direct SubclassOf (child, parent) pairs, qualified — the
          persisted subclass-closure seed. *)
}

(** {1 Paths} *)

val paged_marker : string
(** ["onion.paged"] — present in a paged workspace root. *)

val paged_marker_content : string

val segments_dir : string -> string
val manifest_path : string -> string
val seg_path : string -> string -> string
val idx_path : string -> string -> string
val is_seg : string -> bool
val is_idx : string -> bool
val is_shard : string -> bool

val shards : int
(** Routing shard count (64). *)

val shard_of_label : string -> int
(** Deterministic label -> shard routing (CRC-based, stable across OCaml
    versions). *)

val shard_path : string -> int -> string

(** {1 Segments} *)

val encode : kind:kind -> name:string -> ext:string -> string -> string
val decode : string -> (kind * string * string * string, string) result
(** [(kind, name, ext, payload)]. *)

val fingerprint : string -> string
(** Hex MD5 of encoded segment bytes. *)

val write_segment :
  string -> kind:kind -> name:string -> ext:string -> string ->
  (string, string) result
(** Publish a segment under its fingerprint; returns the fingerprint.
    Idempotent: an already-present fingerprint is not rewritten. *)

type verdict = Durable_io.verdict =
  | Verified
  | Unstamped
  | Mismatch of { expected : string; actual : string }

val read_segment :
  string -> string ->
  ((kind * string * string * string, string) result * verdict, string) result
(** Outer [Error]: unreadable file.  Inner [Error]: undecodable segment.
    The verdict lets callers surface checksum mismatches like the flat
    backend. *)

(** {1 Per-segment indexes} *)

val index_of_source : Ontology.t -> index
val index_of_articulation : Articulation.t -> index
(** Articulation indexes include bridge-endpoint labels, so a query
    anchored on a bridged source term routes to the whole group. *)

val encode_index : index -> string
val decode_index : string -> (index, string) result
val write_index : string -> string -> index -> (unit, string) result
val read_index : string -> string -> (index, string) result

(** {1 Manifest} *)

val encode_manifest : entry list -> string
val decode_manifest : string -> (entry list, string) result
val read_manifest : string -> (entry list, string) result
val write_manifest : string -> entry list -> (unit, string) result

val manifest_digest : string -> string option
(** Hex MD5 of the manifest file bytes — the paged workspace's content
    fingerprint.  [None] when the manifest is missing. *)

val groups : entry list -> string -> string
(** [groups entries] returns the group assignment: ontology name ->
    canonical representative (smallest name in its weakly connected
    component of the link graph). *)

(** {1 Routing shards} *)

type shard_line = { sl_label : string; sl_count : int; sl_fps : string list }

val read_shard : string -> int -> (shard_line list, string) result
(** Missing shard file reads as empty. *)

val write_shard : string -> int -> shard_line list -> (unit, string) result

val apply_shard_delta :
  string ->
  remove:(string * index) list ->
  add:(string * index) list ->
  (unit, string) result
(** Incremental shard maintenance for a publish delta; rewrites only the
    shards whose labels are touched. *)

val rebuild_shards : string -> entry list -> (unit, string) result
(** Full rebuild from the per-segment indexes (bulk publish and fsck). *)

val read_shard_table :
  string -> int -> ((string, shard_line) Hashtbl.t, string) result
(** Shard [k] decoded into a label -> line table (missing shard file:
    empty table).  The paged workspace keeps these in its block cache,
    so one decode answers every lookup until the manifest changes. *)

val lookup_label : string -> string -> (shard_line option, string) result
(** Route one qualified label through its shard; [Ok None] when the
    label is unknown to the store. *)
