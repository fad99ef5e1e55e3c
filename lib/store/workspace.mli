(** The ONION data layer as an on-disk workspace (Fig. 1).

    A workspace is a directory holding the registered source-ontology
    files and the stored articulations — nothing else, because "the source
    ontologies are independently maintained and the articulation is the
    only thing that is physically stored" (section 2).

    {b Flat backend} (the default):

    {v
    <root>/
      onion.workspace        marker + format version
      sources/               registered ontology files (xml / idl / adj)
                             + <file>.crc32 checksum sidecars
      articulations/         <name>.articulation.xml (Articulation_io)
      quarantine/            files set aside by fsck (created on demand)
    v}

    All operations re-read from disk: external edits to a source file are
    picked up on the next call, which is the point — sources evolve
    independently.

    {b Paged backend} ([init ~paged:true]): parts live in
    content-fingerprinted immutable {!Segment} files named by a manifest
    (the single atomic commit point), with per-segment label indexes and
    label-hash routing shards built at publish time:

    {v
    <root>/
      onion.workspace / onion.paged      markers
      manifest                           name -> fingerprint map
      segments/<fp>.seg                  immutable segments (+ .crc32)
      segments/<fp>.idx                  per-segment label indexes
      segments/labels.<k>.shard          routing shards
      quarantine/
    v}

    Parts are decoded on demand through a process-wide byte-budgeted
    {!Block_cache}, and {!query_space} pages in only the articulation
    group a query's anchor label routes to — a million-node federation
    answers a labeled-anchor query without materialising the rest.
    Results are bit-for-bit identical to the flat backend.

    {b Durability.}  Every write goes through {!Durable_io}: atomic
    publish (tmp + fsync + rename), CRC-32 sidecar stamps, bounded retry
    for transient failures.  A crash can therefore never tear a committed
    file; at worst it leaves a stray [*.onion-tmp], an unstamped payload
    or (paged) an orphan segment, all of which {!fsck} repairs.

    {b Degraded federation.}  Loading is per-file fault-isolated: a
    corrupt or unparseable part is excluded from the query space and
    reported in {!Health.t} while every healthy part keeps serving.  On
    the flat backend a parseable payload whose stamp disagrees is treated
    as an external edit (a feature, per the paper) and reported as a
    warning only. *)

type t

val init : ?paged:bool -> string -> (t, string) result
(** Create the directory layout (the root may already exist but must not
    already be a workspace).  [~paged:true] creates a paged workspace:
    an empty manifest, a [segments/] directory and the [onion.paged]
    marker. *)

val open_ : ?paged:bool -> string -> (t, string) result
(** Open an existing workspace ([Error] when the marker is missing).
    The backend is auto-detected from the [onion.paged] marker; passing
    [?paged] asserts the expectation instead of switching behaviour. *)

val root : t -> string

val is_paged : t -> bool

val block_stats : t -> Block_cache.group_stats
(** This workspace's resident footprint in the process-wide block cache
    (zeros for a flat workspace — it never inserts). *)

val block_cache_resident : unit -> int
(** Process-wide block-cache resident bytes (all tenants). *)

val block_cache_budget : unit -> int

(** {1 Sources} *)

val add_source : t -> path:string -> (string * string list, string) result
(** Copy an ontology file into the workspace (atomically, stamped) and
    return the registered name (the ontology's own name) plus any
    non-fatal warnings — e.g. a previously registered file under another
    extension that could not be removed.  The file must parse; re-adding
    a source with the same name replaces it.  On the paged backend this
    is a full publish: segment + index write, shard delta, manifest
    swap. *)

val remove_source : t -> string -> (unit, string) result
(** Unlink the registered file and its checksum sidecar (flat), or
    publish a manifest without the entry (paged). *)

val source_names : t -> string list
(** Sorted; in-flight tmp files and sidecars are not sources. *)

val load_source : t -> string -> (Ontology.t, string) result

val load_sources : t -> Ontology.t list * Health.issue list
(** Degraded load: every source that reads and parses, in name order,
    plus one issue per source that did not (failures) or that parses
    with a stale checksum stamp (warnings). *)

(** {1 Articulations} *)

val store_articulation : t -> Articulation.t -> (unit, string) result

val articulation_names : t -> string list

val load_articulation : t -> string -> (Articulation.t, string) result

val remove_articulation : t -> string -> (unit, string) result

val load_articulations : t -> Articulation.t list * Health.issue list
(** Degraded load, mirroring {!load_sources}. *)

val articulate :
  ?conversions:Conversion.t ->
  t ->
  left:string ->
  right:string ->
  name:string ->
  rules:Rule.t list ->
  (Articulation.t * Generator.warning list, string) result
(** Generate from the workspace's current source files and store the
    result (durably). *)

(** {1 Bulk publish} *)

type publisher
(** A streaming bulk publisher: parts are written durably as they
    arrive (bounded memory — million-node federations stream through),
    and {!commit} performs ONE shard rebuild and ONE manifest swap
    instead of a rewrite per part.  Staged names are expected unique.
    A crash before {!commit} leaves only orphan segments, which
    {!fsck} removes; on the flat backend each part write is already
    durable and {!commit} is a no-op. *)

val publisher : t -> publisher

val publish_source :
  publisher -> Ontology.t -> ext:string -> payload:string ->
  (unit, string) result
(** [payload] must be [o] in the serialisation [ext] implies (the
    caller already has both; re-serialising here would double the
    generator's work). *)

val publish_articulation : publisher -> Articulation.t -> (unit, string) result

val commit : publisher -> (unit, string) result

(** {1 Federation} *)

val space : t -> (Federation.t * Health.t, string) result
(** The query space over every {e healthy} source and stored
    articulation, paired with the health account of the parts it read.  [Error]
    only when the surviving parts cannot form a federation at all.
    Memoised on a content fingerprint of the workspace files (honours
    [Cache_stats.enabled]). *)

val query_space : t -> string -> (Federation.t * Health.t, string) result
(** The space to answer one query text against.  Flat: {!space}.
    Paged: the query's anchor label is routed through the shards to its
    articulation group and only that group's segments are decoded and
    merged; answers are bit-for-bit identical to running against the
    full space (the anchor's group is the only component a connected
    match can touch).  Health covers the parts actually serving the
    group — not parts of other groups, and not debris on disk (tmp
    files, orphan segments), which {!health}, lint and {!fsck} report.  Any
    routing miss (parse failure, unknown label, mid-publish shards)
    falls back to the full space: routing is an optimisation, never a
    filter.

    Routing state lives in one immutable snapshot per manifest digest:
    the parsed entries, the group map, the default ontology, shards
    decoded on first use (charged to the block-cache budget, plan
    counter ["store.shard_decode"]) and each group's space.  A request
    costs one manifest digest and answers from memory; a new digest
    builds a new snapshot (["store.route_snapshot"]) and frees the old
    one.  {!fsck} repairs and bulk commits drop it. *)

val default_ontology : t -> string option
(** The ontology a bare query concept is qualified against — matches
    [Federation.primary_articulation] of the full space, so routed
    parsing agrees with in-memory parsing.  Pass to
    [Mediator.run_text ?default_ontology] when running against
    {!query_space}. *)

type served = {
  env : Mediator.env;  (** Over the space {!query_space} returns. *)
  health : Health.t;
  default_ontology : string option;  (** As {!default_ontology}. *)
}

val query_env : t -> string -> (served, string) result
(** Everything needed to answer one query text: {!query_space}'s
    space wrapped in its mediator environment, and the default
    ontology, all read from one manifest snapshot (paged) or one
    fingerprint (flat).  Each space carries a single env, built on
    first use and shared by every domain; it lives exactly as long as
    the space's memo entry, so a superseded manifest's envs are freed
    with it.  Honours [Cache_stats.enabled] (disabled: built fresh per
    call). *)

val resident_envs : t -> int
(** Environments currently held by this handle: at most one per
    articulation group served since the manifest last changed, plus one
    for the full space. *)

val breakers : t -> Breaker.info list
(** The per-source circuit breakers' current state (empty until a load
    has failed).  A source whose circuit is open surfaces in {!health}
    as a {!Health.Breaker_open} failure and its load is skipped until
    the cooldown elapses; {!fsck} repairs reset all circuits. *)

val health : t -> Health.t
(** Read-only scan: healthy parts, load failures, stray tmp files,
    orphan sidecars and (paged) orphan segments.  Repairs nothing. *)

val status : t -> string
(** Human-readable overview: sources with term counts, articulations with
    bridge counts, stale articulations (bridges naming source terms that
    no longer exist — the maintenance signal of section 5.3), and the
    health summary. *)

val stale_bridges : t -> ((string * Bridge.t) list, string) result
(** (articulation name, bridge) pairs whose source-side term has vanished
    from the current source file.  Computed over the healthy parts. *)

val edit : t -> source:string -> Transform.op list -> (Delta.t, string) result
(** Apply a transformation stream (the paper's NA/ND/EA/ED primitives)
    to one registered source and write the result back in the file's
    own serialization (adjacency formats via the deterministic
    {!Adjacency.print}, XML via the faithful round-trip; [.idl] sources
    cannot be re-serialized and yield [Error]).  Flat: a durable
    stamped rewrite of the registered file; paged: a fresh segment +
    index publish with a manifest swap.

    Returns the {!Delta.t} summarizing the edit's changed region.  On
    the side, the pre-state {!Label_index} is patched forward in
    O(|delta|) when warm, and the (fingerprint-before,
    fingerprint-after, delta) chain is recorded so the next {!lint}
    takes the delta-driven incremental path.  Any out-of-band change to
    the workspace breaks the fingerprint chain, and lint falls back to
    the cold scan — the chain is a pure optimisation. *)

val lint : ?conversions:Conversion.t -> ?enabled:string list -> t -> Lint.report
(** The whole-workspace static analysis: every {!Lint} pass over the
    healthy parts (with raw file texts for span provenance), plus one
    ["io"]-pass diagnostic per {!Health} finding (torn writes, unreadable
    or unparseable files, checksum mismatches, orphan sidecars and
    segments), merged in {!Diagnostic.order}.  The report is {e raw} —
    apply {!Diagnostic.apply_config} and a baseline downstream.
    [enabled] restricts computation to the listed diagnostic codes and
    is part of the memo key (see {!Lint.run}).
    Memoised on the workspace content fingerprint (honours
    [Cache_stats.enabled]), on top of the per-part revision memos inside
    {!Lint}; a custom [conversions] registry (default
    {!Conversion.builtin}) bypasses the whole-report memo.  Paged
    diagnostics anchor to the part's {e logical} file name
    ([sources/<name><ext>]), not the segment fingerprint.

    When the only changes since the memoized report came through
    {!edit}, the rebuild is {e incremental}: {!Lint.lint_incremental}
    re-checks only the (pass x scope) cells the recorded delta can
    affect, unchanged parts answer from their revision-keyed memos, and
    the storage-layer diagnostics of untouched files are spliced back
    in.  The result is bit-for-bit identical to the cold scan. *)

(** {1 fsck} *)

type repair =
  | Quarantined of { file : string; to_ : string; reason : string }
      (** Moved into [quarantine/] (torn tmp files, unreadable or
          unparseable payloads and their sidecars; paged: segments whose
          bytes no longer hash to their manifest fingerprint, and routing
          shards that fail their stamp or do not decode).
          Quarantine preserves evidence; nothing is ever deleted
          outright except orphans. *)
  | Restamped of { file : string; reason : string }
      (** A parseable payload with a missing or stale stamp got a fresh
          sidecar.  Flat: adoption of external files / edits.  Paged:
          only when the content digest still matches the manifest
          fingerprint — the fingerprint authenticates the payload, so a
          disagreeing sidecar is the stale artefact.  A segment whose
          {e content} disagrees with its fingerprint is quarantined
          instead: content-addressing makes "accepting the edit"
          incoherent. *)
  | Removed_orphan of { file : string }  (** Sidecar without a payload. *)
  | Removed_orphan_segment of { file : string }
      (** Paged: a [.seg]/[.idx] file no manifest entry references —
          debris from a crash on either side of a manifest swap. *)
  | Rebuilt_index of { file : string }
      (** Paged: a missing or undecodable per-segment index was
          recomputed from the (healthy) segment payload. *)
  | Rebuilt_manifest of { reason : string }
      (** Paged: the manifest was re-published — reconstructed from the
          decodable segments when unreadable, or rewritten after
          quarantined entries were dropped. *)

type fsck_report = { repairs : repair list; health : Health.t }
(** [health] is the post-repair state. *)

val fsck : t -> fsck_report
(** Detect and repair: quarantine torn tmp files and unparseable
    payloads, drop orphan sidecars, re-stamp parseable files; on the
    paged backend additionally verify every segment against its
    manifest fingerprint (streaming, without buffering payloads),
    quarantine corrupt segments and drop their entries, quarantine
    routing shards that fail their stamp or do not decode, remove
    orphan segments, rebuild missing indexes, re-publish the manifest
    and rebuild the routing shards.  Any repair invalidates the global
    result caches ([Cache_stats.clear_all]), this workspace's memos and
    its block-cache residency, since cached results may refer to
    pre-repair revisions. *)

val pp_repair : Format.formatter -> repair -> unit
val pp_fsck_report : Format.formatter -> fsck_report -> unit
