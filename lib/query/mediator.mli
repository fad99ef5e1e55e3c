(** The mediator: execute reformulated queries against the knowledge bases
    and merge the answers (the "onion query system" of section 2.3; in
    place of generated ODMG mediators, the plan is interpreted directly).

    Values are lifted into articulation space through the plan's
    conversion functions before predicates are applied, so a price filter
    expressed in euros correctly selects guilder- and sterling-priced
    instances. *)

type env = {
  kbs : Kb.t list;
      (** Any number of knowledge bases; each commits to a source
          ontology by name. *)
  space : Federation.t;  (** The query space: sources + articulations. *)
  conversions : Conversion.t;
  unavailable : string list;
      (** Knowledge bases currently offline (by {!Kb.name}).  Sources
          "change frequently" (section 1) and sometimes vanish: queries
          still answer from the remaining sources, reporting what was
          skipped. *)
}

val env :
  kbs:Kb.t list ->
  unified:Algebra.unified ->
  ?conversions:Conversion.t ->
  ?unavailable:string list ->
  unit ->
  env
(** Two-source environment.  [conversions] defaults to
    {!Conversion.builtin}; [unavailable] to none. *)

val env_federated :
  kbs:Kb.t list ->
  space:Federation.t ->
  ?conversions:Conversion.t ->
  ?unavailable:string list ->
  unit ->
  env
(** Environment over any federation (e.g. a {!Compose} tower packaged with
    {!Federation.of_parts}). *)

val with_outage : env -> string list -> env
(** Mark knowledge bases offline (replaces the current outage list). *)

type tuple = {
  kb : string;  (** Knowledge base that produced the tuple. *)
  source : string;  (** Source ontology name. *)
  instance : string;
  concept : string;  (** Source concept of the instance. *)
  values : (string * Conversion.value) list;
      (** Articulation-vocabulary attribute values, converted; sorted. *)
}

type report = {
  plan : Plan.t;
  fanout : Domain_pool.batch;
      (** The fan-out plan the per-source evaluation executed under: how
          many source plans, the estimated per-source work, and whether
          the {!Domain_pool} gate chose sequential or parallel
          execution.  Rendered by {!explain_fanout} for
          [onion query --explain]. *)
  tuples : tuple list;
      (** Matching instances; ordered by the query's [ORDER BY] when
          present (instances lacking the key sort last), by
          (kb, instance id) otherwise; truncated to [LIMIT]. *)
  aggregates : (string * Conversion.value) list;
      (** Aggregate results, in query order, labeled ["COUNT(*)"] etc.
          [SUM]/[AVG]/[MIN]/[MAX] skip instances lacking the attribute or
          holding non-numeric values; they are absent when no instance
          contributed. *)
  scanned : int;  (** Instances examined before predicate filtering. *)
  transferred : int;
      (** Instances that crossed from the sources into the mediator: with
          predicate pushdown, instances rejected at the source never
          transfer; without it, [transferred = scanned]. *)
  conversion_failures : (string * string) list;
      (** (instance, message) pairs where a converter rejected a value;
          the attribute is then absent from the tuple. *)
  skipped_kbs : string list;
      (** Knowledge bases not consulted because they were offline. *)
}

val run : ?pushdown:bool -> env -> Query.t -> (report, string) result
(** With [pushdown] (default [false]) the pushable predicates are
    evaluated at the source in source vocabulary (their constants crossed
    through the inverse conversion function), before any value is lifted —
    what a generated mediator would ship to each source.  Results are
    identical as long as conversions are monotone (true of every builtin
    converter); only [transferred] changes. *)

val run_text :
  ?pushdown:bool ->
  ?default_ontology:string ->
  env ->
  string ->
  (report, string) result
(** Parse and run a textual query; [default_ontology] defaults to the
    space's {!Federation.primary_articulation}. *)

val tuple_value : tuple -> string -> Conversion.value option

val explain_fanout : report -> string
(** One stable line describing the executed fan-out plan
    (see {!Domain_pool.explain_batch}): deterministic in the environment
    and query, so CLI output containing it can be golden-tested. *)

val report_json : ?explain:bool -> report -> string
(** The report as a single-line JSON object (tuples, aggregates,
    counters, skipped kbs).  With [explain], an ["explain"] field
    carries the {!explain_fanout} line — [--explain] composes with
    [--json]. *)

val pp_tuple : Format.formatter -> tuple -> unit

val pp_report : Format.formatter -> report -> unit
