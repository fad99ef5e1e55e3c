(** The unary algebra operators (section 5): "Unary operators like filter
    and extract work on a single ontology.  They are analogous to the
    select and project operations in relational algebra. ... Given an
    ontology and a graph pattern, an unary operation matches the pattern
    and returns selected portions of the ontology graph."

    - {!filter} (select): the union of the subgraphs matched by the
      pattern — exactly the witnessed nodes and edges.
    - {!extract} (project): the matched nodes together with their
      dependent structure (by default the attribute closure and the
      subtree of subclasses), as an induced subgraph — the "interesting
      area of the ontology that we want to further explore". *)

val filter :
  ?policy:Fuzzy.policy -> Ontology.t -> Pattern.t -> Ontology.t
(** Union of {!Matcher.matched_subgraph} over all matches.  The result
    keeps the source ontology's name and relation registry. *)

val extract :
  ?policy:Fuzzy.policy ->
  ?follow:string list ->
  ?include_subclasses:bool ->
  Ontology.t ->
  Pattern.t ->
  Ontology.t
(** Induced subgraph on the matched nodes, their descendants through
    [follow] labels (default [[AttributeOf]]), and — when
    [include_subclasses] (default [true]) — their transitive subclasses
    (with those subclasses' own [follow]-descendants). *)

val filter_terms : ?policy:Fuzzy.policy -> Ontology.t -> Pattern.t -> string list
(** The terms selected by {!filter}, sorted. *)
