(** Pattern matching against ontology graphs.

    A pattern [P = (N', E')] matches into a graph [G] through a total
    mapping of pattern nodes to graph nodes that respects label constraints
    and edge existence — the section-3 definition, generalized with binders
    and the {!Fuzzy} relaxations.  One executor backtracks over pattern
    nodes, most-constrained first.  A node with an already-bound
    neighbour takes its candidates from that neighbour's adjacency; an
    unanchored node scans the graph's node list, or — when the graph's
    {!Label_index} is already memoized for this revision and the node
    has an exactly-labeled incident edge — that label's bucket.  The
    matcher never builds an index itself: a cold search pays nothing for
    one, and a warm index (built by lint, delta maintenance or an
    explicit {!Label_index.of_graph}) only narrows the seed.

    Results are bit-for-bit those of the naive whole-graph scan
    ({!Matcher_reference}), with the index cold and warm, proven by the
    qcheck equivalence property in [test/test_matcher_equiv.ml]. *)

type match_result = {
  assignment : (string * Digraph.node) list;
      (** pattern-node id -> matched graph node, sorted by id. *)
  bindings : (string * Digraph.node) list;
      (** variable -> matched graph node, sorted by variable. *)
}

val find :
  ?policy:Fuzzy.policy ->
  ?injective:bool ->
  ?limit:int ->
  ?node_order:[ `Most_constrained | `Declaration ] ->
  Pattern.t ->
  Digraph.t ->
  match_result list
(** All matches, deterministic order, up to [limit] (default 1000).
    [injective] (default [false], per the paper's total-mapping
    definition) forbids two pattern nodes sharing a graph node.
    [node_order] picks the backtracking order: [`Most_constrained] (the
    default: labeled, high-degree pattern nodes first) or [`Declaration]
    (pattern order as written) — kept for the ablation benchmark that
    justifies the heuristic. *)

val matches : ?policy:Fuzzy.policy -> Pattern.t -> Digraph.t -> bool

val find_in_ontology :
  ?policy:Fuzzy.policy ->
  ?injective:bool ->
  ?limit:int ->
  Pattern.t ->
  Ontology.t ->
  match_result list
(** Match against an ontology's graph.  If the pattern carries an
    {!Pattern.ontology_hint} naming a different ontology, the result is
    empty. *)

val matched_subgraph : Digraph.t -> Pattern.t -> match_result -> Digraph.t
(** The portion of the graph covered by one match: matched nodes plus, for
    every pattern edge, one witnessing graph edge.  This powers the
    algebra's unary operators (select/project analogues, section 5).
    @raise Invalid_argument naming the offending pattern-node id if the
    match does not bind every endpoint the pattern's edges mention (a
    match produced from a different pattern). *)

val binding : match_result -> string -> Digraph.node option
(** Look up one variable. *)
