(** Per-revision matching indexes over a {!Digraph}.

    The cold path of subgraph matching repeatedly asks three questions of
    the data graph: does a node with this label exist, which edges carry
    this label, and can this node possibly satisfy a labeled (or
    unlabeled) pattern edge.  Answering them from whole-graph scans is
    what makes naive backtracking quadratic-and-worse; an index built in
    one [O(N + E)] pass answers each in (amortized) constant time.

    Indexes are immutable once built and memoized on the graph's
    {!Digraph.revision} stamp, so any number of matches against an
    unchanged graph share one build, while a mutated graph (fresh
    revision) transparently gets a fresh index.  Because a built index is
    never mutated, it is safe to share across {!Domain_pool} workers. *)

type t

val of_graph : Digraph.t -> t
(** The index for this graph, built on first request per revision and
    answered from a process-wide memo afterwards. *)

val update : t -> Delta.t -> Digraph.t -> t
(** [update idx delta post] patches the index in [O(|delta|)] bucket
    work (plus one linear merge of the sorted node list) instead of the
    full [O(N + E)] rebuild: only the buckets and degree counters of
    the delta's net edge changes are touched.  [idx] {e must} be the
    index of the pre-state graph the delta was computed against, and
    [post] the post-state; the result is observationally identical to
    [of_graph post] (the qcheck equivalence harness proves it) and is
    inserted into the per-revision memo, so a later [of_graph post]
    answers from the patch.  Records one ["delta.index_patch"] plan
    counter tick. *)

val peek : Digraph.t -> t option
(** The index for this graph's revision if it is already memoized, and
    [None] otherwise.  Never builds and moves no counter: {!Matcher.find}
    uses it to seed from a label bucket only when the index is warm. *)

val revision : t -> int
(** The {!Digraph.revision} of the indexed graph. *)

val nodes : t -> Digraph.node list
(** All nodes, sorted — the same list as {!Digraph.nodes}, computed once. *)

val mem_label : t -> string -> bool
(** Node existence by label (node identity and label coincide in the
    paper's consistent ontologies). *)

val edges_with : t -> string -> (Digraph.node * Digraph.node) list
(** The (src, dst) bucket of every edge carrying the label, sorted. *)

val sources_with : t -> string -> Digraph.node list
(** Distinct sorted sources of edges carrying the label: the candidate
    set for a pattern node required to emit such an edge. *)

val targets_with : t -> string -> Digraph.node list
(** Distinct sorted targets of edges carrying the label. *)

val out_label_degree : t -> Digraph.node -> string -> int
(** Number of out-edges of the node carrying the label (0 for unknown
    nodes or labels). *)

val in_label_degree : t -> Digraph.node -> string -> int

val out_degree : t -> Digraph.node -> int
(** Total out-degree (0 for unknown nodes). *)

val in_degree : t -> Digraph.node -> int
