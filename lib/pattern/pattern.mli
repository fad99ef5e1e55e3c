(** Graph patterns (section 3, "The Graph Patterns").

    A pattern is a small graph used "to identify portions of the
    [ontology] graphs that are of interest in a concise manner".  Pattern
    nodes may constrain the label of the matched node, bind it to a
    variable, or both; pattern edges may require a specific label or match
    any relationship.

    Patterns are pure data; matching lives in {!Matcher} and the textual
    notation in {!Pattern_parser}. *)

type node = {
  id : string;  (** Unique within the pattern. *)
  label : string option;
      (** [Some l]: the matched graph node must carry (a compatible) label
          [l].  [None]: wildcard. *)
  binder : string option;
      (** Variable name bound to the matched node, e.g. the [O] of the
          paper's [truck(O: owner, model)]. *)
}

type edge = {
  src : string;  (** Pattern-node id. *)
  elabel : string option;  (** [None] matches any relationship. *)
  dst : string;  (** Pattern-node id. *)
}

type t

val nodes : t -> node list
(** Sorted by id. *)

val edges : t -> edge list

val ontology_hint : t -> string option
(** The source-ontology prefix of the textual notation
    ([carrier] in [carrier:car:driver]), if any. *)

val size : t -> int
(** Number of pattern nodes. *)

val create :
  ?ontology:string -> nodes:node list -> edges:edge list -> unit -> t
(** @raise Invalid_argument on duplicate node ids, edges with unknown
    endpoints, an empty node list, or duplicate binder names. *)

(** {1 Convenience constructors} *)

val term : ?binder:string -> string -> t
(** Single-node pattern constraining the label. *)

val var : string -> t
(** Single wildcard node bound to the variable. *)

val path : ?ontology:string -> string list -> t
(** [path ["car"; "driver"]] is the paper's [carrier:car:driver] shape:
    consecutive labels linked by any-relationship edges. *)

val with_attributes :
  ?binder:string -> string -> (string option * string) list -> t
(** [with_attributes "truck" [(Some "O", "owner"); (None, "model")]] is the
    paper's [truck(O: owner, model)]: an [AttributeOf] edge from the head
    to each listed attribute node, with optional binders. *)

val search_order : t -> node list
(** Nodes in most-constrained-first backtracking order: labeled before
    wildcard, then by pattern degree (descending), then by id.  The
    canonical order shared by {!Matcher} and {!Matcher_reference}. *)

val node_by_id : t -> string -> node option

val binders : t -> string list
(** All variable names, sorted. *)

val to_digraph : t -> Digraph.t
(** Forget constraints: node ids become graph nodes, wildcard edge labels
    become ["*"].  Used for display. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
