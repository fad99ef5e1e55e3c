(** Relaxed ("fuzzy") matching policies.

    Section 3: "apart from the strict match described above, the domain
    interoperation expert can define versions of fuzzy matching.  For
    example, the expert can indicate a set of synonyms and provide a rule
    that would relax the first condition ... Alternatively, the second
    condition that requires edges to have the same label may not be
    strictly enforced."

    A policy bundles the expert-supplied relaxations; {!node_compatible} /
    {!edge_compatible} are consumed by {!Matcher} and by
    {!Morphism.compat}. *)

type policy = {
  case_insensitive : bool;
  stemming : bool;  (** Labels equal modulo {!Stem.stem_label}. *)
  synonyms : Lexicon.t option;
      (** Labels match when the lexicon holds them synonymous. *)
  similarity_threshold : float option;
      (** Accept label pairs whose {!Strsim.combined} score reaches the
          threshold. *)
  ignore_edge_labels : bool;
      (** Drop the edge-label equality condition entirely. *)
  extra_edge_pairs : (string * string) list;
      (** Specific relationship pairs declared interchangeable by the
          expert (order-insensitive). *)
}

val exact : policy
(** The strict match of the paper's formal definition. *)

val with_synonyms : Lexicon.t -> policy
(** Exact plus lexicon synonymy and stemming. *)

val lenient : Lexicon.t -> policy
(** Synonyms, stemming, case-insensitivity and a 0.85 similarity
    threshold — the loosest stock policy. *)

val node_compatible : policy -> string -> string -> bool
(** [node_compatible policy pattern_label graph_label]. *)

val edge_compatible : policy -> string -> string -> bool

val edge_labels_exact : policy -> bool
(** Does the policy witness a pattern edge labeled [l] exactly by graph
    edges labeled [l]?  True for {!exact} and any policy that neither
    ignores edge labels nor declares extra interchangeable pairs; when
    true, label-keyed index buckets and label-directed adjacency are
    sound candidate sources for the matcher. *)

val to_morphism_compat : policy -> Morphism.compat
