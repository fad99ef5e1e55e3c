(* Both unary operators are memoized on (parameters, ontology revision):
   an unchanged ontology answers repeated filter/extract calls from the
   cache, a mutated one carries a fresh revision and recomputes.  The
   inner Matcher.find calls have their own cache, so even a cold
   filter/extract on a previously matched (ontology, pattern) pair skips
   the subgraph search. *)

let filter_cache : (Fuzzy.policy option * Pattern.t * int, Ontology.t) Lru.t =
  Lru.create ~name:"filter_extract.filter" ~capacity:256 ()

let extract_cache :
    (Fuzzy.policy option * string list * bool * Pattern.t * int, Ontology.t) Lru.t =
  Lru.create ~name:"filter_extract.extract" ~capacity:256 ()

let filter ?policy o pattern =
  Lru.find_or_compute filter_cache (policy, pattern, Ontology.revision o)
  @@ fun () ->
  let g = Ontology.graph o in
  let matches = Matcher.find ?policy ~limit:100_000 pattern g in
  let selected =
    List.fold_left
      (fun acc m -> Digraph.union acc (Matcher.matched_subgraph g pattern m))
      Digraph.empty matches
  in
  Ontology.with_graph o selected

let filter_terms ?policy o pattern =
  Digraph.nodes (Ontology.graph (filter ?policy o pattern))

let extract ?policy ?(follow = [ Rel.attribute_of ]) ?(include_subclasses = true)
    o pattern =
  Lru.find_or_compute extract_cache
    (policy, follow, include_subclasses, pattern, Ontology.revision o)
  @@ fun () ->
  let g = Ontology.graph o in
  let matches = Matcher.find ?policy ~limit:100_000 pattern g in
  let matched =
    List.concat_map
      (fun (m : Matcher.match_result) -> List.map snd m.Matcher.assignment)
      matches
    |> List.sort_uniq String.compare
  in
  let with_subclasses =
    if not include_subclasses then matched
    else
      matched
      @ List.concat_map (fun t -> Ontology.all_subclasses o t) matched
      |> List.sort_uniq String.compare
  in
  let closure =
    Traversal.reachable_set ~follow:(Traversal.only follow) g with_subclasses
  in
  let keep = List.sort_uniq String.compare (with_subclasses @ closure) in
  Ontology.restrict o keep
