type match_result = {
  assignment : (string * Digraph.node) list;
  bindings : (string * Digraph.node) list;
}

module Smap = Map.Make (String)
module Sset = Set.Make (String)

(* Memoized matching: keyed on every parameter that shapes the result plus
   the graph's revision stamp.  The key is closure-free data (the policy's
   lexicon is a pure map), compared structurally, so hits are exact; a
   mutated graph carries a new revision and misses.  The cache is
   semantically invisible (proved by the qcheck equivalence property in
   test/test_cache_equiv.ml); the executor below is proved equivalent to
   the naive Matcher_reference, with the label index cold and warm, by
   test/test_matcher_equiv.ml. *)
let cache :
    ( Fuzzy.policy * bool * int * [ `Most_constrained | `Declaration ] * Pattern.t * int,
      match_result list )
    Lru.t =
  Lru.create ~name:"matcher.find" ~capacity:512 ()

(* Pattern edges incident to each pattern node, precomputed once per
   search; shared by candidate generation and the incremental edge
   check. *)
let incident_table pattern =
  let tbl : (string, Pattern.edge list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Pattern.edge) ->
      let push id =
        Hashtbl.replace tbl id
          (e :: Option.value (Hashtbl.find_opt tbl id) ~default:[])
      in
      push e.src;
      if not (String.equal e.src e.dst) then push e.dst)
    (Pattern.edges pattern);
  fun id -> Option.value (Hashtbl.find_opt tbl id) ~default:[]

(* Is the pattern edge (now fully assigned) witnessed in g?  One
   mem_edge / labels_between probe — the engine validates edges
   incrementally, precisely when the second endpoint is assigned.  The
   naive reference instead re-validates all assigned edges by rescanning
   out_edges at every step; an edge once witnessed stays witnessed (the
   graph does not change mid-search), so checking each edge once accepts
   exactly the same partial assignments. *)
let edge_witnessed g ~exact_edges policy assignment (e : Pattern.edge) =
  let s = Smap.find e.src assignment and d = Smap.find e.dst assignment in
  match e.elabel with
  | Some l when exact_edges -> Digraph.mem_edge g s l d
  | None -> Digraph.labels_between g s d <> []
  | Some l ->
      List.exists
        (fun gl -> Fuzzy.edge_compatible policy l gl)
        (Digraph.labels_between g s d)

(* The backtracking engine.  Equivalence with the naive search
   (Matcher_reference) rests on the candidate function only ever
   shrinking candidate sets by necessary conditions while preserving the
   sorted visit order: pruned candidates head subtrees the
   naive search would enter and exhaust without emitting a match, and
   [limit] counts complete matches, so pruning dead subtrees can never
   change which matches are found or in which order. *)
let run ~injective ~limit ~order ~pattern ~incident_to ~edge_witnessed
    ~candidates =
  let results = ref [] in
  let count = ref 0 in
  (* Cooperative cancellation: consult the ambient {!Deadline} every
     1024 assignment steps.  The mask keeps the check off the inner-loop
     hot path; [Deadline.check] itself is two atomic loads when no
     deadline is installed, so deadline-free matching is unaffected. *)
  let steps = ref 0 in
  let rec assign assignment used = function
    | [] ->
        if !count < limit then begin
          incr count;
          let assignment_list = Smap.bindings assignment in
          let bindings =
            Pattern.nodes pattern
            |> List.filter_map (fun (n : Pattern.node) ->
                   match n.binder with
                   | Some v -> Some (v, Smap.find n.id assignment)
                   | None -> None)
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          in
          results := { assignment = assignment_list; bindings } :: !results
        end
    | (pn : Pattern.node) :: rest ->
        incr steps;
        if !steps land 1023 = 0 then Deadline.check ();
        if !count >= limit then ()
        else
          List.iter
            (fun candidate ->
              if not (injective && Sset.mem candidate used) then begin
                let assignment' = Smap.add pn.id candidate assignment in
                let ok =
                  List.for_all
                    (fun (e : Pattern.edge) ->
                      (not
                         (Smap.mem e.src assignment'
                         && Smap.mem e.dst assignment'))
                      || edge_witnessed assignment' e)
                    (incident_to pn.id)
                in
                if ok then assign assignment' (Sset.add candidate used) rest
              end)
            (candidates pn assignment)
  in
  (* An already-expired deadline must cancel even a search too small to
     cross the step mask, so the entry check is unconditional. *)
  Deadline.check ();
  assign Smap.empty Sset.empty order;
  List.rev !results

(* Candidates for [pn] anchored on an already-bound pattern neighbour,
   read straight off the graph's adjacency lists (sorted, distinct):
   exactly the nodes that can witness the linking edge.  Adjacency is
   not an index — it is the graph's own representation — so anchoring
   needs no build. *)
let anchored_candidates g ~exact_edges ~incident_to (pn : Pattern.node)
    assignment =
  List.find_map
    (fun (e : Pattern.edge) ->
      if String.equal e.src pn.id then
        match Smap.find_opt e.dst assignment with
        | Some b -> (
            (* candidate --elabel--> bound *)
            match e.elabel with
            | Some l when exact_edges -> Some (Digraph.pred_by g b l)
            | _ -> Some (Digraph.pred g b))
        | None -> None
      else
        match Smap.find_opt e.src assignment with
        | Some b -> (
            (* bound --elabel--> candidate *)
            match e.elabel with
            | Some l when exact_edges -> Some (Digraph.succ_by g b l)
            | _ -> Some (Digraph.succ g b))
        | None -> None)
    (incident_to pn.id)

(* The executor.  Anchored positions enumerate the bound neighbour's
   adjacency; an unanchored position scans the graph's node list (the
   strategy of Matcher_reference, with the engine's incremental edge
   checks in place of the reference's whole-assignment rescans) — unless
   this revision's {!Label_index} is already memoized and the position
   has an exactly-labeled incident edge, in which case it seeds from that
   label's bucket.  Buckets are sorted subsets of the node list holding
   every node that can witness the edge, so seeding drops only dead
   subtrees.  The matcher never builds an index: [Label_index.peek]
   returns one only if it exists, so a cold search pays nothing for it
   and a warm/cold check cannot race into a build. *)
let search ~policy ~injective ~limit ~order pattern g =
  let exact_edges = Fuzzy.edge_labels_exact policy in
  let idx = if exact_edges then Label_index.peek g else None in
  let all_nodes = lazy (Digraph.nodes g) in
  let incident_to = incident_table pattern in
  let seed (pn : Pattern.node) =
    match idx with
    | None -> None
    | Some idx ->
        List.find_map
          (fun (e : Pattern.edge) ->
            match e.elabel with
            | Some l when String.equal e.src pn.id ->
                Some (Label_index.sources_with idx l)
            | Some l when String.equal e.dst pn.id ->
                Some (Label_index.targets_with idx l)
            | _ -> None)
          (incident_to pn.id)
  in
  let candidates (pn : Pattern.node) assignment =
    match pn.label with
    | Some want when policy = Fuzzy.exact ->
        if Digraph.mem_node g want then [ want ] else []
    | _ -> (
        let base =
          match
            anchored_candidates g ~exact_edges ~incident_to pn assignment
          with
          | Some c -> c
          | None -> (
              match seed pn with Some s -> s | None -> Lazy.force all_nodes)
        in
        match pn.label with
        | None -> base
        | Some want ->
            List.filter (fun n -> Fuzzy.node_compatible policy want n) base)
  in
  run ~injective ~limit ~order ~pattern ~incident_to
    ~edge_witnessed:(edge_witnessed g ~exact_edges policy)
    ~candidates

let find ?(policy = Fuzzy.exact) ?(injective = false) ?(limit = 1000)
    ?(node_order = `Most_constrained) pattern g =
  Lru.find_or_compute cache
    (policy, injective, limit, node_order, pattern, Digraph.revision g)
  @@ fun () ->
  let order =
    match node_order with
    | `Most_constrained -> Pattern.search_order pattern
    | `Declaration -> Pattern.nodes pattern
  in
  search ~policy ~injective ~limit ~order pattern g

let matches ?policy pattern g = find ?policy ~limit:1 pattern g <> []

let find_in_ontology ?policy ?injective ?limit pattern o =
  match Pattern.ontology_hint pattern with
  | Some hint when not (String.equal hint (Ontology.name o)) -> []
  | _ -> find ?policy ?injective ?limit pattern (Ontology.graph o)

let matched_subgraph g pattern m =
  let lookup id =
    match List.assoc_opt id m.assignment with
    | Some n -> n
    | None ->
        invalid_arg
          (Printf.sprintf
             "Matcher.matched_subgraph: pattern node %s is not bound in this \
              match"
             id)
  in
  let base =
    List.fold_left
      (fun acc (_, node) -> Digraph.add_node acc node)
      Digraph.empty m.assignment
  in
  List.fold_left
    (fun acc (e : Pattern.edge) ->
      let s = lookup e.src and d = lookup e.dst in
      (* Include every graph edge between the matched endpoints that the
         pattern edge accepts; with an exact policy that is the single
         witnessing edge. *)
      List.fold_left
        (fun acc (ge : Digraph.edge) ->
          if
            String.equal ge.dst d
            && match e.elabel with None -> true | Some want -> String.equal want ge.label
          then Digraph.add_edge_e acc ge
          else acc)
        acc (Digraph.out_edges g s))
    base (Pattern.edges pattern)

let binding m v = List.assoc_opt v m.bindings
