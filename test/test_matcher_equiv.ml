(* The one-executor-is-the-naive-matcher property: over random graphs
   and patterns, Matcher.find (adjacency-anchored candidates, label-bucket
   seeds when the index is warm, incremental edge checks) must return
   exactly what the preserved naive search Matcher_reference.find returns
   — same matches, same order, same bindings — across exact and fuzzy
   policies, injective on and off, both node orders, and with the
   Label_index both cold and warm.  The property runs 600 random cases.

   Two pins cover the warm/cold rule directly: a labeled-anchor find
   leaves the index unbuilt, and a rare-label graph answers the same
   warm and cold.

   A second family checks that the Domain_pool fan-out is invisible:
   Filter_extract.filter mapped over the pool, Federation.of_parts and
   Mediator.run must produce identical results at pool size 1
   (sequential fallback) and pool size 4. *)

let node_pool = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "cars"; "auto" ]
let label_pool = [ "S"; "A"; "I"; "SI"; "x" ]

let edge_gen =
  let open QCheck.Gen in
  map3
    (fun s l d -> { Digraph.src = s; label = l; dst = d })
    (oneofl node_pool) (oneofl label_pool) (oneofl node_pool)

(* Patterns of 1-4 nodes (labeled or wildcard, occasionally bound) with
   random edges between any two pattern positions — chains, forks,
   diamonds and self-loops all occur. *)
let pattern_gen =
  let open QCheck.Gen in
  int_range 1 4 >>= fun n ->
  let pnode i =
    pair
      (oneof [ return None; map (fun l -> Some l) (oneofl node_pool) ])
      (oneof [ return None; return (Some (Printf.sprintf "V%d" i)) ])
    >>= fun (label, binder) ->
    return { Pattern.id = Printf.sprintf "p%d" i; label; binder }
  in
  let pedge =
    map3
      (fun s d elabel ->
        {
          Pattern.src = Printf.sprintf "p%d" (s mod n);
          elabel;
          dst = Printf.sprintf "p%d" (d mod n);
        })
      (int_range 0 (n - 1))
      (int_range 0 (n - 1))
      (oneof [ return None; map (fun l -> Some l) (oneofl label_pool) ])
  in
  let rec gen_nodes i =
    if i >= n then return []
    else
      pnode i >>= fun nd ->
      gen_nodes (i + 1) >>= fun rest -> return (nd :: rest)
  in
  gen_nodes 0 >>= fun nodes ->
  list_size (int_range 0 (n + 1)) pedge >>= fun edges ->
  (* Duplicate pattern edges are legal; Pattern.create validates ids. *)
  return (Pattern.create ~nodes ~edges ())

(* 0 = exact, 1 = synonyms+stemming, 2 = edge labels ignored,
   3 = extra edge pair (S ~ SI). *)
let policy_of_tag = function
  | 0 -> Fuzzy.exact
  | 1 -> Fuzzy.with_synonyms Lexicon.builtin
  | 2 -> { Fuzzy.exact with Fuzzy.ignore_edge_labels = true }
  | _ -> { Fuzzy.exact with Fuzzy.extra_edge_pairs = [ ("S", "SI") ] }

let policy_name = function
  | 0 -> "exact"
  | 1 -> "synonyms"
  | 2 -> "ignore-edges"
  | _ -> "extra-pairs"

let case =
  let open QCheck.Gen in
  let g =
    pattern_gen >>= fun pattern ->
    list_size (int_range 0 25) edge_gen >>= fun edges ->
    int_range 0 3 >>= fun policy_tag ->
    bool >>= fun injective ->
    bool >>= fun declaration_order ->
    int_range 1 60 >>= fun limit ->
    return (edges, pattern, policy_tag, injective, declaration_order, limit)
  in
  QCheck.make
    ~print:(fun (edges, pattern, tag, injective, decl, limit) ->
      Format.asprintf
        "@[<v>graph=%a@ pattern=%a@ policy=%s injective=%b order=%s limit=%d@]"
        Digraph.pp (Digraph.of_edges edges) Pattern.pp pattern
        (policy_name tag) injective
        (if decl then "declaration" else "most-constrained")
        limit)
    g

let prop_find_equals_reference =
  QCheck.Test.make ~count:600
    ~name:"Matcher.find, index cold and warm = Matcher_reference.find"
    case
    (fun (edges, pattern, tag, injective, decl, limit) ->
      let g = Digraph.of_edges edges in
      let policy = policy_of_tag tag in
      let node_order = if decl then `Declaration else `Most_constrained in
      let reference =
        Matcher_reference.find ~policy ~injective ~limit ~node_order pattern g
      in
      let find () =
        Matcher.find ~policy ~injective ~limit ~node_order pattern g
      in
      (* Cold: unless an earlier case memoized an index for an equal
         revision, unanchored nodes scan the node list.  Either way
         [find] never builds the index itself. *)
      let warm_before = Label_index.peek g <> None in
      ignore (Cache_stats.clear "matcher.find");
      let cold = find () in
      let built_by_find = (not warm_before) && Label_index.peek g <> None in
      (* Warm: with the index memoized, unanchored nodes seed from label
         buckets; the result cache is cleared so the search reruns. *)
      ignore (Label_index.of_graph g);
      ignore (Cache_stats.clear "matcher.find");
      let warm = find () in
      (* And through the result cache. *)
      let cached = find () in
      (not built_by_find) && cold = reference && warm = reference
      && cached = reference)

let profile n = { Gen.default_profile with Gen.n_terms = n }

(* The BENCH labeled-anchor family: an exactly-labeled anchor (the
   source of some SubclassOf edge in this very graph) linked to one
   wildcard neighbour. *)
let labeled_anchor_pattern g =
  let anchor =
    match
      List.find_opt
        (fun (e : Digraph.edge) -> String.equal e.label Rel.subclass_of)
        (Digraph.edges g)
    with
    | Some e -> e.src
    | None -> List.hd (Digraph.nodes g)
  in
  Pattern.create
    ~nodes:
      [
        { Pattern.id = "a"; label = Some anchor; binder = None };
        { Pattern.id = "b"; label = None; binder = Some "Y" };
      ]
    ~edges:[ { Pattern.src = "a"; elabel = Some Rel.subclass_of; dst = "b" } ]
    ()

let test_labeled_anchor_leaves_index_unbuilt () =
  (* The BENCH family at n=2000: the answer is the reference's, and the
     find must not pay the O(N + E) index build (the root cause of the
     historic 10x labeled-anchor regression). *)
  let o = Gen.ontology ~profile:(profile 2000) ~seed:17 ~name:"g" () in
  let g = Ontology.graph o in
  let labeled = labeled_anchor_pattern g in
  Cache_stats.clear_all ();
  let found = Matcher.find labeled g in
  Alcotest.(check bool) "same answer" true
    (found = Matcher_reference.find labeled g);
  Alcotest.(check bool) "at least one match (the anchor is real)" true
    (found <> []);
  Alcotest.(check bool) "find left the label index unbuilt" true
    (Label_index.peek g = None)

let test_rare_label_warm_equals_cold () =
  (* 200 nodes chained with a common label and ONE rare "R" edge: for
     [?X -[R]-> ?Y] a warm index seeds from R's one-element bucket, a
     cold search walks all 200 nodes.  Both must give the one match. *)
  let g =
    Digraph.of_edges
      ({ Digraph.src = "rsrc"; label = "R"; dst = "rdst" }
      :: List.init 199 (fun i ->
             {
               Digraph.src = Printf.sprintf "s%d" i;
               label = "S";
               dst = Printf.sprintf "s%d" (i + 1);
             }))
  in
  let rare = Pattern_parser.parse_exn "?X -[R]-> ?Y" in
  let reference = Matcher_reference.find rare g in
  Cache_stats.clear_all ();
  let cold = Matcher.find rare g in
  Alcotest.(check bool) "cold find left the index unbuilt" true
    (Label_index.peek g = None);
  ignore (Label_index.of_graph g);
  ignore (Cache_stats.clear "matcher.find");
  let warm = Matcher.find rare g in
  Alcotest.(check int) "one match" 1 (List.length reference);
  Alcotest.(check bool) "cold = reference" true (cold = reference);
  Alcotest.(check bool) "warm = reference" true (warm = reference)

(* Matcher determinism under pool sizes: the matcher itself is
   sequential, but everything feeding it (index build, cache traffic from
   concurrent pool tasks) must leave results untouched.  Run the same
   filters across the pool at ONION_DOMAINS-equivalent sizes 1 and 4 and
   demand identical ontologies in identical order. *)
let prop_pool_size_invisible =
  QCheck.Test.make ~count:60
    ~name:"Domain_pool.map Filter_extract.filter: pool size 1 = 4"
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
       QCheck.Gen.(int_range 0 5_000))
    (fun seed ->
      let o =
        Gen.ontology
          ~profile:{ Gen.default_profile with Gen.n_terms = 40 }
          ~seed ~name:"g" ()
      in
      let patterns =
        [
          Pattern_parser.parse_exn "?X -[SubclassOf]-> ?Y";
          Pattern_parser.parse_exn "?X -[SubclassOf]-> ?Y -[SubclassOf]-> ?Z";
          Pattern_parser.parse_exn "?X :?Y";
          Pattern.term (List.hd (Ontology.terms o));
        ]
      in
      let at k =
        Domain_pool.with_size k (fun () ->
            Cache_stats.with_disabled (fun () ->
                Domain_pool.map (Filter_extract.filter o) patterns))
      in
      let seq = at 1 and par = at 4 in
      List.for_all2 Ontology.equal seq par)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Federation and mediation fan-out: identical query spaces and reports
   at pool sizes 1 and 4. *)
let test_federation_pool_sizes () =
  let sources =
    List.init 5 (fun i ->
        Gen.ontology
          ~profile:{ Gen.default_profile with Gen.n_terms = 60 }
          ~seed:(50 + i)
          ~name:(Printf.sprintf "src%d" i)
          ())
  in
  let space_at n =
    Domain_pool.with_size n (fun () ->
        Federation.of_parts ~sources ~articulations:[])
  in
  let f1 = space_at 1 and f4 = space_at 4 in
  check_bool "same federation graph" true
    (Digraph.equal f1.Federation.graph f4.Federation.graph);
  Alcotest.(check (list string))
    "same source names"
    (Federation.source_names f1)
    (Federation.source_names f4)

let test_mediator_pool_sizes () =
  let r = Paper_example.articulation () in
  let left = r.Generator.updated_left and right = r.Generator.updated_right in
  let u = Algebra.union ~left ~right r.Generator.articulation in
  let kb1 = Query_gen.instances_for ~seed:3 ~per_concept:40 left ~kb_name:"kb1" in
  let kb2 = Query_gen.instances_for ~seed:4 ~per_concept:40 right ~kb_name:"kb2" in
  let env = Mediator.env ~kbs:[ kb1; kb2 ] ~unified:u () in
  let q = Query.parse_exn "SELECT Price FROM Vehicle WHERE Price < 20000" in
  let run_at n =
    Domain_pool.with_size n (fun () ->
        match Mediator.run ~pushdown:true env q with
        | Ok report -> report
        | Error m -> Alcotest.failf "mediator failed: %s" m)
  in
  let r1 = run_at 1 and r4 = run_at 4 in
  check_int "same tuple count" (List.length r1.Mediator.tuples)
    (List.length r4.Mediator.tuples);
  check_bool "same tuples" true (r1.Mediator.tuples = r4.Mediator.tuples);
  check_int "same scanned" r1.Mediator.scanned r4.Mediator.scanned;
  check_int "same transferred" r1.Mediator.transferred r4.Mediator.transferred;
  check_bool "same failures" true
    (r1.Mediator.conversion_failures = r4.Mediator.conversion_failures)

let test_matched_subgraph_total () =
  let g = Digraph.of_edges [ { Digraph.src = "a"; label = "S"; dst = "b" } ] in
  let p = Pattern_parser.parse_exn "a -[S]-> b" in
  match Matcher.find p g with
  | [ m ] -> (
      (* A match from a different pattern misses this pattern's ids: the
         lookup must fail loudly, naming the missing id, not raise a bare
         Not_found. *)
      let other =
        Pattern.create
          ~nodes:[ { Pattern.id = "zz"; label = None; binder = None } ]
          ~edges:[ { Pattern.src = "zz"; elabel = None; dst = "zz" } ]
          ()
      in
      let contains ~sub s =
        let n = String.length sub and m = String.length s in
        let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
        at 0
      in
      match Matcher.matched_subgraph g other m with
      | exception Invalid_argument msg ->
          check_bool "names the missing id" true (contains ~sub:"zz" msg)
      | _ -> Alcotest.fail "expected Invalid_argument")
  | _ -> Alcotest.fail "expected exactly one match"

let suite =
  [
    ( "matcher-equivalence",
      List.map QCheck_alcotest.to_alcotest
        [ prop_find_equals_reference; prop_pool_size_invisible ]
      @ [
          Alcotest.test_case "labeled-anchor find leaves index unbuilt" `Quick
            test_labeled_anchor_leaves_index_unbuilt;
          Alcotest.test_case "rare label: warm = cold" `Quick
            test_rare_label_warm_equals_cold;
        ] );
    ( "multicore-determinism",
      [
        Alcotest.test_case "federation pool sizes" `Quick
          test_federation_pool_sizes;
        Alcotest.test_case "mediator pool sizes" `Quick test_mediator_pool_sizes;
        Alcotest.test_case "matched_subgraph total" `Quick
          test_matched_subgraph_total;
      ] );
  ]
