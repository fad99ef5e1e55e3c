(* The benchmark harness: one section per experiment id of DESIGN.md
   (FIG2, ALG, SCALE-ART, MAINT, SKAT, QRY, PAT, INF).

   The paper (EDBT 2000) carries no quantitative tables; each section
   regenerates the quantitative backing for one of its qualitative claims,
   or the worked example itself.  Timings are Bechamel OLS estimates of
   ns/run on this machine; shape metrics (counts, costs, precision/recall)
   are computed exactly and deterministically. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                    *)
(* ------------------------------------------------------------------ *)

let benchmark_group tests =
  let test = Test.make_grouped ~name:"" tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:1500 ~quota:(Time.second 0.3) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  Analyze.all ols Instance.monotonic_clock raw

let pp_time ppf ns =
  if ns < 1_000.0 then Format.fprintf ppf "%8.1f ns" ns
  else if ns < 1_000_000.0 then Format.fprintf ppf "%8.2f us" (ns /. 1_000.0)
  else if ns < 1_000_000_000.0 then Format.fprintf ppf "%8.2f ms" (ns /. 1_000_000.0)
  else Format.fprintf ppf "%8.2f s " (ns /. 1_000_000_000.0)

(* (name, ns/run) estimates for a group, sorted by name. *)
let ols_estimates tests =
  let results = benchmark_group tests in
  Hashtbl.fold
    (fun name ols acc ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | _ -> Float.nan
      in
      (* Strip the empty group prefix "/". *)
      let name =
        match String.index_opt name '/' with
        | Some i -> String.sub name (i + 1) (String.length name - i - 1)
        | None -> name
      in
      (name, estimate) :: acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let print_timings title tests =
  Format.printf "  %-46s %12s@." (title ^ " (time/run)") "";
  List.iter
    (fun (name, estimate) ->
      Format.printf "    %-44s %a@." name pp_time estimate)
    (ols_estimates tests)

let section id title =
  Format.printf "@.== %s — %s ==@." id title

let row fmt = Format.printf ("    " ^^ fmt ^^ "@.")

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                    *)
(* ------------------------------------------------------------------ *)

let profile n = { Gen.default_profile with Gen.n_terms = n }

let pair_of_size ?(overlap = 0.2) ?(seed = 42) n =
  Gen.overlapping_pair ~profile:(profile n) ~overlap ~seed ~left_name:"left"
    ~right_name:"right" ()

let articulate_pair (p : Gen.pair) =
  Generator.generate ~articulation_name:"mid" ~left:p.Gen.left
    ~right:p.Gen.right p.Gen.ground_truth

(* ------------------------------------------------------------------ *)
(* FIG2 — the paper's worked example                                  *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "FIG2" "articulation of carrier and factory (paper fig. 2)";
  let r = Paper_example.articulation () in
  let art = r.Generator.articulation in
  row "articulation terms: %s"
    (String.concat ", " (Ontology.terms (Articulation.ontology art)));
  row "bridges: %d (17 expected)" (Articulation.nb_bridges art);
  let u = Paper_example.unified () in
  row "unified ontology: %d nodes, %d edges (28/40 expected)"
    (Digraph.nb_nodes u.Algebra.graph)
    (Digraph.nb_edges u.Algebra.graph);
  let d =
    Algebra.difference ~minuend:r.Generator.updated_left
      ~subtrahend:r.Generator.updated_right art
  in
  row "carrier - factory keeps: %s" (String.concat ", " (Ontology.terms d));
  print_timings "fig2"
    [
      Test.make ~name:"articulate"
        (Staged.stage (fun () -> Paper_example.articulation ()));
      Test.make ~name:"union"
        (Staged.stage (fun () ->
             Algebra.union ~left:r.Generator.updated_left
               ~right:r.Generator.updated_right art));
      Test.make ~name:"intersection"
        (Staged.stage (fun () -> Algebra.intersection art));
      Test.make ~name:"difference"
        (Staged.stage (fun () ->
             Algebra.difference ~minuend:r.Generator.updated_left
               ~subtrahend:r.Generator.updated_right art));
    ]

(* ------------------------------------------------------------------ *)
(* ALG — algebra scaling                                              *)
(* ------------------------------------------------------------------ *)

let alg () =
  section "ALG" "union / intersection / difference vs ontology size";
  let sizes = [ 100; 300; 1000 ] in
  let tests =
    List.concat_map
      (fun n ->
        let p = pair_of_size n in
        let r = articulate_pair p in
        let art = r.Generator.articulation in
        let left = r.Generator.updated_left in
        let right = r.Generator.updated_right in
        row "n=%4d: left %d terms, right %d terms, %d bridges" n
          (Ontology.nb_terms left) (Ontology.nb_terms right)
          (Articulation.nb_bridges art);
        [
          Test.make ~name:(Printf.sprintf "union        n=%4d" n)
            (Staged.stage (fun () -> Algebra.union ~left ~right art));
          Test.make ~name:(Printf.sprintf "intersection n=%4d" n)
            (Staged.stage (fun () -> Algebra.intersection art));
          Test.make ~name:(Printf.sprintf "difference   n=%4d" n)
            (Staged.stage (fun () ->
                 Algebra.difference ~minuend:left ~subtrahend:right art));
        ])
      sizes
  in
  print_timings "algebra" tests

(* ------------------------------------------------------------------ *)
(* SCALE-ART — adding a source: articulation vs global schema          *)
(* ------------------------------------------------------------------ *)

let scale_art () =
  section "SCALE-ART"
    "cost of adding the k-th source: pairwise articulation (against the \
     composed intersection) vs global-schema re-integration";
  let n_terms = 150 in
  let family = Gen.family ~profile:(profile n_terms) ~overlap:0.2 ~n:6 ~seed:7 ~prefix:"src" () in
  let arr = Array.of_list family in
  (* Articulation tower: articulate src0/src1, then fold each next source
     against the previous intersection.  SKAT scan cost approximates the
     matching effort: |candidate pairs| examined. *)
  let articulation_scan_cost left right =
    Ontology.nb_terms left * Ontology.nb_terms right
  in
  let rec tower k current_intersection acc =
    if k >= Array.length arr then List.rev acc
    else begin
      let right = arr.(k) in
      let scan = articulation_scan_cost current_intersection right in
      let suggestions =
        Skat.suggest
          ~config:{ Skat.default_config with Skat.min_score = 0.9 }
          ~left:current_intersection ~right ()
      in
      let rules = List.map (fun (s : Skat.suggestion) -> s.Skat.rule) suggestions in
      let r =
        Generator.generate ~articulation_name:(Printf.sprintf "art%d" k)
          ~left:current_intersection ~right rules
      in
      tower (k + 1)
        (Algebra.intersection r.Generator.articulation)
        ((k, scan) :: acc)
    end
  in
  let art_costs =
    let first = articulation_scan_cost arr.(0) arr.(1) in
    let suggestions =
      Skat.suggest
        ~config:{ Skat.default_config with Skat.min_score = 0.9 }
        ~left:arr.(0) ~right:arr.(1) ()
    in
    let rules = List.map (fun (s : Skat.suggestion) -> s.Skat.rule) suggestions in
    let r =
      Generator.generate ~articulation_name:"art1" ~left:arr.(0) ~right:arr.(1)
        rules
    in
    (1, first) :: tower 2 (Algebra.intersection r.Generator.articulation) []
  in
  row "%-10s %20s %24s %8s" "k-th join" "articulation scan" "global re-integration"
    "ratio";
  List.iter
    (fun (k, art_cost) ->
      let sources = Array.to_list (Array.sub arr 0 (k + 1)) in
      let g = Global_schema.integrate ~name:"global" sources in
      row "%-10d %20d %24d %8.1fx" (k + 1) art_cost g.Global_schema.comparisons
        (float_of_int g.Global_schema.comparisons /. float_of_int (max 1 art_cost)))
    art_costs;
  print_timings "scale"
    [
      Test.make ~name:"articulate pair (150 terms)"
        (Staged.stage (fun () ->
             let p = pair_of_size n_terms in
             articulate_pair p));
      Test.make ~name:"global integrate 2 sources"
        (Staged.stage (fun () ->
             Global_schema.integrate ~name:"g" [ arr.(0); arr.(1) ]));
      Test.make ~name:"global integrate 6 sources"
        (Staged.stage (fun () ->
             Global_schema.integrate ~name:"g" family));
    ]

(* ------------------------------------------------------------------ *)
(* MAINT — maintenance under churn                                    *)
(* ------------------------------------------------------------------ *)

let maint () =
  section "MAINT"
    "source churn: articulation work units vs global re-integration \
     comparisons (claim: independent-region changes are free)";
  let p = pair_of_size 200 ~seed:11 in
  let r = articulate_pair p in
  let art = r.Generator.articulation in
  let left = r.Generator.updated_left and right = r.Generator.updated_right in
  let n_left = Ontology.nb_terms left in
  row "%-12s %8s %14s %16s %14s" "churn" "edits" "touched-edits"
    "articulation-wu" "global-cmps";
  List.iter
    (fun pct ->
      let count = max 1 (n_left * pct / 100) in
      let script = Change.random_script ~seed:23 ~count left in
      let report =
        Maintenance.simulate ~articulation:art ~left ~right ~change_left:script ()
      in
      row "%-12s %8d %14d %16d %14d"
        (Printf.sprintf "%d%%" pct)
        report.Maintenance.ops
        report.Maintenance.articulation_touched_ops
        report.Maintenance.articulation_cost report.Maintenance.global_cost)
    [ 2; 10; 25; 50 ];
  (* The free-region claim, isolated: edits confined to the independent
     region must cost exactly zero articulation work. *)
  let independent =
    List.filter
      (fun term -> Algebra.is_independent ~of_:left ~term art)
      (Ontology.terms left)
  in
  let free_script =
    Change.script_in_region ~seed:29 ~count:50 ~region:independent left
  in
  let free_report =
    Maintenance.simulate ~articulation:art ~left ~right ~change_left:free_script ()
  in
  row "independent-region edits: %d edits -> %d articulation work units (claim: 0)"
    free_report.Maintenance.ops free_report.Maintenance.articulation_cost;
  (* Incremental repair (Evolve) versus full regeneration under the same
     script: both end consistent, the repair touches only affected
     bridges. *)
  let script = Change.random_script ~seed:23 ~count:25 left in
  let repaired, _, repairs = Evolve.apply_script art ~source:left ~other:right script in
  row "25 random edits: incremental repair emitted %d repair items, %d -> %d bridges"
    (List.length repairs) (Articulation.nb_bridges art)
    (Articulation.nb_bridges repaired);
  let evolved = Change.apply_all left script in
  print_timings "maintenance"
    [
      Test.make ~name:"op cost query"
        (Staged.stage (fun () ->
             Maintenance.articulation_op_cost art ~source:left
               (Change.Remove_term (List.hd (Ontology.terms left)))));
      Test.make ~name:"difference (independence map)"
        (Staged.stage (fun () ->
             Algebra.difference ~minuend:left ~subtrahend:right art));
      Test.make ~name:"incremental repair (25 edits)"
        (Staged.stage (fun () ->
             Evolve.apply_script art ~source:left ~other:right script));
      Test.make ~name:"full regeneration after edits"
        (Staged.stage (fun () ->
             Generator.generate ~articulation_name:"mid" ~left:evolved ~right
               p.Gen.ground_truth));
      Test.make ~name:"global re-integration after edits"
        (Staged.stage (fun () ->
             Global_schema.integrate ~name:"g" [ evolved; right ]));
    ]

(* ------------------------------------------------------------------ *)
(* SKAT — suggestion quality and expert effort                        *)
(* ------------------------------------------------------------------ *)

let skat () =
  section "SKAT"
    "suggestion precision/recall vs ground truth; expert effort in the \
     session loop";
  row "%-24s %6s %10s %8s %8s %8s %10s" "workload" "shared" "suggested" "prec"
    "recall" "f1" "decisions";
  List.iter
    (fun (overlap, synonym_rate) ->
      let p =
        Gen.overlapping_pair ~profile:(profile 120) ~synonym_rate ~overlap
          ~seed:31 ~left_name:"a" ~right_name:"b" ()
      in
      let suggestions = Skat.suggest ~left:p.Gen.left ~right:p.Gen.right () in
      let suggested_bodies =
        List.map (fun (s : Skat.suggestion) -> s.Skat.rule.Rule.body) suggestions
      in
      let truth_bodies = List.map (fun (r : Rule.t) -> r.Rule.body) p.Gen.ground_truth in
      let tp =
        List.length
          (List.filter
             (fun b -> List.exists (Rule.equal_body b) truth_bodies)
             suggested_bodies)
      in
      let confusion =
        {
          Stats.tp;
          fp = List.length suggested_bodies - tp;
          fn = List.length truth_bodies - tp;
        }
      in
      let stats = Expert.new_stats () in
      let expert =
        Expert.counted stats (Expert.oracle ~ground_truth:p.Gen.ground_truth)
      in
      let _outcome =
        Session.run ~articulation_name:"mid" ~expert ~left:p.Gen.left
          ~right:p.Gen.right ()
      in
      row "%-24s %6d %10d %8.2f %8.2f %8.2f %10d"
        (Printf.sprintf "ovl=%.1f syn=%.1f" overlap synonym_rate)
        p.Gen.shared_concepts
        (List.length suggestions)
        (Stats.precision confusion) (Stats.recall confusion) (Stats.f1 confusion)
        stats.Expert.decisions)
    [ (0.1, 0.0); (0.1, 0.5); (0.3, 0.0); (0.3, 0.5); (0.3, 1.0) ];
  let p = Gen.overlapping_pair ~profile:(profile 120) ~overlap:0.3 ~seed:31
      ~left_name:"a" ~right_name:"b" () in
  (* Candidate blocking: near-linear scanning at a measured recall cost. *)
  let recall_of suggs =
    let truth = List.map (fun (r : Rule.t) -> r.Rule.body) p.Gen.ground_truth in
    let bodies = List.map (fun (s : Skat.suggestion) -> s.Skat.rule.Rule.body) suggs in
    let tp =
      List.length (List.filter (fun b -> List.exists (Rule.equal_body b) truth) bodies)
    in
    float_of_int tp /. float_of_int (max 1 (List.length truth))
  in
  let blocked_config = { Skat.default_config with Skat.blocking = true } in
  row "blocking: full scan recall %.2f; blocked recall %.2f"
    (recall_of (Skat.suggest ~left:p.Gen.left ~right:p.Gen.right ()))
    (recall_of (Skat.suggest ~config:blocked_config ~left:p.Gen.left ~right:p.Gen.right ()));
  print_timings "skat"
    [
      Test.make ~name:"suggest 120x120 (full scan)"
        (Staged.stage (fun () -> Skat.suggest ~left:p.Gen.left ~right:p.Gen.right ()));
      Test.make ~name:"suggest 120x120 (blocking)"
        (Staged.stage (fun () ->
             Skat.suggest ~config:blocked_config ~left:p.Gen.left ~right:p.Gen.right ()));
      Test.make ~name:"oracle session"
        (Staged.stage (fun () ->
             Session.run ~articulation_name:"mid"
               ~expert:(Expert.oracle ~ground_truth:p.Gen.ground_truth)
               ~left:p.Gen.left ~right:p.Gen.right ()));
    ]

(* ------------------------------------------------------------------ *)
(* QRY — mediated queries                                             *)
(* ------------------------------------------------------------------ *)

let qry () =
  section "QRY" "query reformulation and mediated execution across sources";
  let r = Paper_example.articulation () in
  let left = r.Generator.updated_left and right = r.Generator.updated_right in
  let u = Algebra.union ~left ~right r.Generator.articulation in
  let tests =
    List.concat_map
      (fun per_concept ->
        let kb1 =
          Query_gen.instances_for ~seed:3 ~per_concept left ~kb_name:"kb1"
        in
        let kb2 =
          Query_gen.instances_for ~seed:4 ~per_concept right ~kb_name:"kb2"
        in
        let env = Mediator.env ~kbs:[ kb1; kb2 ] ~unified:u () in
        let q = Query.parse_exn "SELECT Price FROM Vehicle WHERE Price < 20000" in
        (match Mediator.run env q with
        | Ok report ->
            row "per-concept=%3d: scanned %d, returned %d tuple(s)" per_concept
              report.Mediator.scanned
              (List.length report.Mediator.tuples)
        | Error m -> row "per-concept=%3d: ERROR %s" per_concept m);
        [
          Test.make ~name:(Printf.sprintf "plan  (reformulation)   k=%3d" per_concept)
            (Staged.stage (fun () ->
                 Rewrite.plan (Federation.of_unified u) ~conversions:Conversion.builtin q));
          Test.make ~name:(Printf.sprintf "run   (plan + execute)  k=%3d" per_concept)
            (Staged.stage (fun () -> Mediator.run env q));
        ])
      [ 10; 100 ]
  in
  print_timings "query" tests

(* ------------------------------------------------------------------ *)
(* PAT — pattern matching                                             *)
(* ------------------------------------------------------------------ *)

let pat () =
  section "PAT" "pattern matching cost: pattern size x graph size, exact vs fuzzy";
  let tests =
    List.concat_map
      (fun n ->
        let o = Gen.ontology ~profile:(profile n) ~seed:17 ~name:"g" () in
        let g = Ontology.graph o in
        let some_term = List.hd (Ontology.terms o) in
        let p1 = Pattern.term some_term in
        let p2 =
          Pattern_parser.parse_exn "?X -[SubclassOf]-> ?Y"
        in
        let p3 =
          Pattern_parser.parse_exn "?X -[SubclassOf]-> ?Y -[SubclassOf]-> ?Z"
        in
        let fuzzy = Fuzzy.with_synonyms Lexicon.builtin in
        [
          Test.make ~name:(Printf.sprintf "1-node exact       n=%4d" n)
            (Staged.stage (fun () -> Matcher.find p1 g));
          Test.make ~name:(Printf.sprintf "2-node wildcards   n=%4d" n)
            (Staged.stage (fun () -> Matcher.find ~limit:100 p2 g));
          Test.make ~name:(Printf.sprintf "3-node chain       n=%4d" n)
            (Staged.stage (fun () -> Matcher.find ~limit:100 p3 g));
          Test.make ~name:(Printf.sprintf "1-node fuzzy       n=%4d" n)
            (Staged.stage (fun () -> Matcher.find ~policy:fuzzy p1 g));
        ])
      [ 100; 1000 ]
  in
  print_timings "matcher" tests

(* ------------------------------------------------------------------ *)
(* INF — inference engine                                             *)
(* ------------------------------------------------------------------ *)

let inf () =
  section "INF" "Horn-clause inference: closure cost and derived volume";
  let chain depth =
    Digraph.of_edges
      (List.init depth (fun i ->
           {
             Digraph.src = Printf.sprintf "n%d" i;
             label = Rel.subclass_of;
             dst = Printf.sprintf "n%d" (i + 1);
           }))
  in
  List.iter
    (fun depth ->
      let r = Infer.run ~rules:Infer.default_rules (chain depth) in
      row "chain depth %4d: %6d derived edges in %3d rounds" depth
        (List.length r.Infer.derived)
        r.Infer.rounds)
    [ 25; 50; 100 ];
  let u = Paper_example.unified () in
  let r = Infer.run ~rules:Infer.default_rules u.Algebra.graph in
  row "paper unified graph: %d derived edges in %d rounds"
    (List.length r.Infer.derived)
    r.Infer.rounds;
  let synth = Gen.ontology ~profile:(profile 300) ~seed:19 ~name:"s" () in
  print_timings "infer"
    [
      Test.make ~name:"chain closure depth=50"
        (Staged.stage (fun () -> Infer.run ~rules:Infer.default_rules (chain 50)));
      Test.make ~name:"paper unified graph"
        (Staged.stage (fun () ->
             Infer.run ~rules:Infer.default_rules u.Algebra.graph));
      Test.make ~name:"synthetic 300-term ontology"
        (Staged.stage (fun () ->
             Infer.run ~rules:Infer.default_rules (Ontology.graph synth)));
      Test.make ~name:"registry closure (Ontology.closure)"
        (Staged.stage (fun () -> Ontology.closure synth));
    ]

(* ------------------------------------------------------------------ *)
(* ABL — ablations of the design choices DESIGN.md calls out           *)
(* ------------------------------------------------------------------ *)

let abl () =
  section "ABL" "ablations: inference strategy, matcher ordering, \
                 suggestion evidence, difference semantics, pushdown";
  (* 1. Semi-naive vs naive Horn evaluation (same fixpoint). *)
  let chain depth =
    Digraph.of_edges
      (List.init depth (fun i ->
           {
             Digraph.src = Printf.sprintf "n%d" i;
             label = Rel.subclass_of;
             dst = Printf.sprintf "n%d" (i + 1);
           }))
  in
  let g40 = chain 40 in
  (* 2. Matcher node ordering. *)
  let big = Ontology.graph (Gen.ontology ~profile:(profile 600) ~seed:13 ~name:"g" ()) in
  let hard_pattern =
    (* Wildcard first in declaration order: the naive order explodes. *)
    Pattern.create
      ~nodes:
        [
          { Pattern.id = "0/x"; label = None; binder = Some "X" };
          { Pattern.id = "1/y"; label = Some (List.hd (Digraph.nodes big)); binder = None };
        ]
      ~edges:[ { Pattern.src = "0/x"; elabel = None; dst = "1/y" } ]
      ()
  in
  (* 3. SKAT evidence: lexical vs structural vs combined P/R. *)
  let p =
    Gen.overlapping_pair ~profile:(profile 80) ~synonym_rate:0.8 ~overlap:0.3
      ~seed:37 ~left_name:"a" ~right_name:"b" ()
  in
  let truth_bodies = List.map (fun (r : Rule.t) -> r.Rule.body) p.Gen.ground_truth in
  let score name suggs =
    let bodies = List.map (fun (s : Skat.suggestion) -> s.Skat.rule.Rule.body) suggs in
    let tp =
      List.length
        (List.filter (fun b -> List.exists (Rule.equal_body b) truth_bodies) bodies)
    in
    let c = { Stats.tp; fp = List.length bodies - tp; fn = List.length truth_bodies - tp } in
    row "%-28s suggested %4d  precision %.2f  recall %.2f  f1 %.2f" name
      (List.length bodies) (Stats.precision c) (Stats.recall c) (Stats.f1 c)
  in
  score "evidence: lexical"
    (Skat.suggest ~left:p.Gen.left ~right:p.Gen.right ());
  score "evidence: structural"
    (Skat_structural.suggest
       ~config:{ Skat_structural.default_config with Skat_structural.min_score = 0.75 }
       ~left:p.Gen.left ~right:p.Gen.right ());
  score "evidence: combined"
    (Skat_structural.combined_suggest ~left:p.Gen.left ~right:p.Gen.right ());
  (* 4. Difference semantics: all edges vs semantic-only. *)
  let r = Paper_example.articulation () in
  let semantic =
    Traversal.only [ Rel.si_bridge; Rel.semantic_implication; Rel.subclass_of ]
  in
  let d_all =
    Algebra.difference ~minuend:r.Generator.updated_right
      ~subtrahend:r.Generator.updated_left r.Generator.articulation
  in
  let d_sem =
    Algebra.difference ~follow:semantic ~minuend:r.Generator.updated_right
      ~subtrahend:r.Generator.updated_left r.Generator.articulation
  in
  row "difference (factory-carrier): all-edges keeps %d terms, semantic keeps %d"
    (Ontology.nb_terms d_all) (Ontology.nb_terms d_sem);
  (* 5. Predicate pushdown: transferred tuples. *)
  let left = r.Generator.updated_left and right = r.Generator.updated_right in
  let u = Algebra.union ~left ~right r.Generator.articulation in
  let kb1 = Query_gen.instances_for ~seed:3 ~per_concept:100 left ~kb_name:"kb1" in
  let kb2 = Query_gen.instances_for ~seed:4 ~per_concept:100 right ~kb_name:"kb2" in
  let env = Mediator.env ~kbs:[ kb1; kb2 ] ~unified:u () in
  let q = Query.parse_exn "SELECT Price FROM Vehicle WHERE Price < 5000" in
  (match (Mediator.run env q, Mediator.run ~pushdown:true env q) with
  | Ok plain, Ok pushed ->
      row "pushdown: scanned %d, transferred %d -> %d (answers identical: %b)"
        plain.Mediator.scanned plain.Mediator.transferred
        pushed.Mediator.transferred
        (List.length plain.Mediator.tuples = List.length pushed.Mediator.tuples)
  | _ -> row "pushdown: query failed");
  print_timings "ablations"
    [
      Test.make ~name:"infer semi-naive (chain 40)"
        (Staged.stage (fun () -> Infer.run ~rules:Infer.default_rules g40));
      Test.make ~name:"infer naive      (chain 40)"
        (Staged.stage (fun () ->
             Infer.run ~strategy:`Naive ~rules:Infer.default_rules g40));
      Test.make ~name:"match constrained-first"
        (Staged.stage (fun () -> Matcher.find ~limit:50 hard_pattern big));
      Test.make ~name:"match declaration order"
        (Staged.stage (fun () ->
             Matcher.find ~limit:50 ~node_order:`Declaration hard_pattern big));
      Test.make ~name:"mediate without pushdown"
        (Staged.stage (fun () -> Mediator.run env q));
      Test.make ~name:"mediate with pushdown"
        (Staged.stage (fun () -> Mediator.run ~pushdown:true env q));
    ]

(* ------------------------------------------------------------------ *)
(* MED — the second worked domain (clinic / insurer)                   *)
(* ------------------------------------------------------------------ *)

let med () =
  section "MED" "the clinic/insurer fixture: lexicon-heavy alignment quality \
                 and the kg/lb mediation";
  let truth =
    List.map (fun (r : Rule.t) -> r.Rule.body) Medical_example.ground_truth_alignment
  in
  let score name suggs =
    let bodies = List.map (fun (s : Skat.suggestion) -> s.Skat.rule.Rule.body) suggs in
    let tp =
      List.length (List.filter (fun b -> List.exists (Rule.equal_body b) truth) bodies)
    in
    let c = { Stats.tp; fp = List.length bodies - tp; fn = List.length truth - tp } in
    row "%-22s suggested %3d  precision %.2f  recall %.2f" name (List.length bodies)
      (Stats.precision c) (Stats.recall c)
  in
  score "lexical"
    (Skat.suggest ~left:Medical_example.clinic ~right:Medical_example.insurer ());
  score "combined"
    (Skat_structural.combined_suggest ~left:Medical_example.clinic
       ~right:Medical_example.insurer ());
  let r = Medical_example.articulation () in
  row "expert rule set: %d bridges, %d warnings"
    (Articulation.nb_bridges r.Generator.articulation)
    (List.length r.Generator.warnings);
  print_timings "medical"
    [
      Test.make ~name:"articulate clinic/insurer"
        (Staged.stage (fun () -> Medical_example.articulation ()));
      Test.make ~name:"combined suggest"
        (Staged.stage (fun () ->
             Skat_structural.combined_suggest ~left:Medical_example.clinic
               ~right:Medical_example.insurer ()));
    ]

(* ------------------------------------------------------------------ *)
(* FED / EXC — federated queries over a tower; instance exchange       *)
(* ------------------------------------------------------------------ *)

let fed () =
  section "FED" "three-source federation through a composition tower; \
                 instance exchange throughput";
  let r = Paper_example.articulation () in
  let left = r.Generator.updated_left and right = r.Generator.updated_right in
  let customs =
    Ontology.create "customs"
    |> fun o -> Ontology.add_subclass o ~sub:"ImportedVehicle" ~super:"Import"
    |> fun o -> Ontology.add_attribute o ~concept:"ImportedVehicle" ~attr:"Duty"
  in
  let tower =
    Compose.compose ~articulation_name:"trade" ~base:r.Generator.articulation
      ~third:customs
      [
        Rule.implies
          (Term.make ~ontology:"customs" "ImportedVehicle")
          (Term.make ~ontology:"trade" "TradeVehicle");
        Rule.implies
          (Term.make ~ontology:"transport" "Vehicle")
          (Term.make ~ontology:"trade" "TradeVehicle");
      ]
  in
  let space =
    Federation.of_parts ~sources:[ left; right; customs ]
      ~articulations:[ tower.Compose.base; tower.Compose.upper ]
  in
  let kbs =
    [
      Query_gen.instances_for ~seed:3 ~per_concept:50 left ~kb_name:"kb1";
      Query_gen.instances_for ~seed:4 ~per_concept:50 right ~kb_name:"kb2";
      Query_gen.instances_for ~seed:5 ~per_concept:50 customs ~kb_name:"kb3";
    ]
  in
  let env = Mediator.env_federated ~kbs ~space () in
  let q = Query.parse_exn "SELECT COUNT(*) FROM trade:TradeVehicle" in
  (match Mediator.run env q with
  | Ok report ->
      row "3-source COUNT(*): %d instances from %d scanned"
        (List.length report.Mediator.tuples)
        report.Mediator.scanned
  | Error m -> row "federated query failed: %s" m);
  (* Exchange throughput: translate every carrier instance into factory
     vocabulary. *)
  let kb = Query_gen.instances_for ~seed:6 ~per_concept:100 left ~kb_name:"x" in
  let pair_space = Federation.of_unified (Algebra.union ~left ~right r.Generator.articulation) in
  let translate_all () =
    List.filter_map
      (fun inst ->
        Result.to_option
          (Exchange.translate pair_space ~conversions:Conversion.builtin
             ~from:"carrier" ~to_:"factory" inst))
      (Kb.instances kb)
  in
  row "exchange: %d of %d instances translate into factory vocabulary"
    (List.length (translate_all ()))
    (Kb.size kb);
  print_timings "federation"
    [
      Test.make ~name:"3-source federated query"
        (Staged.stage (fun () -> Mediator.run env q));
      Test.make ~name:"exchange 100+ instances"
        (Staged.stage translate_all);
    ]

(* ------------------------------------------------------------------ *)
(* CACHE — revision-stamped result caches: cold vs warm                *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x = if Float.is_finite x then Printf.sprintf "%.1f" x else "0.0"

(* BENCH_cache.json: one entry per operation with OLS ns/run cold and
   warm, plus the final per-cache counter snapshots.  Hand-rolled JSON —
   the shape is flat and the toolchain carries no JSON library. *)
let emit_cache_json ~path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let result_objs =
        List.map
          (fun (op, cold, warm, speedup) ->
            Printf.sprintf
              "    { \"op\": \"%s\", \"cold_ns\": %s, \"warm_ns\": %s, \
               \"speedup\": %s }"
              (json_escape op) (json_float cold) (json_float warm)
              (json_float speedup))
          rows
      in
      let cache_objs =
        List.map
          (fun (name, (s : Cache_stats.snapshot)) ->
            Printf.sprintf
              "    { \"name\": \"%s\", \"hits\": %d, \"misses\": %d, \
               \"evictions\": %d, \"entries\": %d, \"capacity\": %d }"
              (json_escape name) s.Cache_stats.hits s.Cache_stats.misses
              s.Cache_stats.evictions s.Cache_stats.entries
              s.Cache_stats.capacity)
          (Cache_stats.all ())
      in
      output_string oc "{\n  \"benchmark\": \"cache\",\n  \"results\": [\n";
      output_string oc (String.concat ",\n" result_objs);
      output_string oc "\n  ],\n  \"caches\": [\n";
      output_string oc (String.concat ",\n" cache_objs);
      output_string oc "\n  ]\n}\n")

let cache () =
  section "CACHE"
    "revision-stamped result caches: cold (caches cleared every run) vs \
     warm (repeat query, unchanged ontologies)";
  let o = Gen.ontology ~profile:(profile 600) ~seed:17 ~name:"g" () in
  let g = Ontology.graph o in
  let p3 = Pattern_parser.parse_exn "?X -[SubclassOf]-> ?Y -[SubclassOf]-> ?Z" in
  let r = Paper_example.articulation () in
  let left = r.Generator.updated_left and right = r.Generator.updated_right in
  let art = r.Generator.articulation in
  let u = Algebra.union ~left ~right art in
  let fed = Federation.of_unified u in
  let q = Query.parse_exn "SELECT Price FROM Vehicle WHERE Price < 20000" in
  let ops =
    [
      ( "matcher.find (3-node chain, n=600)",
        fun () -> ignore (Matcher.find ~limit:100 p3 g) );
      ( "filter_extract.filter (n=600)",
        fun () -> ignore (Filter_extract.filter o p3) );
      ( "algebra.union (paper pair)",
        fun () -> ignore (Algebra.union ~left ~right art) );
      ( "algebra.difference (paper pair)",
        fun () -> ignore (Algebra.difference ~minuend:left ~subtrahend:right art) );
      ( "rewrite.plan (paper federation)",
        fun () ->
          ignore (Rewrite.plan fed ~conversions:Conversion.builtin q) );
    ]
  in
  let rows =
    List.map
      (fun (name, op) ->
        (* Cold: every run starts from empty caches, so the clear is part
           of the measured thunk (it is microseconds against the
           millisecond-scale recomputation it forces). *)
        let cold =
          match
            ols_estimates
              [
                Test.make ~name:"cold"
                  (Staged.stage (fun () ->
                       Cache_stats.clear_all ();
                       op ()));
              ]
          with
          | [ (_, e) ] -> e
          | _ -> Float.nan
        in
        (* Warm: populate once, then every measured run hits. *)
        Cache_stats.clear_all ();
        op ();
        let warm =
          match ols_estimates [ Test.make ~name:"warm" (Staged.stage op) ] with
          | [ (_, e) ] -> e
          | _ -> Float.nan
        in
        let speedup = cold /. warm in
        row "%-38s cold %a  warm %a  speedup %6.0fx" name pp_time cold pp_time
          warm speedup;
        (name, cold, warm, speedup))
      ops
  in
  row "cache state after the warm runs:";
  List.iter
    (fun (name, s) ->
      row "  %-24s %a" name Cache_stats.pp_snapshot s)
    (Cache_stats.all ());
  emit_cache_json ~path:"BENCH_cache.json" rows;
  row "wrote BENCH_cache.json";
  let worst =
    List.fold_left (fun acc (_, _, _, s) -> Float.min acc s) Float.infinity rows
  in
  row "minimum warm speedup across operations: %.0fx %s" worst
    (if worst >= 5.0 then "(>= 5x: PASS)" else "(< 5x: FAIL)")

(* ------------------------------------------------------------------ *)
(* MATCH — indexed cold-path matching vs the naive reference;          *)
(*         multicore federation fan-out                                *)
(* ------------------------------------------------------------------ *)

(* BENCH_match.json: per-operation cold timings of the pre-index naive
   matcher (Matcher_reference) against the adaptive matcher with every
   cache cleared each run; the adaptive never-worse families (naive /
   indexed / adaptive timings plus the plan the cost model picked); and
   the federation fan-out at 1 domain, forced-parallel, and adaptive.
   Hand-rolled JSON like BENCH_cache. *)
let emit_match_json ~path rows ~families ~domains ~fanout_seq ~fanout_par
    ~fanout_adaptive ~fanout_plan =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let result_objs =
        List.map
          (fun (op, reference, indexed, speedup) ->
            Printf.sprintf
              "    { \"op\": \"%s\", \"reference_ns\": %s, \"indexed_ns\": %s, \
               \"speedup\": %s }"
              (json_escape op) (json_float reference) (json_float indexed)
              (json_float speedup))
          rows
      in
      let family_objs =
        List.map
          (fun (name, reference, naive, indexed, adaptive, plan) ->
            let best = Float.min naive indexed in
            Printf.sprintf
              "    { \"family\": \"%s\", \"reference_ns\": %s, \"naive_ns\": \
               %s, \"indexed_ns\": %s, \"adaptive_ns\": %s, \
               \"best_fixed_ns\": %s, \"adaptive_over_best\": %s, \
               \"vs_naive\": %s, \"plan\": \"%s\" }"
              (json_escape name) (json_float reference) (json_float naive)
              (json_float indexed) (json_float adaptive) (json_float best)
              (json_float (adaptive /. best))
              (json_float (reference /. adaptive))
              (json_escape plan))
          families
      in
      output_string oc "{\n  \"benchmark\": \"match\",\n  \"results\": [\n";
      output_string oc (String.concat ",\n" result_objs);
      output_string oc "\n  ],\n  \"families\": [\n";
      output_string oc (String.concat ",\n" family_objs);
      output_string oc "\n  ],\n";
      output_string oc
        (Printf.sprintf
           "  \"fanout\": { \"domains\": %d, \"sequential_ns\": %s, \
            \"parallel_ns\": %s, \"speedup\": %s, \"adaptive_ns\": %s, \
            \"plan\": \"%s\" }\n"
           domains (json_float fanout_seq) (json_float fanout_par)
           (json_float (fanout_seq /. fanout_par))
           (json_float fanout_adaptive) (json_escape fanout_plan));
      output_string oc "}\n")

let match_ () =
  section "MATCH"
    "cold-path matching: naive whole-graph scan (pre-index reference) vs \
     index-anchored search, caches cleared every run; federation fan-out \
     at 1 vs N domains";
  let chain = Pattern_parser.parse_exn "?X -[SubclassOf]-> ?Y -[SubclassOf]-> ?Z" in
  let pair = Pattern_parser.parse_exn "?X -[SubclassOf]-> ?Y" in
  let cold_ns op =
    match
      ols_estimates
        [
          Test.make ~name:"op"
            (Staged.stage (fun () ->
                 Cache_stats.clear_all ();
                 op ()));
        ]
    with
    | [ (_, e) ] -> e
    | _ -> Float.nan
  in
  let plain_ns op =
    match ols_estimates [ Test.make ~name:"op" (Staged.stage op) ] with
    | [ (_, e) ] -> e
    | _ -> Float.nan
  in
  let measure name ~reference ~indexed =
    let r = plain_ns reference in
    let i = cold_ns indexed in
    let speedup = r /. i in
    row "%-42s naive %a  indexed %a  speedup %6.1fx" name pp_time r pp_time i
      speedup;
    (name, r, i, speedup)
  in
  let per_size n =
    let o = Gen.ontology ~profile:(profile n) ~seed:17 ~name:"g" () in
    let g = Ontology.graph o in
    (* A labeled anchor that exists in this graph: the source of some
       SubclassOf edge, linked to a wildcard neighbour. *)
    let anchor =
      match
        List.find_opt
          (fun (e : Digraph.edge) -> String.equal e.label Rel.subclass_of)
          (Digraph.edges g)
      with
      | Some e -> e.src
      | None -> List.hd (Digraph.nodes g)
    in
    let labeled =
      Pattern.create
        ~nodes:
          [
            { Pattern.id = "a"; label = Some anchor; binder = None };
            { Pattern.id = "b"; label = None; binder = Some "Y" };
          ]
        ~edges:[ { Pattern.src = "a"; elabel = Some Rel.subclass_of; dst = "b" } ]
        ()
    in
    [
      measure (Printf.sprintf "matcher.find wildcard-pair n=%d" n)
        ~reference:(fun () -> ignore (Matcher_reference.find ~limit:100 pair g))
        ~indexed:(fun () -> ignore (Matcher.find ~limit:100 pair g));
      measure (Printf.sprintf "matcher.find wildcard-chain n=%d" n)
        ~reference:(fun () -> ignore (Matcher_reference.find ~limit:100 chain g))
        ~indexed:(fun () -> ignore (Matcher.find ~limit:100 chain g));
      measure (Printf.sprintf "matcher.find labeled-anchor n=%d" n)
        ~reference:(fun () -> ignore (Matcher_reference.find labeled g))
        ~indexed:(fun () -> ignore (Matcher.find labeled g));
    ]
  in
  let rows = List.concat_map per_size [ 200; 600; 2000 ] in
  (* Filter at n=600: the unary operator end to end, reference replicating
     the pre-index implementation (naive find + subgraph union). *)
  let o600 = Gen.ontology ~profile:(profile 600) ~seed:17 ~name:"g" () in
  let g600 = Ontology.graph o600 in
  let reference_filter () =
    let matches = Matcher_reference.find ~limit:100_000 chain g600 in
    ignore
      (List.fold_left
         (fun acc m -> Digraph.union acc (Matcher.matched_subgraph g600 chain m))
         Digraph.empty matches)
  in
  let rows =
    rows
    @ [
        measure "filter_extract.filter n=600"
          ~reference:reference_filter
          ~indexed:(fun () -> ignore (Filter_extract.filter o600 chain));
      ]
  in
  (* Adaptive never-worse families: for each pattern family, time both
     fixed strategies and the planner-driven find, all equally cold
     (clear_all inside every thunk), and record the plan the cost model
     picks.  The gate: adaptive <= 1.15x the best fixed strategy.

     The families run in microseconds, where a single OLS estimate can
     drift 20% with scheduler noise; each op therefore takes the minimum
     of three independent estimates (the classic noise-robust floor),
     so the gate compares true costs, not jitter. *)
  let cold_ns_min op =
    List.fold_left Float.min Float.infinity
      (List.init 3 (fun _ -> cold_ns op))
  in
  let family name ?(limit = 100) pattern graph =
    let fixed strategy () =
      ignore (Matcher.find_fixed ~strategy ~limit pattern graph)
    in
    let reference =
      cold_ns_min (fun () ->
          ignore (Matcher_reference.find ~limit pattern graph))
    in
    let naive = cold_ns_min (fixed Plan_cost.Naive) in
    let indexed = cold_ns_min (fixed Plan_cost.Indexed) in
    let adaptive =
      cold_ns_min (fun () -> ignore (Matcher.find ~limit pattern graph))
    in
    Cache_stats.clear_all ();
    let plan =
      Plan_cost.strategy_name
        (Plan_cost.plan ~limit pattern graph).Plan_cost.strategy
    in
    row
      "family %-16s ref %a  naive %a  indexed %a  adaptive %a  plan=%s \
       (%.2fx best)"
      name pp_time reference pp_time naive pp_time indexed pp_time adaptive
      plan
      (adaptive /. Float.min naive indexed);
    (name, reference, naive, indexed, adaptive, plan)
  in
  let o2000 = Gen.ontology ~profile:(profile 2000) ~seed:17 ~name:"g" () in
  let g2000 = Ontology.graph o2000 in
  let labeled2000 =
    let anchor =
      match
        List.find_opt
          (fun (e : Digraph.edge) -> String.equal e.label Rel.subclass_of)
          (Digraph.edges g2000)
      with
      | Some e -> e.src
      | None -> List.hd (Digraph.nodes g2000)
    in
    Pattern.create
      ~nodes:
        [
          { Pattern.id = "a"; label = Some anchor; binder = None };
          { Pattern.id = "b"; label = None; binder = Some "Y" };
        ]
      ~edges:
        [ { Pattern.src = "a"; elabel = Some Rel.subclass_of; dst = "b" } ]
      ()
  in
  (* Dense mesh: 60 nodes, 5 out-edges each, one label — the worst case
     for label-based anchoring, best case for plain enumeration. *)
  let mesh =
    Digraph.of_edges
      (List.concat_map
         (fun i ->
           List.map
             (fun k ->
               {
                 Digraph.src = Printf.sprintf "m%d" i;
                 label = "R";
                 dst = Printf.sprintf "m%d" ((i + k) mod 60);
               })
             [ 1; 2; 3; 4; 5 ])
         (List.init 60 Fun.id))
  in
  let triangle =
    let wild id binder = { Pattern.id; label = None; binder = Some binder } in
    Pattern.create
      ~nodes:[ wild "a" "A"; wild "b" "B"; wild "c" "C" ]
      ~edges:
        [
          { Pattern.src = "a"; elabel = Some "R"; dst = "b" };
          { Pattern.src = "b"; elabel = Some "R"; dst = "c" };
          { Pattern.src = "a"; elabel = Some "R"; dst = "c" };
        ]
      ()
  in
  let families =
    [
      family "labeled-anchor" labeled2000 g2000;
      family "wildcard-chain" chain g600;
      (* The matching work inside Filter_extract.filter: unlimited chain. *)
      family "filter" ~limit:100_000 chain g600;
      family "dense-mesh" triangle mesh;
    ]
  in
  (* Federation fan-out: qualifying and unioning K mid-size sources —
     sequential (pool size 1), forced parallel (gate off), and adaptive
     (the cost gate decides). *)
  let fed_sources =
    Gen.family ~profile:(profile 400) ~n:8 ~seed:7 ~prefix:"fed" ()
  in
  let domains = max 2 (Domain_pool.size ()) in
  let fanout_run () =
    ignore (Federation.of_parts ~sources:fed_sources ~articulations:[])
  in
  let fanout_seq = plain_ns (fun () -> Domain_pool.with_size 1 fanout_run) in
  let fanout_par =
    plain_ns (fun () ->
        Domain_pool.with_size domains (fun () ->
            Domain_pool.with_gating false fanout_run))
  in
  let fanout_adaptive =
    plain_ns (fun () -> Domain_pool.with_size domains fanout_run)
  in
  let fanout_plan =
    Cache_stats.reset_plans ();
    Domain_pool.with_size domains fanout_run;
    let parallel =
      try List.assoc "pool.parallel" (Cache_stats.plan_counts ())
      with Not_found -> 0
    in
    if parallel > 0 then "parallel" else "sequential"
  in
  row
    "federation.of_parts (8 x 400 terms): 1 domain %a, %d domains forced %a \
     (%.2fx), adaptive %a plan=%s"
    pp_time fanout_seq domains pp_time fanout_par
    (fanout_seq /. fanout_par)
    pp_time fanout_adaptive fanout_plan;
  emit_match_json ~path:"BENCH_match.json" rows ~families ~domains ~fanout_seq
    ~fanout_par ~fanout_adaptive ~fanout_plan;
  row "wrote BENCH_match.json";
  let lookup op =
    List.find_map
      (fun (name, _, _, s) -> if String.equal name op then Some s else None)
      rows
  in
  (match lookup "matcher.find wildcard-chain n=600" with
  | Some s ->
      row "wildcard-chain n=600 speedup: %.1fx %s" s
        (if s >= 10.0 then "(>= 10x: PASS)" else "(< 10x: FAIL)")
  | None -> ());
  (match lookup "filter_extract.filter n=600" with
  | Some s ->
      row "filter n=600 speedup: %.1fx %s" s
        (if s >= 5.0 then "(>= 5x: PASS)" else "(< 5x: FAIL)")
  | None -> ());
  List.iter
    (fun (name, _ref, naive, indexed, adaptive, _plan) ->
      let r = adaptive /. Float.min naive indexed in
      row "family %-16s adaptive/best-fixed: %.2fx %s" name r
        (if r <= 1.15 then "(<= 1.15x: PASS)" else "(> 1.15x: FAIL)"))
    families;
  match
    List.find_opt (fun (n, _, _, _, _, _) -> n = "labeled-anchor") families
  with
  | Some (_, reference, _, _, adaptive, _) ->
      let s = reference /. adaptive in
      row "labeled-anchor adaptive vs naive reference: %.2fx %s" s
        (if s >= 1.0 then "(>= 1.0x: PASS)" else "(< 1.0x: FAIL)")
  | None -> ()

(* ------------------------------------------------------------------ *)
(* FAULT — durable storage: atomic writes, verified reads, fsck        *)
(* ------------------------------------------------------------------ *)

(* BENCH_fault.json: ns/run per durable-IO operation plus the
   transient-noise soak tally.  Hand-rolled JSON like BENCH_cache. *)
let emit_fault_json ~path rows ~soak_writes ~soak_survived ~soak_rate =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let result_objs =
        List.map
          (fun (op, ns) ->
            Printf.sprintf "    { \"op\": \"%s\", \"ns_per_run\": %s }"
              (json_escape op) (json_float ns))
          rows
      in
      output_string oc "{\n  \"benchmark\": \"fault\",\n  \"results\": [\n";
      output_string oc (String.concat ",\n" result_objs);
      output_string oc "\n  ],\n";
      output_string oc
        (Printf.sprintf
           "  \"soak\": { \"writes\": %d, \"survived\": %d, \"rate\": %.2f }\n"
           soak_writes soak_survived soak_rate);
      output_string oc "}\n")

let fault () =
  section "FAULT"
    "durable storage: atomic+stamped writes vs bare writes, verified \
     reads, fsck scans, and a transient-fault soak";
  let payload =
    String.concat "\n"
      (List.init 1000 (fun i -> Printf.sprintf "term-%04d Attr value-%04d" i i))
  in
  let dir = Filename.temp_file "onion-bench-fault" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Durable_io.clear_faults ();
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      if Sys.file_exists dir then rm dir)
  @@ fun () ->
  let bare path content =
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc
  in
  let p_bare = Filename.concat dir "bare.dat" in
  let p_durable = Filename.concat dir "durable.dat" in
  (match Durable_io.write ~backoff_ms:0.0 ~path:p_durable payload with
  | Ok () -> ()
  | Error m -> failwith m);
  (* A populated workspace for the scan benchmarks. *)
  let ws_dir = Filename.concat dir "ws" in
  let ws =
    match Workspace.init ws_dir with Ok w -> w | Error m -> failwith m
  in
  for i = 0 to 14 do
    let o =
      Gen.ontology ~profile:(profile 120) ~seed:(100 + i)
        ~name:(Printf.sprintf "src%02d" i) ()
    in
    let path = Filename.concat dir (Printf.sprintf "src%02d.xml" i) in
    Loader.save_file o path;
    match Workspace.add_source ws ~path with
    | Ok _ -> ()
    | Error m -> failwith m
  done;
  let tests =
    [
      ((Printf.sprintf "bare write (%d KiB)" (String.length payload / 1024)),
        fun () -> bare p_bare payload);
      ( "durable write (fsync + rename + stamp)",
        fun () ->
          match Durable_io.write ~backoff_ms:0.0 ~path:p_durable payload with
          | Ok () -> ()
          | Error m -> failwith m );
      ("crc32 digest", fun () -> ignore (Crc32.digest payload));
      ( "plain read",
        fun () ->
          match Durable_io.read ~path:p_durable with
          | Ok _ -> ()
          | Error m -> failwith m );
      ( "verified read (read + crc check)",
        fun () ->
          match Durable_io.read_verified ~path:p_durable with
          | Ok _ -> ()
          | Error m -> failwith m );
      ( "workspace health scan (15 sources)",
        fun () -> ignore (Workspace.health ws) );
      ("workspace fsck, clean (15 sources)", fun () -> ignore (Workspace.fsck ws));
    ]
  in
  let rows =
    List.map
      (fun (name, op) ->
        let ns =
          match ols_estimates [ Test.make ~name:"op" (Staged.stage op) ] with
          | [ (_, e) ] -> e
          | _ -> Float.nan
        in
        row "%-40s %a" name pp_time ns;
        (name, ns))
      tests
  in
  (* Soak: deterministic ENOSPC noise at 5% per protected op; the retry
     layer must absorb essentially all of it. *)
  let soak_writes = 200 and soak_rate = 0.05 in
  Durable_io.inject_transient ~seed:42 ~rate:soak_rate;
  let survived = ref 0 in
  for _ = 1 to soak_writes do
    match Durable_io.write ~backoff_ms:0.0 ~path:p_durable payload with
    | Ok () -> incr survived
    | Error _ -> ()
  done;
  Durable_io.clear_faults ();
  row "transient soak: %d/%d durable writes survived rate-%.2f noise"
    !survived soak_writes soak_rate;
  emit_fault_json ~path:"BENCH_fault.json" rows ~soak_writes
    ~soak_survived:!survived ~soak_rate;
  row "wrote BENCH_fault.json"

(* ------------------------------------------------------------------ *)
(* SERVE — the warm daemon vs the per-request CLI process              *)
(* ------------------------------------------------------------------ *)

(* BENCH_serve.json: warm-daemon round-trip latency (p50/p99 over the
   wire), the cold per-request cost (one CLI process per query when the
   binary is on disk, otherwise an in-process cold simulation — the
   [cold_mode] field says which), fixed-window throughput at 1/4/8
   concurrent clients (rps + per-request p50/p99, monotonic clock), and
   the two-workspace tenancy soak.  Hand-rolled JSON like BENCH_cache. *)
let emit_serve_json ~path ~domains_used ~cold_mode ~warm_p50 ~warm_p99
    ~warm_mean ~cold_ns ~speedup ~throughput ~tenancy =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let tp_objs =
        List.map
          (fun (clients, requests, seconds, rps, p50, p99) ->
            Printf.sprintf
              "    { \"clients\": %d, \"requests\": %d, \"seconds\": %.3f, \
               \"rps\": %.1f, \"p50_ns\": %s, \"p99_ns\": %s }"
              clients requests seconds rps (json_float p50) (json_float p99))
          throughput
      in
      let quiet_solo_p99, quiet_contended_p99, ratio, hot_clients, hot_rps =
        tenancy
      in
      output_string oc "{\n  \"benchmark\": \"serve\",\n";
      output_string oc
        (Printf.sprintf "  \"domains_used\": %d,\n" domains_used);
      output_string oc
        (Printf.sprintf
           "  \"warm\": { \"p50_ns\": %s, \"p99_ns\": %s, \"mean_ns\": %s },\n"
           (json_float warm_p50) (json_float warm_p99) (json_float warm_mean));
      output_string oc
        (Printf.sprintf
           "  \"cold\": { \"mode\": \"%s\", \"ns_per_request\": %s },\n"
           (json_escape cold_mode) (json_float cold_ns));
      output_string oc
        (Printf.sprintf "  \"speedup\": %s,\n" (json_float speedup));
      output_string oc "  \"throughput\": [\n";
      output_string oc (String.concat ",\n" tp_objs);
      output_string oc "\n  ],\n";
      output_string oc
        (Printf.sprintf
           "  \"tenancy\": { \"hot_clients\": %d, \"hot_rps\": %.1f, \
            \"quiet_solo_p99_ns\": %s, \"quiet_contended_p99_ns\": %s, \
            \"p99_ratio\": %s }\n"
           hot_clients hot_rps
           (json_float quiet_solo_p99)
           (json_float quiet_contended_p99)
           (json_float ratio));
      output_string oc "}\n")

let serve () =
  section "SERVE"
    "warm daemon (persistent caches, admission queue) vs the cold \
     per-request CLI path; throughput at 1/4/8 clients";
  let dir = Filename.temp_file "onion-bench-serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let socket_path = Filename.concat dir "serve.sock" in
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      if Sys.file_exists dir then rm dir)
  @@ fun () ->
  (* The paper's carrier/factory pair as a real on-disk workspace; a
     second identical workspace is the quiet tenant of the tenancy
     soak. *)
  let make_workspace name =
    let ws_dir = Filename.concat dir name in
    let ws =
      match Workspace.init ws_dir with Ok w -> w | Error m -> failwith m
    in
    List.iter
      (fun o ->
        let path =
          Filename.concat dir (name ^ "-" ^ Ontology.name o ^ ".xml")
        in
        Loader.save_file o path;
        match Workspace.add_source ws ~path with
        | Ok _ -> ()
        | Error m -> failwith m)
      [ Paper_example.carrier; Paper_example.factory ];
    (match
       Workspace.articulate ~conversions:Conversion.builtin ws ~left:"carrier"
         ~right:"factory" ~name:Paper_example.articulation_name
         ~rules:Paper_example.rules
     with
    | Ok _ -> ()
    | Error m -> failwith m);
    (ws_dir, ws)
  in
  let ws_dir, ws = make_workspace "ws" in
  let _quiet_dir, quiet_ws = make_workspace "ws-quiet" in
  let query_text = "SELECT Price FROM Vehicle WHERE Price < 5000" in
  (* Request-executing worker domains track the configured pool size so
     ONION_DOMAINS drives both compute and request parallelism. *)
  let domains_used = Domain_pool.size () in
  let config =
    {
      Server.default_config with
      Server.unix_path = Some socket_path;
      workers = domains_used;
    }
  in
  let server =
    match Server.create config [ ("default", ws); ("quiet", quiet_ws) ] with
    | Ok s -> s
    | Error m -> failwith m
  in
  let serve_thread = Thread.create Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join serve_thread)
  @@ fun () ->
  let address = Client.Unix_socket socket_path in
  let query_over ?workspace c =
    match Client.request ?workspace c ~op:"query" ~arg:query_text with
    | Ok { Protocol.status = Protocol.Ok; _ } -> ()
    | Ok _ -> failwith "serve bench: non-ok reply"
    | Error m -> failwith ("serve bench: " ^ m)
  in
  (* Warm: one connection, many round-trips, exact percentiles. *)
  let warm_rounds = 300 in
  let latencies =
    match
      Client.with_connection address (fun c ->
          (* A few throwaway rounds settle the caches and the allocator. *)
          for _ = 1 to 20 do
            query_over c
          done;
          Ok
            (Array.init warm_rounds (fun _ ->
                 let t0 = Unix.gettimeofday () in
                 query_over c;
                 (Unix.gettimeofday () -. t0) *. 1e9)))
    with
    | Ok l -> l
    | Error m -> failwith ("serve bench: " ^ m)
  in
  Array.sort Float.compare latencies;
  let pct q =
    latencies.(min (warm_rounds - 1) (int_of_float (q *. float_of_int warm_rounds)))
  in
  let warm_p50 = pct 0.50 and warm_p99 = pct 0.99 in
  let warm_mean =
    Array.fold_left ( +. ) 0.0 latencies /. float_of_int warm_rounds
  in
  row "warm daemon round-trip: p50 %a  p99 %a  mean %a" pp_time warm_p50
    pp_time warm_p99 pp_time warm_mean;
  (* Cold: what each request costs without the daemon.  Preferred: spawn
     the actual CLI binary per request.  When the binary is not where the
     build puts it (e.g. the bench runs from an install), fall back to an
     in-process simulation that re-opens the workspace and clears every
     cache per request. *)
  let cli_path =
    match Sys.getenv_opt "ONION_CLI" with
    | Some p -> p
    | None -> Filename.concat (Sys.getcwd ()) "_build/default/bin/onion_cli.exe"
  in
  let cold_rounds = 12 in
  let cold_mode, cold_ns =
    if Sys.file_exists cli_path then begin
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let one () =
        let pid =
          Unix.create_process cli_path
            [| cli_path; "workspace"; "query"; ws_dir; query_text |]
            Unix.stdin null null
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "serve bench: cold CLI query failed"
      in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to cold_rounds do
        one ()
      done;
      let elapsed = Unix.gettimeofday () -. t0 in
      Unix.close null;
      ("cli-process", elapsed *. 1e9 /. float_of_int cold_rounds)
    end
    else begin
      let one () =
        Cache_stats.clear_all ();
        let ws =
          match Workspace.open_ ws_dir with Ok w -> w | Error m -> failwith m
        in
        match Workspace.space ws with
        | Error m -> failwith m
        | Ok (space, _) -> (
            let kbs =
              List.map
                (fun o ->
                  Kb.of_ontology_instances ~ontology:o
                    ("kb-" ^ Ontology.name o))
                space.Federation.sources
            in
            let env = Mediator.env_federated ~kbs ~space () in
            match Mediator.run_text env query_text with
            | Ok _ -> ()
            | Error m -> failwith m)
      in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to cold_rounds do
        one ()
      done;
      let elapsed = Unix.gettimeofday () -. t0 in
      Cache_stats.clear_all ();
      ("in-process-cold", elapsed *. 1e9 /. float_of_int cold_rounds)
    end
  in
  let speedup = cold_ns /. warm_p50 in
  row "cold per-request cost (%s): %a  -> warm-p50 speedup %.0fx %s" cold_mode
    pp_time cold_ns speedup
    (if speedup >= 5.0 then "(>= 5x: PASS)" else "(< 5x: FAIL)");
  (* Throughput: N client threads, each its own connection, hammering
     the same mediated query for a fixed wall-clock window on the
     monotonic clock — the old fixed-request-count runs completed in
     single-digit milliseconds, so their rps was timer noise. *)
  let window_s =
    match Sys.getenv_opt "ONION_SERVE_WINDOW_S" with
    | Some s -> (
        match float_of_string_opt (String.trim s) with
        | Some f when f > 0.0 -> f
        | _ -> 2.0)
    | None -> 2.0
  in
  let percentile sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))
  in
  (* Drive [clients] closed-loop threads against [workspace] until
     [stop_at] (monotonic seconds); returns (requests, seconds, rps,
     latencies sorted ascending, in ns). *)
  let drive ?workspace ~clients ~until:stop_at () =
    let results = Array.make clients [||] in
    let t_start = Monotonic.now_ns () in
    let worker i () =
      match
        Client.with_connection address (fun c ->
            let lats = ref [] in
            while Monotonic.now_s () < stop_at do
              let t0 = Monotonic.now_ns () in
              query_over ?workspace c;
              lats :=
                Int64.to_float (Monotonic.elapsed_ns ~since:t0) :: !lats
            done;
            results.(i) <- Array.of_list !lats;
            Ok ())
      with
      | Ok () -> ()
      | Error m -> failwith ("serve bench: " ^ m)
    in
    let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
    List.iter Thread.join threads;
    let seconds = Monotonic.elapsed_s ~since:t_start in
    let lats = Array.concat (Array.to_list results) in
    Array.sort Float.compare lats;
    let requests = Array.length lats in
    (requests, seconds, float_of_int requests /. seconds, lats)
  in
  let throughput =
    List.map
      (fun clients ->
        let requests, seconds, rps, lats =
          drive ~clients ~until:(Monotonic.now_s () +. window_s) ()
        in
        let p50 = percentile lats 0.50 and p99 = percentile lats 0.99 in
        row
          "throughput %d client(s): %d requests in %.2fs window = %.0f \
           req/s  p50 %a  p99 %a"
          clients requests seconds rps pp_time p50 pp_time p99;
        (clients, requests, seconds, rps, p50, p99))
      [ 1; 4; 8 ]
  in
  (* Tenancy soak: the quiet tenant's p99 alone, then again while the
     hot tenant saturates the default workspace — fair-share admission
     should keep the ratio small (the gate in ISSUE 8 is <= 3x). *)
  let tenancy =
    let _, _, _, solo_lats =
      drive ~workspace:"quiet" ~clients:1
        ~until:(Monotonic.now_s () +. window_s) ()
    in
    let quiet_solo_p99 = percentile solo_lats 0.99 in
    let hot_clients = 8 in
    let stop_at = Monotonic.now_s () +. window_s in
    let hot_done = ref (0, 0.0) in
    let hot_thread =
      Thread.create
        (fun () ->
          let requests, seconds, _, _ =
            drive ~clients:hot_clients ~until:stop_at ()
          in
          hot_done := (requests, seconds))
        ()
    in
    let _, _, _, contended_lats =
      drive ~workspace:"quiet" ~clients:1 ~until:stop_at ()
    in
    Thread.join hot_thread;
    let hot_requests, hot_seconds = !hot_done in
    let hot_rps =
      if hot_seconds > 0.0 then float_of_int hot_requests /. hot_seconds
      else 0.0
    in
    let quiet_contended_p99 = percentile contended_lats 0.99 in
    let ratio =
      if quiet_solo_p99 > 0.0 then quiet_contended_p99 /. quiet_solo_p99
      else 0.0
    in
    row
      "tenancy: quiet p99 solo %a, under %d hot clients (%.0f rps) %a = \
       %.2fx %s"
      pp_time quiet_solo_p99 hot_clients hot_rps pp_time quiet_contended_p99
      ratio
      (if ratio <= 3.0 then "(<= 3x: PASS)" else "(> 3x: FAIL)");
    (quiet_solo_p99, quiet_contended_p99, ratio, hot_clients, hot_rps)
  in
  emit_serve_json ~path:"BENCH_serve.json" ~domains_used ~cold_mode ~warm_p50
    ~warm_p99 ~warm_mean ~cold_ns ~speedup ~throughput ~tenancy;
  row "wrote BENCH_serve.json"

(* ------------------------------------------------------------------ *)
(* CHAOS — adversarial soak: the daemon under hostile clients          *)
(* ------------------------------------------------------------------ *)

(* BENCH_chaos.json: the same healthy client fleet runs twice — once
   quiet, once inside a storm of slow-loris writers, mid-frame
   disconnects, garbage frames, a deadline-ms=1 request storm and a
   corrupt source rewritten continuously so its circuit breaker trips —
   and the two runs are compared.  The gates are the resilience
   acceptance criteria: healthy success >= 99%, every request resolves,
   storm p99 within 3x the quiet p99, and the daemon still answers
   afterwards. *)
type chaos_phase = {
  ch_started : int;
  ch_resolved : int;
  ch_ok : int;
  ch_timeout : int;
  ch_busy : int;
  ch_error : int;
  ch_transport : int;
  ch_lat : float array;  (** Per-request latency of the [Ok] replies. *)
}

let chaos () =
  section "CHAOS"
    "adversarial soak: slow-loris, torn frames, garbage, deadline storms \
     and a flapping corrupt source against a live daemon";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Filename.temp_file "onion-bench-chaos" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let socket_path = Filename.concat dir "chaos.sock" in
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      if Sys.file_exists dir then rm dir)
  @@ fun () ->
  let ws_dir = Filename.concat dir "ws" in
  let ws =
    match Workspace.init ws_dir with Ok w -> w | Error m -> failwith m
  in
  List.iter
    (fun o ->
      let path = Filename.concat dir (Ontology.name o ^ ".xml") in
      Loader.save_file o path;
      match Workspace.add_source ws ~path with
      | Ok _ -> ()
      | Error m -> failwith m)
    [ Paper_example.carrier; Paper_example.factory ];
  (match
     Workspace.articulate ~conversions:Conversion.builtin ws ~left:"carrier"
       ~right:"factory" ~name:Paper_example.articulation_name
       ~rules:Paper_example.rules
   with
  | Ok _ -> ()
  | Error m -> failwith m);
  (* The third source is hostile: it never parses, and the mutator
     rewrites it during the storm so every scan sees fresh bytes — the
     space memo cannot shield the classifier, and the repeated failures
     open its circuit breaker. *)
  let flaky_path =
    Filename.concat (Filename.concat ws_dir "sources") "flaky.xml"
  in
  let corrupt i =
    let oc = open_out_bin flaky_path in
    output_string oc (Printf.sprintf "<flaky revision %d" i);
    close_out oc
  in
  let config =
    {
      Server.default_config with
      Server.unix_path = Some socket_path;
      queue_capacity = 32;
      workers = 4;
      io_timeout_ms = 250;
      conn_lifetime_ms = 60_000;
      default_deadline_ms = 0;
      grace_ms = 2_000;
    }
  in
  let server =
    match Server.create config [ ("default", ws) ] with
    | Ok s -> s
    | Error m -> failwith m
  in
  let serve_thread = Thread.create Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join serve_thread)
  @@ fun () ->
  let address = Client.Unix_socket socket_path in
  let query_text = "SELECT Price FROM Vehicle WHERE Price < 5000" in
  let pct arr q =
    let a = Array.copy arr in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n = 0 then 0.0
    else a.(min (n - 1) (int_of_float (q *. float_of_int n)))
  in
  (* Shared mutex for every phase counter. *)
  let m = Mutex.create () in
  let locked f =
    Mutex.lock m;
    f ();
    Mutex.unlock m
  in
  (* The healthy fleet: the same clients, rounds and op mix in both
     phases, so the storm-vs-quiet p99 ratio isolates what the
     adversaries cost polite clients. *)
  let fleet = 6 and healthy_rounds = 50 in
  let run_fleet () =
    let started = ref 0
    and resolved = ref 0
    and ok = ref 0
    and timeout = ref 0
    and busy = ref 0
    and error = ref 0
    and transport = ref 0 in
    let lats = ref [] in
    let worker () =
      let conn = ref None in
      let get_conn () =
        match !conn with
        | Some c -> c
        | None ->
            let rec go tries =
              match Client.connect ~io_timeout_ms:5000 address with
              | Ok c -> c
              | Error _ when tries < 50 ->
                  Thread.delay 0.02;
                  go (tries + 1)
              | Error m -> failwith ("chaos bench: reconnect: " ^ m)
            in
            let c = go 0 in
            conn := Some c;
            c
      in
      let drop_conn () =
        (match !conn with Some c -> Client.close c | None -> ());
        conn := None
      in
      for i = 1 to healthy_rounds do
        let op, arg =
          if i mod 13 = 0 then ("status", "")
          else if i mod 7 = 0 then ("health", "")
          else ("query", query_text)
        in
        locked (fun () -> incr started);
        let t0 = Unix.gettimeofday () in
        let outcome =
          Client.request_with_retry ~retries:3 ~deadline_ms:2000 (get_conn ())
            ~op ~arg
        in
        let dt = (Unix.gettimeofday () -. t0) *. 1e9 in
        locked (fun () ->
            incr resolved;
            match outcome with
            | Ok { Protocol.status = Protocol.Ok; _ } ->
                incr ok;
                lats := dt :: !lats
            | Ok { Protocol.status = Protocol.Timeout; _ } -> incr timeout
            | Ok { Protocol.status = Protocol.Busy _; _ } -> incr busy
            | Ok _ -> incr error
            | Error _ -> incr transport);
        match outcome with Error _ -> drop_conn () | Ok _ -> ()
      done;
      drop_conn ()
    in
    let threads = List.init fleet (fun _ -> Thread.create worker ()) in
    List.iter Thread.join threads;
    {
      ch_started = !started;
      ch_resolved = !resolved;
      ch_ok = !ok;
      ch_timeout = !timeout;
      ch_busy = !busy;
      ch_error = !error;
      ch_transport = !transport;
      ch_lat = Array.of_list !lats;
    }
  in
  (* Quiet phase: settle the caches, then the fleet alone. *)
  (match
     Client.with_connection ~io_timeout_ms:5000 address (fun c ->
         for _ = 1 to 20 do
           ignore (Client.request c ~op:"query" ~arg:query_text)
         done;
         Ok ())
   with
  | Ok () -> ()
  | Error m -> failwith ("chaos bench: " ^ m));
  let quiet = run_fleet () in
  let quiet_p50 = pct quiet.ch_lat 0.50 and quiet_p99 = pct quiet.ch_lat 0.99 in
  row "quiet fleet (%d clients x %d rounds): %d ok of %d, p50 %a  p99 %a"
    fleet healthy_rounds quiet.ch_ok quiet.ch_started pp_time quiet_p50
    pp_time quiet_p99;
  (* Storm phase: the corrupt source appears now, and everything
     adversarial loops until the fleet is done. *)
  let stop = Atomic.make false in
  let storm_started = ref 0 and storm_resolved = ref 0 in
  let loris = ref 0 and torn = ref 0 and garbage = ref 0 in
  corrupt 0;
  (* Adversaries cycle three attacks: dribbling header bytes slower than
     the frame budget (slow-loris), a declared-length frame cut off
     mid-payload, and bytes that are not a frame at all. *)
  let adversary seed () =
    let i = ref seed in
    while not (Atomic.get stop) do
      incr i;
      try
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX socket_path);
            match !i mod 3 with
            | 0 ->
                locked (fun () -> incr loris);
                let b = Bytes.make 1 '1' in
                (try
                   for _ = 1 to 6 do
                     ignore (Unix.write fd b 0 1);
                     Thread.delay 0.1
                   done
                 with _ -> ())
            | 1 ->
                locked (fun () -> incr torn);
                let b = Bytes.of_string "64\nhalf a frame then gone" in
                (try ignore (Unix.write fd b 0 (Bytes.length b)) with _ -> ())
            | _ ->
                locked (fun () -> incr garbage);
                let b = Bytes.of_string "not-a-length\n\255\254garbage\n" in
                (try ignore (Unix.write fd b 0 (Bytes.length b)) with _ -> ());
                Thread.delay 0.02)
      with _ -> ()
    done
  in
  (* Deadline storm: bursts of deadline-ms=1 requests.  Every one of
     them must still resolve — mostly as [timeout] replies shed from the
     queue. *)
  let deadline_storm () =
    while not (Atomic.get stop) do
      (match Client.connect ~io_timeout_ms:2000 address with
      | Error _ -> Thread.delay 0.05
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              for _ = 1 to 10 do
                if not (Atomic.get stop) then begin
                  locked (fun () -> incr storm_started);
                  ignore
                    (Client.request ~deadline_ms:1 c ~op:"query"
                       ~arg:query_text);
                  locked (fun () -> incr storm_resolved)
                end
              done));
      Thread.delay 0.03
    done
  in
  let mutator () =
    let i = ref 0 in
    while not (Atomic.get stop) do
      incr i;
      (try corrupt !i with Sys_error _ -> ());
      Thread.delay 0.03
    done
  in
  let background =
    [
      Thread.create (adversary 0) ();
      Thread.create (adversary 1) ();
      Thread.create deadline_storm ();
      Thread.create mutator ();
    ]
  in
  let storm = run_fleet () in
  Atomic.set stop true;
  List.iter Thread.join background;
  let unresolved =
    quiet.ch_started - quiet.ch_resolved
    + (storm.ch_started - storm.ch_resolved)
    + (!storm_started - !storm_resolved)
  in
  let storm_p50 = pct storm.ch_lat 0.50 and storm_p99 = pct storm.ch_lat 0.99 in
  (* Ratio against a floored baseline so a sub-millisecond quiet p99
     does not turn scheduler noise into a failure. *)
  let p99_ratio = storm_p99 /. Float.max quiet_p99 1e6 in
  let success_rate =
    if storm.ch_started = 0 then 0.0
    else float_of_int storm.ch_ok /. float_of_int storm.ch_started
  in
  let breakers = Workspace.breakers ws in
  let breaker_tripped =
    List.exists
      (fun (b : Breaker.info) ->
        b.Breaker.info_state <> Breaker.Closed || b.Breaker.info_failures > 0)
      breakers
  in
  (* Liveness: after the storm the daemon must still answer control and
     workload ops on a fresh connection. *)
  let live_after =
    match
      Client.with_connection ~io_timeout_ms:5000 address (fun c ->
          Ok
            (List.for_all
               (function
                 | Result.Ok { Protocol.status = Protocol.Ok; _ } -> true
                 | _ -> false)
               [
                 Client.request c ~op:"ping" ~arg:"";
                 Client.request c ~op:"status" ~arg:"";
                 Client.request c ~op:"query" ~arg:query_text;
               ]))
    with
    | Ok b -> b
    | Error _ -> false
  in
  let gate_success = success_rate >= 0.99 in
  let gate_p99 = p99_ratio <= 3.0 in
  let gate_unresolved = unresolved = 0 in
  let pass b = if b then "PASS" else "FAIL" in
  row "storm fleet: %d requests, %d ok (%.2f%%), %d timeout, %d busy, %d \
       error, %d transport (>= 99%%: %s)"
    storm.ch_started storm.ch_ok (100. *. success_rate) storm.ch_timeout
    storm.ch_busy storm.ch_error storm.ch_transport (pass gate_success);
  row "storm success latency: p50 %a  p99 %a  (%.2fx quiet p99, <= 3x: %s)"
    pp_time storm_p50 pp_time storm_p99 p99_ratio (pass gate_p99);
  row "deadline storm: %d requests, all resolved: %s; unresolved total %d \
       (%s)"
    !storm_started
    (if !storm_started = !storm_resolved then "yes" else "no")
    unresolved (pass gate_unresolved);
  row "adversarial: %d slow-loris, %d torn frames, %d garbage frames" !loris
    !torn !garbage;
  row "breaker tripped on the flapping source: %s"
    (if breaker_tripped then "yes" else "no");
  row "daemon alive after the storm: %s" (pass live_after);
  let oc = open_out "BENCH_chaos.json" in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let breaker_objs =
        List.map
          (fun (b : Breaker.info) ->
            Printf.sprintf
              "    { \"name\": \"%s\", \"state\": \"%s\", \"failures\": %d }"
              (json_escape b.Breaker.name)
              (Breaker.string_of_state b.Breaker.info_state)
              b.Breaker.info_failures)
          breakers
      in
      output_string oc "{\n  \"benchmark\": \"chaos\",\n";
      output_string oc
        (Printf.sprintf
           "  \"quiet\": { \"total\": %d, \"ok\": %d, \"p50_ns\": %s, \
            \"p99_ns\": %s },\n"
           quiet.ch_started quiet.ch_ok (json_float quiet_p50)
           (json_float quiet_p99));
      output_string oc
        (Printf.sprintf
           "  \"storm\": { \"healthy_total\": %d, \"healthy_ok\": %d, \
            \"success_rate\": %.4f, \"timeouts\": %d, \"busy\": %d, \
            \"server_errors\": %d, \"transport_errors\": %d, \
            \"unresolved\": %d, \"p50_ns\": %s, \"p99_ns\": %s, \
            \"p99_ratio\": %.3f },\n"
           storm.ch_started storm.ch_ok success_rate storm.ch_timeout
           storm.ch_busy storm.ch_error storm.ch_transport unresolved
           (json_float storm_p50) (json_float storm_p99) p99_ratio);
      output_string oc
        (Printf.sprintf
           "  \"adversarial\": { \"slow_loris\": %d, \"torn_frames\": %d, \
            \"garbage_frames\": %d, \"deadline_storm_requests\": %d },\n"
           !loris !torn !garbage !storm_started);
      output_string oc
        (Printf.sprintf "  \"breaker_tripped\": %b,\n" breaker_tripped);
      output_string oc "  \"breakers\": [\n";
      output_string oc (String.concat ",\n" breaker_objs);
      output_string oc "\n  ],\n";
      output_string oc
        (Printf.sprintf
           "  \"gates\": { \"success_ge_99\": %b, \"p99_le_3x\": %b, \
            \"unresolved_zero\": %b, \"live_after\": %b }\n"
           gate_success gate_p99 gate_unresolved live_after);
      output_string oc "}\n");
  row "wrote BENCH_chaos.json"

(* ------------------------------------------------------------------ *)
(* LINT — whole-workspace static analysis: cold vs warm re-lint        *)
(* ------------------------------------------------------------------ *)

(* BENCH_lint.json: OLS ns/run for a full lint of an unchanged view,
   cold (caches cleared inside every measured run) vs warm (revision
   memos populated), per-pass wall-clock splits from the engine's own
   timings, and the diagnostic counts.  Hand-rolled JSON like
   BENCH_cache. *)
let emit_lint_json ~path ~cold ~warm ~speedup ~passes ~diagnostics ~errors
    ~warnings =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let pass_objs =
        List.map
          (fun (pass, cold_ns, warm_ns) ->
            Printf.sprintf
              "    { \"pass\": \"%s\", \"cold_ns\": %d, \"warm_ns\": %d }"
              (json_escape pass) cold_ns warm_ns)
          passes
      in
      output_string oc "{\n  \"benchmark\": \"lint\",\n";
      output_string oc
        (Printf.sprintf
           "  \"cold_ns\": %s,\n  \"warm_ns\": %s,\n  \"speedup\": %s,\n"
           (json_float cold) (json_float warm) (json_float speedup));
      output_string oc
        (Printf.sprintf
           "  \"diagnostics\": %d,\n  \"errors\": %d,\n  \"warnings\": %d,\n"
           diagnostics errors warnings);
      output_string oc "  \"passes\": [\n";
      output_string oc (String.concat ",\n" pass_objs);
      output_string oc "\n  ]\n}\n")

let lint_bench () =
  section "LINT"
    "whole-workspace static analysis: cold (caches cleared every run) vs \
     warm (unchanged view, revision memos hit)";
  let p = pair_of_size 400 in
  let r = articulate_pair p in
  let view =
    Lint.view ~conversions:Conversion.builtin
      ~articulations:[ Lint.articulation r.Generator.articulation ]
      [ Lint.source p.Gen.left; Lint.source p.Gen.right ]
  in
  let cold =
    match
      ols_estimates
        [
          Test.make ~name:"cold"
            (Staged.stage (fun () ->
                 Cache_stats.clear_all ();
                 ignore (Lint.run view)));
        ]
    with
    | [ (_, e) ] -> e
    | _ -> Float.nan
  in
  (* One instrumented cold run and one warm run for the per-pass split,
     then the warm OLS estimate over the populated memos. *)
  Cache_stats.clear_all ();
  let cold_report = Lint.run view in
  let warm_report = Lint.run view in
  let warm =
    match
      ols_estimates
        [ Test.make ~name:"warm" (Staged.stage (fun () -> ignore (Lint.run view))) ]
    with
    | [ (_, e) ] -> e
    | _ -> Float.nan
  in
  let speedup = cold /. warm in
  row "full lint: cold %a  warm %a  speedup %6.0fx %s" pp_time cold pp_time
    warm speedup
    (if speedup >= 5.0 then "(>= 5x: PASS)" else "(< 5x: FAIL)");
  let passes =
    List.map2
      (fun (c : Lint.timing) (w : Lint.timing) -> (c.Lint.pass, c.Lint.ns, w.Lint.ns))
      cold_report.Lint.timings warm_report.Lint.timings
  in
  List.iter
    (fun (pass, c, w) ->
      row "  pass %-14s cold %a  warm %a" pass pp_time (float_of_int c)
        pp_time (float_of_int w))
    passes;
  let ds =
    Diagnostic.apply_config Diagnostic.default_config
      cold_report.Lint.diagnostics
  in
  let errors = List.length (Diagnostic.errors ds) in
  let warnings = List.length (Diagnostic.warnings ds) in
  row "diagnostics on the generated pair: %d (%d error(s), %d warning(s))"
    (List.length ds) errors warnings;
  emit_lint_json ~path:"BENCH_lint.json" ~cold ~warm ~speedup ~passes
    ~diagnostics:(List.length ds) ~errors ~warnings;
  row "wrote BENCH_lint.json"

(* ------------------------------------------------------------------ *)
(* STORE — paged segment store: cold open + routed first query         *)
(* ------------------------------------------------------------------ *)

(* One-shot wall clock (not OLS): cold opens are single events whose
   cost we want unamortised, and repeating them would warm the block
   cache the measurement is about. *)
let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let plan_count name =
  Option.value ~default:0 (List.assoc_opt name (Cache_stats.plan_counts ()))

type store_run = {
  sr_n : int;
  sr_islands : int;
  sr_segments : int;
  sr_generate_s : float;
  sr_cold_ns : float;  (* open_ + first routed query, everything cold *)
  sr_warm_ns : float;  (* same handle + query: route snapshot hit *)
  sr_reopen_ns : float;  (* fresh handle, warm block cache *)
  sr_second_ns : float;  (* different island on handle 1: cold group *)
  sr_cold_loads : int;
  sr_reopen_loads : int;
  sr_block_hits : int;
  sr_block_misses : int;
  sr_paged_top : int;  (* top_heap_words after the paged phase *)
  mutable sr_inmem_top : int;
  mutable sr_inmem_open_s : float;
}

let emit_store_json ~path ~budget ~runs ~gate_scaling ~gate_heap ~gate_hits
    ~scaling_ratio ~heap_ratio =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let size_objs =
        List.map
          (fun r ->
            Printf.sprintf
              "    { \"n\": %d, \"islands\": %d, \"segments\": %d, \
               \"generate_s\": %.2f, \"cold_open_first_query_ns\": %s, \
               \"warm_query_ns\": %s, \"reopen_query_ns\": %s, \
               \"second_island_query_ns\": %s, \"cold_segment_loads\": %d, \
               \"reopen_segment_loads\": %d, \"block_hits\": %d, \
               \"block_misses\": %d, \"paged_top_heap_words\": %d, \
               \"inmem_top_heap_words\": %d, \"inmem_open_s\": %.2f }"
              r.sr_n r.sr_islands r.sr_segments r.sr_generate_s
              (json_float r.sr_cold_ns) (json_float r.sr_warm_ns)
              (json_float r.sr_reopen_ns) (json_float r.sr_second_ns)
              r.sr_cold_loads r.sr_reopen_loads r.sr_block_hits
              r.sr_block_misses r.sr_paged_top r.sr_inmem_top
              r.sr_inmem_open_s)
          runs
      in
      output_string oc "{\n  \"benchmark\": \"store\",\n";
      output_string oc
        (Printf.sprintf "  \"block_cache_budget_bytes\": %d,\n" budget);
      output_string oc "  \"sizes\": [\n";
      output_string oc (String.concat ",\n" size_objs);
      output_string oc "\n  ],\n";
      output_string oc
        (Printf.sprintf
           "  \"open_scaling_ratio\": %.3f,\n  \"paged_heap_ratio\": %.3f,\n"
           scaling_ratio heap_ratio);
      output_string oc
        (Printf.sprintf
           "  \"gates\": { \"open_scaling_le_20x\": %b, \
            \"paged_heap_le_quarter\": %b, \"reopen_hits_cache\": %b }\n"
           gate_scaling gate_heap gate_hits);
      output_string oc "}\n")

let store () =
  section "STORE"
    "paged segment store: cold open + routed first query vs federation \
     size, block-cache reopen, and peak heap vs the in-memory backend";
  let sizes =
    match Sys.getenv_opt "ONION_BENCH_STORE_SIZES" with
    | Some s ->
        String.split_on_char ',' s
        |> List.filter_map (fun tok -> int_of_string_opt (String.trim tok))
        |> List.filter (fun n -> n > 0)
    | None -> [ 10_000; 100_000; 1_000_000 ]
  in
  let sizes = List.sort_uniq compare sizes in
  let dirs = ref [] in
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      List.iter (fun d -> if Sys.file_exists d then rm d) !dirs)
  @@ fun () ->
  let ok = function Ok v -> v | Error m -> failwith ("store bench: " ^ m) in
  let query k =
    Printf.sprintf "SELECT * FROM %s:%s"
      (Gen.federation_source_name "src" k)
      (Gen.concept_name 17)
  in
  let run_query ws text =
    let space, _health = ok (Workspace.query_space ws text) in
    let kbs =
      List.map
        (fun o ->
          Kb.of_ontology_instances ~ontology:o ("kb-" ^ Ontology.name o))
        space.Federation.sources
    in
    let env = Mediator.env_federated ~kbs ~space () in
    ignore
      (ok
         (Mediator.run_text
            ?default_ontology:(Workspace.default_ontology ws)
            env text))
  in
  (* Paged phase for every size FIRST: top_heap_words is monotone over
     the process lifetime, so the paged numbers must be captured before
     any in-memory open inflates the high-water mark. *)
  let runs =
    List.map
      (fun n ->
        let islands = max 2 (n / 1000) in
        let terms = min n 1000 in
        let dir = Filename.temp_file "onion-bench-store" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        dirs := dir :: !dirs;
        let ws0 = ok (Workspace.init ~paged:true dir) in
        let (), generate_s =
          wall (fun () ->
              let p = Workspace.publisher ws0 in
              ok
                (Gen.federation_stream ~islands ~terms ~seed:11 ~prefix:"src"
                   ~emit_source:(fun o ->
                     Workspace.publish_source p o ~ext:".adj"
                       ~payload:(Adjacency.print (Ontology.graph o)))
                   ~emit_articulation:(Workspace.publish_articulation p)
                   ());
              ok (Workspace.commit p))
        in
        let segments = islands + (islands / 2) in
        Cache_stats.reset_plans ();
        let ws1, cold_s =
          wall (fun () ->
              let ws = ok (Workspace.open_ dir) in
              run_query ws (query 0);
              ws)
        in
        let cold_loads = plan_count "store.segment_load" in
        let misses = plan_count "store.block_miss" in
        let (), warm_s = wall (fun () -> run_query ws1 (query 0)) in
        let hits0 = plan_count "store.block_hit" in
        let loads0 = plan_count "store.segment_load" in
        let (), reopen_s =
          wall (fun () ->
              let ws = ok (Workspace.open_ dir) in
              run_query ws (query 0))
        in
        let reopen_loads = plan_count "store.segment_load" - loads0 in
        let hits = plan_count "store.block_hit" - hits0 in
        let (), second_s =
          wall (fun () ->
              if islands >= 4 then run_query ws1 (query 2))
        in
        let paged_top = (Gc.quick_stat ()).Gc.top_heap_words in
        row "n=%7d  islands %4d  generate %6.1fs  cold open+query %a  \
             warm %a  reopen %a"
          n islands generate_s pp_time (cold_s *. 1e9) pp_time
          (warm_s *. 1e9) pp_time (reopen_s *. 1e9);
        row "           cold loads %d  reopen loads %d (hits %d, misses \
             %d)  paged top heap %d words"
          cold_loads reopen_loads hits misses paged_top;
        {
          sr_n = n;
          sr_islands = islands;
          sr_segments = segments;
          sr_generate_s = generate_s;
          sr_cold_ns = cold_s *. 1e9;
          sr_warm_ns = warm_s *. 1e9;
          sr_reopen_ns = reopen_s *. 1e9;
          sr_second_ns = second_s *. 1e9;
          sr_cold_loads = cold_loads;
          sr_reopen_loads = reopen_loads;
          sr_block_hits = hits;
          sr_block_misses = misses;
          sr_paged_top = paged_top;
          sr_inmem_top = 0;
          sr_inmem_open_s = 0.0;
        })
      sizes
  in
  (* In-memory phase: force the FULL federation through the same paged
     workspaces (Workspace.space materialises every part), so the heap
     comparison is backend-vs-backend on identical data. *)
  let dirs_asc = List.rev !dirs in
  List.iteri
    (fun i r ->
      let dir = List.nth dirs_asc i in
      let ws = ok (Workspace.open_ dir) in
      let (), inmem_s = wall (fun () -> ignore (ok (Workspace.space ws))) in
      r.sr_inmem_open_s <- inmem_s;
      r.sr_inmem_top <- (Gc.quick_stat ()).Gc.top_heap_words;
      row "n=%7d  in-memory full open %6.1fs  top heap %d words" r.sr_n
        inmem_s r.sr_inmem_top)
    runs;
  let largest = List.nth runs (List.length runs - 1) in
  let scaling_ratio, gate_scaling =
    if List.length runs < 2 then (1.0, true)
    else
      let mid = List.nth runs (List.length runs - 2) in
      let ratio = largest.sr_cold_ns /. mid.sr_cold_ns in
      (ratio, ratio <= 20.0)
  in
  let heap_ratio =
    float_of_int largest.sr_paged_top /. float_of_int largest.sr_inmem_top
  in
  let gate_heap = heap_ratio <= 0.25 in
  let gate_hits = largest.sr_block_hits > 0 && largest.sr_reopen_loads = 0 in
  row "gates: open scaling %.1fx (<= 20x: %s)  paged/inmem heap %.3f (<= \
       0.25: %s)  reopen served from block cache: %s"
    scaling_ratio
    (if gate_scaling then "PASS" else "FAIL")
    heap_ratio
    (if gate_heap then "PASS" else "FAIL")
    (if gate_hits then "PASS" else "FAIL");
  emit_store_json ~path:"BENCH_store.json"
    ~budget:(Workspace.block_cache_budget ())
    ~runs ~gate_scaling ~gate_heap ~gate_hits ~scaling_ratio ~heap_ratio;
  row "wrote BENCH_store.json"

(* ------------------------------------------------------------------ *)
(* INCR — delta-driven incremental re-lint after a 1-node edit         *)
(* ------------------------------------------------------------------ *)

(* BENCH_incr.json: wall-clock of the full recompute a non-incremental
   engine pays after any edit vs the delta-driven re-lint after a
   1-node edit, the equivalence verdict, and the delta.* plan counters.
   Hand-rolled JSON like BENCH_cache. *)
let emit_incr_json ~path ~n ~sources ~edits ~cold_ns ~incr_ns ~speedup
    ~identical ~ops ~rerun ~skipped ~patches =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\n  \"benchmark\": \"incr\",\n";
      output_string oc
        (Printf.sprintf "  \"n\": %d,\n  \"sources\": %d,\n  \"edits\": %d,\n"
           n sources edits);
      output_string oc
        (Printf.sprintf
           "  \"cold_ns\": %s,\n  \"incremental_ns\": %s,\n  \"speedup\": \
            %s,\n"
           (json_float cold_ns) (json_float incr_ns) (json_float speedup));
      output_string oc
        (Printf.sprintf "  \"identical_reports\": %b,\n" identical);
      output_string oc
        (Printf.sprintf
           "  \"delta\": { \"ops\": %d, \"passes_rerun\": %d, \
            \"passes_skipped\": %d, \"index_patches\": %d },\n"
           ops rerun skipped patches);
      output_string oc
        (Printf.sprintf
           "  \"gates\": { \"incremental_speedup_ge_20x\": %b, \
            \"identical_reports\": %b }\n"
           (speedup >= 20.0) identical);
      output_string oc "}\n")

let incr () =
  section "INCR"
    "delta-driven incremental lint: 1-node edit of an n=2000 workspace, \
     full recompute vs impact-scoped re-check";
  let islands = 20 and terms = 100 in
  let n = islands * terms in
  let dir = Filename.temp_file "onion-bench-incr" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      if Sys.file_exists dir then rm dir)
  @@ fun () ->
  let ok = function Ok v -> v | Error m -> failwith ("incr bench: " ^ m) in
  let ws0 = ok (Workspace.init dir) in
  let p = Workspace.publisher ws0 in
  ok
    (Gen.federation_stream ~islands ~terms ~seed:11 ~prefix:"src"
       ~emit_source:(fun o ->
         Workspace.publish_source p o ~ext:".adj"
           ~payload:(Adjacency.print (Ontology.graph o)))
       ~emit_articulation:(Workspace.publish_articulation p)
       ());
  ok (Workspace.commit p);
  let ws = ok (Workspace.open_ dir) in
  let src = Gen.federation_source_name "src" 0 in
  let mean = function
    | [] -> Float.nan
    | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  (* Cold: what a non-incremental engine pays after any edit — re-read,
     re-parse and re-run every pass.  Caching is disabled inside the
     measured thunk so the measurement neither benefits from nor
     disturbs the warm state the incremental phase needs. *)
  let cold_ns =
    List.init 3 (fun _ ->
        let (), s =
          wall (fun () ->
              Cache_stats.with_disabled (fun () -> ignore (Workspace.lint ws)))
        in
        s)
    |> mean |> ( *. ) 1e9
  in
  (* Warm the whole-report memo once, then alternate 1-node probe edits:
     each [edit] records the delta chain, each [lint] takes the
     impact-scoped path.  Every incremental report is checked
     bit-for-bit against a from-scratch reference. *)
  ignore (Workspace.lint ws);
  let ops0 = plan_count "delta.ops" in
  let rerun0 = plan_count "delta.passes_rerun" in
  let skipped0 = plan_count "delta.passes_skipped" in
  let patches0 = plan_count "delta.index_patch" in
  let edits = 10 in
  let identical = ref true in
  let times =
    List.init edits (fun i ->
        let op =
          if i mod 2 = 0 then Transform.Add_node ("zz_incr_probe", [])
          else Transform.Delete_node "zz_incr_probe"
        in
        ignore (ok (Workspace.edit ws ~source:src [ op ]) : Delta.t);
        let report, s = wall (fun () -> Workspace.lint ws) in
        let reference =
          Cache_stats.with_disabled (fun () -> Workspace.lint ws)
        in
        if not (report.Lint.diagnostics = reference.Lint.diagnostics) then
          identical := false;
        s)
  in
  let incr_ns = mean times *. 1e9 in
  let speedup = cold_ns /. incr_ns in
  let ops = plan_count "delta.ops" - ops0 in
  let rerun = plan_count "delta.passes_rerun" - rerun0 in
  let skipped = plan_count "delta.passes_skipped" - skipped0 in
  let patches = plan_count "delta.index_patch" - patches0 in
  row "n=%d (%d sources): cold full lint %a  incremental 1-node re-lint %a  \
       speedup %6.0fx %s"
    n islands pp_time cold_ns pp_time incr_ns speedup
    (if speedup >= 20.0 then "(>= 20x: PASS)" else "(< 20x: FAIL)");
  row "equivalence: %d/%d incremental reports bit-for-bit identical to the \
       cold reference %s"
    (if !identical then edits else 0)
    edits
    (if !identical then "(PASS)" else "(FAIL)");
  row "delta counters over %d edits: ops %d, passes rerun %d, passes \
       skipped %d, index patches %d"
    edits ops rerun skipped patches;
  emit_incr_json ~path:"BENCH_incr.json" ~n ~sources:islands ~edits ~cold_ns
    ~incr_ns ~speedup ~identical:!identical ~ops ~rerun ~skipped ~patches;
  row "wrote BENCH_incr.json"

let sections_by_id =
  [
    ("fig2", fig2);
    ("alg", alg);
    ("scale-art", scale_art);
    ("maint", maint);
    ("skat", skat);
    ("qry", qry);
    ("pat", pat);
    ("inf", inf);
    ("abl", abl);
    ("med", med);
    ("fed", fed);
    ("cache", cache);
    ("match", match_);
    ("fault", fault);
    ("serve", serve);
    ("chaos", chaos);
    ("lint", lint_bench);
    ("store", store);
    ("incr", incr);
  ]

let () =
  Format.printf "ONION benchmark harness — one section per DESIGN.md experiment id@.";
  (* With no arguments every section runs; otherwise each argument names a
     section id (case-insensitive), e.g. `dune exec bench/main.exe cache`. *)
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst sections_by_id
    | args -> List.map String.lowercase_ascii args
  in
  List.iter
    (fun id ->
      if not (List.mem_assoc id sections_by_id) then begin
        Format.eprintf "unknown section %s (known: %s)@." id
          (String.concat ", " (List.map fst sections_by_id));
        exit 2
      end)
    requested;
  (* Each section starts from zeroed counters so the BENCH_*.json hit/miss
     figures reflect that section's work alone, not whatever ran before. *)
  List.iter
    (fun (id, f) ->
      if List.mem id requested then begin
        Cache_stats.clear_all ();
        f ()
      end)
    sections_by_id;
  Format.printf "@.done.@."
