let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))
let check_string = Alcotest.(check string)

let test_size_floor () =
  Domain_pool.with_size 0 (fun () ->
      check_int "clamped to 1" 1 (Domain_pool.size ()));
  Domain_pool.with_size (-3) (fun () ->
      check_int "clamped to 1" 1 (Domain_pool.size ()))

let test_with_size_restores () =
  let before = Domain_pool.size () in
  Domain_pool.with_size (before + 7) (fun () ->
      check_int "inside override" (before + 7) (Domain_pool.size ()));
  check_int "restored" before (Domain_pool.size ());
  (try
     Domain_pool.with_size (before + 9) (fun () -> failwith "boom")
   with Failure _ -> ());
  check_int "restored after exception" before (Domain_pool.size ())

let test_map_order () =
  List.iter
    (fun k ->
      Domain_pool.with_size k (fun () ->
          let input = List.init 101 Fun.id in
          check_ints
            (Printf.sprintf "map preserves order at size %d" k)
            (List.map (fun x -> x * x) input)
            (Domain_pool.map (fun x -> x * x) input);
          check_ints
            (Printf.sprintf "concat_map at size %d" k)
            (List.concat_map (fun x -> [ x; -x ]) input)
            (Domain_pool.concat_map (fun x -> [ x; -x ]) input);
          check_ints
            (Printf.sprintf "filter at size %d" k)
            (List.filter (fun x -> x mod 3 = 0) input)
            (Domain_pool.filter (fun x -> x mod 3 = 0) input)))
    [ 1; 2; 4; 8 ]

let test_map_empty_and_singleton () =
  Domain_pool.with_size 4 (fun () ->
      check_ints "empty" [] (Domain_pool.map succ []);
      check_ints "singleton" [ 42 ] (Domain_pool.map succ [ 41 ]))

let test_exception_propagates () =
  Domain_pool.with_size 4 (fun () ->
      let r =
        try
          ignore
            (Domain_pool.map
               (fun x -> if x = 57 then failwith "task 57" else x)
               (List.init 100 Fun.id));
          None
        with Failure m -> Some m
      in
      Alcotest.(check (option string)) "first failure surfaces"
        (Some "task 57") r)

let test_parallel_graph_building () =
  (* Graphs built concurrently must draw distinct revision stamps: equal
     revisions imply the very same value is the cache-soundness
     invariant. *)
  Domain_pool.with_size 4 (fun () ->
      let graphs =
        Domain_pool.map
          (fun i ->
            List.fold_left
              (fun g j ->
                Digraph.add_edge g
                  (Printf.sprintf "n%d-%d" i j)
                  "S"
                  (Printf.sprintf "n%d-%d" i (j + 1)))
              Digraph.empty (List.init 50 Fun.id))
          (List.init 8 Fun.id)
      in
      let revisions = List.map Digraph.revision graphs in
      check_int "distinct revisions" (List.length revisions)
        (List.length (List.sort_uniq compare revisions));
      check_bool "all graphs complete" true
        (List.for_all (fun g -> Digraph.nb_edges g = 50) graphs))

let test_concurrent_cache_traffic () =
  (* Hammer one shared Lru from every worker: no crash, exact results.
     (The interesting assertion is the absence of a segfault/corruption;
     the value check guards against torn reads.) *)
  Domain_pool.with_size 4 (fun () ->
      let g =
        List.fold_left
          (fun g i ->
            Digraph.add_edge g (Printf.sprintf "c%d" i) "S"
              (Printf.sprintf "c%d" (i + 1)))
          Digraph.empty (List.init 30 Fun.id)
      in
      let p = Pattern_parser.parse_exn "?X -[S]-> ?Y" in
      let expected = List.length (Matcher.find ~limit:1000 p g) in
      let counts =
        Domain_pool.map
          (fun _ -> List.length (Matcher.find ~limit:1000 p g))
          (List.init 32 Fun.id)
      in
      check_bool "all workers agree" true
        (List.for_all (fun c -> c = expected) counts))

(* ------------------------------------------------------------------ *)
(* Cost-gated fan-out                                                  *)
(* ------------------------------------------------------------------ *)

let batch_name b = Domain_pool.batch_strategy_name b.Domain_pool.batch_strategy

let test_batch_plan_gating () =
  Domain_pool.with_size 4 (fun () ->
      (* Eight small items: the saved wall-clock can't cover three extra
         domain spawns, so the pool must stay sequential. *)
      check_string "tiny batch stays sequential" "sequential"
        (batch_name (Domain_pool.batch_plan ~items:8 ~per_item_cost:1000.0));
      (* Heavy batch: fanning out to all four domains is pure profit. *)
      check_string "heavy batch fans out" "parallel(4)"
        (batch_name
           (Domain_pool.batch_plan ~items:64 ~per_item_cost:100_000.0));
      (* k is capped by the item count, not just the pool size. *)
      check_string "k capped by items" "parallel(2)"
        (batch_name
           (Domain_pool.batch_plan ~items:2 ~per_item_cost:1_000_000.0)));
  Domain_pool.with_size 1 (fun () ->
      check_string "single domain is always sequential" "sequential"
        (batch_name
           (Domain_pool.batch_plan ~items:64 ~per_item_cost:100_000.0)))

(* Everything before the " strategy=" key — the part of a batch explain
   that must not vary with the domain count. *)
let strip_strategy s =
  let marker = " strategy=" in
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length s then s
    else if String.equal (String.sub s i ml) marker then String.sub s 0 i
    else find (i + 1)
  in
  find 0

let test_batch_explain_deterministic () =
  (* Batch plans may legitimately flip strategy with the domain count;
     everything before the strategy field must be identical. *)
  let b1 = Domain_pool.batch ~domains:1 ~items:8 ~per_item_cost:6000.0 in
  let b4 = Domain_pool.batch ~domains:4 ~items:8 ~per_item_cost:6000.0 in
  check_string "batch explain identical modulo strategy"
    (strip_strategy (Domain_pool.explain_batch b1))
    (strip_strategy (Domain_pool.explain_batch b4))

let test_batch_explain_shape () =
  (* The one-line rendering is stable enough to golden-test: pure
     arithmetic over the caller's numbers, no timing, no pointers. *)
  let b = Domain_pool.batch ~domains:4 ~items:3 ~per_item_cost:100.0 in
  check_string "batch explain pinned"
    "plan: items=3 per-item\xe2\x89\x88100 total\xe2\x89\x88300 \
     floor\xe2\x89\x886e+04 strategy=sequential"
    (Domain_pool.explain_batch b)

let test_with_gating_off_forces_parallel () =
  Domain_pool.with_size 4 (fun () ->
      Domain_pool.with_gating false (fun () ->
          check_string "gating off forces the fan-out shape" "parallel(2)"
            (batch_name (Domain_pool.batch_plan ~items:2 ~per_item_cost:1.0))));
  (* Fun.protect restores gating even across exceptions. *)
  (try
     Domain_pool.with_gating false (fun () -> failwith "boom")
   with Failure _ -> ());
  Domain_pool.with_size 4 (fun () ->
      check_string "gating restored" "sequential"
        (batch_name (Domain_pool.batch_plan ~items:2 ~per_item_cost:1.0)))

let test_cost_gated_map_results () =
  (* Whatever the gate decides, results are List.map's, in order. *)
  let input = List.init 101 Fun.id in
  List.iter
    (fun cost ->
      Domain_pool.with_size 4 (fun () ->
          check_ints
            (Printf.sprintf "map ~cost:%g = List.map" cost)
            (List.map (fun x -> x * 3) input)
            (Domain_pool.map ~cost (fun x -> x * 3) input);
          check_ints
            (Printf.sprintf "filter ~cost:%g = List.filter" cost)
            (List.filter (fun x -> x mod 7 = 0) input)
            (Domain_pool.filter ~cost (fun x -> x mod 7 = 0) input)))
    [ 1.0; 100_000.0 ]

let test_pool_plan_counters () =
  Domain_pool.with_size 4 (fun () ->
      Cache_stats.reset_plans ();
      ignore (Domain_pool.map ~cost:1.0 succ (List.init 8 Fun.id));
      ignore (Domain_pool.map ~cost:100_000.0 succ (List.init 64 Fun.id));
      let counts = Cache_stats.plan_counts () in
      check_int "one sequential decision" 1
        (try List.assoc "pool.sequential" counts with Not_found -> 0);
      check_int "one parallel decision" 1
        (try List.assoc "pool.parallel" counts with Not_found -> 0);
      (* clear_all models cold caches; the decision log is not a cache. *)
      Cache_stats.clear_all ();
      check_bool "counters survive clear_all" true
        (Cache_stats.plan_counts () <> []);
      Cache_stats.reset_plans ())

(* The persistent pool's nested-call fallback: a task running ON the
   pool that itself calls a combinator must run it sequentially instead
   of queueing work it would then wait on — a lint pass fanning out
   inside a pooled request must neither deadlock nor oversubscribe.
   With a per-call-spawn pool this held trivially; the regression guards
   it for the persistent workers (whose [in_worker] flag is set once for
   the domain's lifetime) AND for the caller-participant path. *)
let test_pool_inside_pool () =
  Domain_pool.with_size 4 (fun () ->
      let input = List.init 12 Fun.id in
      let expected =
        List.map (fun x -> List.init 8 (fun i -> (100 * x) + i)) input
      in
      let got =
        Domain_pool.map
          (fun x ->
            (* Inner fan-out from inside a pool task. *)
            Domain_pool.map (fun i -> (100 * x) + i) (List.init 8 Fun.id))
          input
      in
      Alcotest.(check (list (list int))) "pool-inside-pool results" expected
        got)

let test_persistent_pool_counters () =
  Domain_pool.with_size 2 (fun () ->
      Domain_pool.ensure_started ();
      check_bool "workers persist" true (Domain_pool.started () >= 1);
      Cache_stats.reset_plans ();
      (* The pool is already running, so this batch spawns nothing and
         must be counted as a reuse hit. *)
      ignore (Domain_pool.map succ (List.init 16 Fun.id));
      let reuse counts =
        try List.assoc "pool.reuse_hits" counts with Not_found -> 0
      in
      check_bool "batch reused persistent workers" true
        (reuse (Cache_stats.plan_counts ()) >= 1);
      (* clear_all models cold caches; pool telemetry is not a cache. *)
      Cache_stats.clear_all ();
      check_bool "pool counters survive clear_all" true
        (reuse (Cache_stats.plan_counts ()) >= 1);
      Cache_stats.reset_plans ())

let suite =
  [
    ( "domain-pool",
      [
        Alcotest.test_case "size floor" `Quick test_size_floor;
        Alcotest.test_case "with_size restores" `Quick test_with_size_restores;
        Alcotest.test_case "map/concat_map/filter order" `Quick test_map_order;
        Alcotest.test_case "empty and singleton" `Quick
          test_map_empty_and_singleton;
        Alcotest.test_case "exception propagation" `Quick
          test_exception_propagates;
        Alcotest.test_case "parallel graph building" `Quick
          test_parallel_graph_building;
        Alcotest.test_case "concurrent cache traffic" `Quick
          test_concurrent_cache_traffic;
        Alcotest.test_case "batch plan gating" `Quick test_batch_plan_gating;
        Alcotest.test_case "batch explain deterministic across domains"
          `Quick test_batch_explain_deterministic;
        Alcotest.test_case "batch explain shape" `Quick
          test_batch_explain_shape;
        Alcotest.test_case "gating override" `Quick
          test_with_gating_off_forces_parallel;
        Alcotest.test_case "cost-gated map equals List.map" `Quick
          test_cost_gated_map_results;
        Alcotest.test_case "pool plan counters" `Quick
          test_pool_plan_counters;
        Alcotest.test_case "pool inside pool" `Quick test_pool_inside_pool;
        Alcotest.test_case "persistent pool counters" `Quick
          test_persistent_pool_counters;
      ] );
  ]
