type env = {
  kbs : Kb.t list;
  space : Federation.t;
  conversions : Conversion.t;
  unavailable : string list;
}

let env_federated ~kbs ~space ?(conversions = Conversion.builtin)
    ?(unavailable = []) () =
  { kbs; space; conversions; unavailable }

let env ~kbs ~unified ?conversions ?unavailable () =
  env_federated ~kbs ~space:(Federation.of_unified unified) ?conversions
    ?unavailable ()

let with_outage e unavailable = { e with unavailable }

type tuple = {
  kb : string;
  source : string;
  instance : string;
  concept : string;
  values : (string * Conversion.value) list;
}

type report = {
  plan : Plan.t;
  fanout : Domain_pool.batch;
  tuples : tuple list;
  aggregates : (string * Conversion.value) list;
  scanned : int;
  transferred : int;
  conversion_failures : (string * string) list;
  skipped_kbs : string list;
}

let explain_fanout r = Domain_pool.explain_batch r.fanout

let tuple_value t attr = List.assoc_opt attr t.values

let pp_tuple ppf t =
  Format.fprintf ppf "%s/%s (%s:%s) {%a}" t.kb t.instance t.source t.concept
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (a, v) -> Format.fprintf ppf "%s=%a" a Conversion.pp_value v))
    t.values

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s" (Plan.explain r.plan);
  if r.skipped_kbs <> [] then
    Format.fprintf ppf "offline, skipped: %s@," (String.concat ", " r.skipped_kbs);
  if r.aggregates <> [] then begin
    Format.fprintf ppf "aggregates over %d matching instance(s):@,"
      (List.length r.tuples);
    List.iter
      (fun (label, v) -> Format.fprintf ppf "  %s = %a@," label Conversion.pp_value v)
      r.aggregates
  end
  else begin
    Format.fprintf ppf "%d tuple(s) from %d scanned (%d transferred):@,"
      (List.length r.tuples) r.scanned r.transferred;
    List.iter (fun t -> Format.fprintf ppf "  %a@," pp_tuple t) r.tuples
  end;
  Format.fprintf ppf "@]"

(* Minimal JSON rendering — kept local so onion_query stays free of a
   dependency on the store layer's Status_json. *)
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

let jstr s = "\"" ^ json_escape s ^ "\""

let jarr items = "[" ^ String.concat ", " items ^ "]"

let jobj fields =
  "{ "
  ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields)
  ^ " }"

let jvalue = function
  | Conversion.Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
      else Printf.sprintf "%.12g" f
  | Conversion.Bool b -> string_of_bool b
  | Conversion.Str s -> jstr s

let report_json ?(explain = false) r =
  let tuple t =
    jobj
      [
        ("kb", jstr t.kb);
        ("source", jstr t.source);
        ("instance", jstr t.instance);
        ("concept", jstr t.concept);
        ("values", jobj (List.map (fun (a, v) -> (a, jvalue v)) t.values));
      ]
  in
  let base =
    [
      ("tuples", jarr (List.map tuple r.tuples));
      ("aggregates", jobj (List.map (fun (a, v) -> (a, jvalue v)) r.aggregates));
      ("scanned", string_of_int r.scanned);
      ("transferred", string_of_int r.transferred);
      ("skipped_kbs", jarr (List.map jstr r.skipped_kbs));
    ]
  in
  let fields =
    if explain then ("explain", jstr (explain_fanout r)) :: base else base
  in
  jobj fields

(* Post-processing: ORDER BY, LIMIT, aggregates. *)
let order_and_limit (q : Query.t) tuples =
  let tuples =
    match q.Query.order_by with
    | None -> tuples
    | Some (attr, dir) ->
        let key t = tuple_value t attr in
        let cmp t1 t2 =
          let base =
            match (key t1, key t2) with
            | Some a, Some b -> (
                match Query.compare_values a b with
                | Some c -> c
                | None -> 0)
            | Some _, None -> -1 (* keyed tuples first *)
            | None, Some _ -> 1
            | None, None -> 0
          in
          let base = match dir with Query.Asc -> base | Query.Desc -> -base in
          if base <> 0 then base
          else
            match String.compare t1.kb t2.kb with
            | 0 -> String.compare t1.instance t2.instance
            | c -> c
        in
        List.stable_sort cmp tuples
  in
  match q.Query.limit with
  | None -> tuples
  | Some n -> List.filteri (fun i _ -> i < n) tuples

let compute_aggregates (q : Query.t) tuples =
  List.filter_map
    (fun agg ->
      let label = Query.aggregate_label agg in
      (* Numeric attribute values for one aggregated attribute; non-numeric
         and missing values do not contribute (SQL-style NULL skipping). *)
      let numeric_values a =
        List.filter_map
          (fun t ->
            match tuple_value t a with
            | Some (Conversion.Num f) -> Some f
            | _ -> None)
          tuples
      in
      let over a reduce =
        match numeric_values a with
        | [] -> None
        | vs -> Some (label, Conversion.Num (reduce vs))
      in
      match agg with
      | Query.Count -> Some (label, Conversion.Num (float_of_int (List.length tuples)))
      | Query.Sum a -> over a (List.fold_left ( +. ) 0.0)
      | Query.Avg a ->
          over a (fun vs ->
              List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs))
      | Query.Min a -> over a (List.fold_left Float.min Float.max_float)
      | Query.Max a -> over a (List.fold_left Float.max (-.Float.max_float)))
    q.Query.aggregates

(* A predicate compiled for source-side evaluation: the attribute in source
   vocabulary and the constant already crossed into source space. *)
type pushed = { source_attr : string; op : Query.comparison; local : Conversion.value }

let compile_pushdown e (sp : Plan.source_plan) =
  List.filter_map
    (fun (p : Query.predicate) ->
      match
        List.find_opt
          (fun (b : Plan.attr_binding) -> String.equal b.Plan.art_attr p.Query.attr)
          sp.Plan.attrs
      with
      | None -> None
      | Some binding -> (
          match binding.Plan.to_articulation with
          | None ->
              Some
                ( p,
                  {
                    source_attr = binding.Plan.source_attr;
                    op = p.Query.op;
                    local = p.Query.value;
                  } )
          | Some _ -> (
              match binding.Plan.from_articulation with
              | None -> None
              | Some inverse -> (
                  match Conversion.apply e.conversions inverse p.Query.value with
                  | Ok local ->
                      Some
                        ( p,
                          {
                            source_attr = binding.Plan.source_attr;
                            op = p.Query.op;
                            local;
                          } )
                  | Error _ -> None))))
    sp.Plan.pushable

let pushed_holds (inst : Kb.instance) (c : pushed) =
  match Kb.attr_value inst c.source_attr with
  | None -> false
  | Some v -> Query.holds { Query.attr = c.source_attr; op = c.op; value = c.local } v

let run ?(pushdown = false) e (q : Query.t) =
  match Rewrite.plan e.space ~conversions:e.conversions q with
  | Error m -> Error m
  | Ok plan ->
      (* Each source plan is evaluated independently (its own counters and
         failure log) so the per-source fan-out can run on the domain
         pool; the per-source results are folded back together in plan
         order, which keeps every output field identical to the
         sequential evaluation at any pool size. *)
      let run_source (sp : Plan.source_plan) =
        (* Per-source cancellation point: a federated query that has
           blown its deadline stops before scanning the next source's
           stores (the matcher handles finer granularity below). *)
        Deadline.check ();
        let scanned = ref 0 in
        let transferred = ref 0 in
        let failures = ref [] in
        let source_side, remaining =
          if pushdown then begin
            let compiled = compile_pushdown e sp in
            let pushed_preds = List.map fst compiled in
            let remaining =
              List.filter
                (fun p -> not (List.memq p pushed_preds))
                q.Query.where
            in
            (List.map snd compiled, remaining)
          end
          else ([], q.Query.where)
        in
        let kbs =
          List.filter
            (fun kb ->
              String.equal (Ontology.name (Kb.ontology kb)) sp.Plan.source
              && not (List.mem (Kb.name kb) e.unavailable))
            e.kbs
        in
        let tuples =
          List.concat_map
            (fun kb ->
            (* The concept list already contains subclasses (they reach the
               query concept through their own semantic path), so scan each
               non-transitively and deduplicate ids. *)
            let seen = Hashtbl.create 16 in
            List.concat_map
              (fun concept ->
                Kb.instances_of ~transitive:false kb ~concept
                |> List.filter_map (fun (inst : Kb.instance) ->
                       if Hashtbl.mem seen inst.Kb.id then None
                       else begin
                         Hashtbl.add seen inst.Kb.id ();
                         incr scanned;
                         if not (List.for_all (pushed_holds inst) source_side)
                         then None
                         else begin
                           incr transferred;
                           (* Lift attribute values into articulation
                              space. *)
                           let values =
                             List.filter_map
                               (fun (b : Plan.attr_binding) ->
                                 match Kb.attr_value inst b.Plan.source_attr with
                                 | None -> None
                                 | Some v -> (
                                     match b.Plan.to_articulation with
                                     | None -> Some (b.Plan.art_attr, v)
                                     | Some fn -> (
                                         match
                                           Conversion.apply e.conversions fn v
                                         with
                                         | Ok v' -> Some (b.Plan.art_attr, v')
                                         | Error m ->
                                             failures :=
                                               (inst.Kb.id, m) :: !failures;
                                             None)))
                               sp.Plan.attrs
                             |> List.sort (fun (a, _) (b, _) -> String.compare a b)
                           in
                           let passes =
                             List.for_all
                               (fun (p : Query.predicate) ->
                                 match List.assoc_opt p.Query.attr values with
                                 | Some v -> Query.holds p v
                                 | None -> false)
                               remaining
                           in
                           if passes then
                             Some
                               {
                                 kb = Kb.name kb;
                                 source = sp.Plan.source;
                                 instance = inst.Kb.id;
                                 concept = inst.Kb.concept;
                                 values;
                               }
                           else None
                         end
                       end))
                sp.Plan.concepts)
            kbs
        in
        (tuples, !scanned, !transferred, List.rev !failures)
      in
      (* Per-source work is dominated by scanning the stores: every
         involved kb's instances are touched once, with constant-ish work
         per instance (set probes, predicate checks, conversions).  The
         estimate feeds both the pool's fan-out gate and the report's
         explainable plan. *)
      let total_instances =
        List.fold_left (fun acc kb -> acc + Kb.size kb) 0 e.kbs
      in
      let num_sources = List.length plan.Plan.sources in
      let per_source_cost =
        10.0 *. float_of_int total_instances
        /. float_of_int (max 1 num_sources)
      in
      let fanout =
        Domain_pool.batch_plan ~items:num_sources ~per_item_cost:per_source_cost
      in
      let per_source =
        Domain_pool.map ~cost:per_source_cost run_source plan.Plan.sources
      in
      let scanned =
        List.fold_left (fun acc (_, s, _, _) -> acc + s) 0 per_source
      in
      let transferred =
        List.fold_left (fun acc (_, _, t, _) -> acc + t) 0 per_source
      in
      let failures = List.concat_map (fun (_, _, _, f) -> f) per_source in
      let tuples =
        List.concat_map (fun (ts, _, _, _) -> ts) per_source
        |> List.sort (fun t1 t2 ->
               match String.compare t1.kb t2.kb with
               | 0 -> String.compare t1.instance t2.instance
               | c -> c)
      in
      let aggregates = compute_aggregates q tuples in
      let tuples = order_and_limit q tuples in
      let skipped_kbs =
        List.filter_map
          (fun kb ->
            let name = Kb.name kb in
            let involved =
              List.exists
                (fun sp ->
                  String.equal (Ontology.name (Kb.ontology kb)) sp.Plan.source)
                plan.Plan.sources
            in
            if involved && List.mem name e.unavailable then Some name else None)
          e.kbs
        |> List.sort_uniq String.compare
      in
      Ok
        {
          plan;
          fanout;
          tuples;
          aggregates;
          scanned;
          transferred;
          conversion_failures = failures;
          skipped_kbs;
        }

let run_text ?pushdown ?default_ontology e text =
  let default_ontology =
    match default_ontology with
    | Some d -> d
    | None -> Option.value (Federation.primary_articulation e.space) ~default:"transport"
  in
  match Query.parse ~default_ontology text with
  | Error m -> Error m
  | Ok q -> run ?pushdown e q
