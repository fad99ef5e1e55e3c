type node = { id : string; label : string option; binder : string option }

type edge = { src : string; elabel : string option; dst : string }

type t = { ontology : string option; pnodes : node list; pedges : edge list }

let nodes p = p.pnodes
let edges p = p.pedges
let ontology_hint p = p.ontology
let size p = List.length p.pnodes

let create ?ontology ~nodes ~edges () =
  if nodes = [] then invalid_arg "Pattern.create: a pattern needs at least one node";
  let ids = List.map (fun n -> n.id) nodes in
  let sorted_ids = List.sort String.compare ids in
  let rec check_dup = function
    | a :: (b :: _ as rest) ->
        if String.equal a b then
          invalid_arg ("Pattern.create: duplicate node id " ^ a)
        else check_dup rest
    | _ -> ()
  in
  check_dup sorted_ids;
  let binder_names = List.filter_map (fun n -> n.binder) nodes in
  check_dup (List.sort String.compare binder_names);
  List.iter
    (fun e ->
      if not (List.mem e.src ids) then
        invalid_arg ("Pattern.create: edge source " ^ e.src ^ " is not a node");
      if not (List.mem e.dst ids) then
        invalid_arg ("Pattern.create: edge target " ^ e.dst ^ " is not a node"))
    edges;
  let pnodes = List.sort (fun a b -> String.compare a.id b.id) nodes in
  { ontology; pnodes; pedges = edges }

let term ?binder label =
  create ~nodes:[ { id = label; label = Some label; binder } ] ~edges:[] ()

let var name =
  create ~nodes:[ { id = "?" ^ name; label = None; binder = Some name } ] ~edges:[] ()

let path ?ontology labels =
  match labels with
  | [] -> invalid_arg "Pattern.path: empty path"
  | _ ->
      (* Duplicate labels in a path get distinct ids via position suffix. *)
      let nodes =
        List.mapi
          (fun i l -> { id = Printf.sprintf "%d/%s" i l; label = Some l; binder = None })
          labels
      in
      let edges =
        List.mapi (fun i n -> (i, n)) nodes
        |> List.filter_map (fun (i, n) ->
               List.nth_opt nodes (i + 1)
               |> Option.map (fun next -> { src = n.id; elabel = None; dst = next.id }))
      in
      create ?ontology ~nodes ~edges ()

let with_attributes ?binder head attrs =
  let head_node = { id = "0/" ^ head; label = Some head; binder } in
  let attr_nodes =
    List.mapi
      (fun i (b, l) ->
        { id = Printf.sprintf "%d/%s" (i + 1) l; label = Some l; binder = b })
      attrs
  in
  let edges =
    List.map
      (fun n -> { src = head_node.id; elabel = Some Rel.attribute_of; dst = n.id })
      attr_nodes
  in
  create ~nodes:(head_node :: attr_nodes) ~edges ()

(* Pattern nodes ordered most-constrained-first: labeled before wildcard,
   then by pattern degree (descending), then by id.  Shared by the
   matcher and its naive reference, so both reason about the same
   backtracking order. *)
let search_order p =
  let degree id =
    List.length (List.filter (fun e -> e.src = id || e.dst = id) p.pedges)
  in
  p.pnodes
  |> List.map (fun n ->
         let labeled = match n.label with Some _ -> 0 | None -> 1 in
         (n, labeled, degree n.id))
  |> List.sort (fun (n1, l1, d1) (n2, l2, d2) ->
         match Stdlib.compare l1 l2 with
         | 0 -> (
             match Stdlib.compare d2 d1 with
             | 0 -> String.compare n1.id n2.id
             | c -> c)
         | c -> c)
  |> List.map (fun (n, _, _) -> n)

let node_by_id p id = List.find_opt (fun n -> String.equal n.id id) p.pnodes

let binders p =
  List.filter_map (fun n -> n.binder) p.pnodes |> List.sort String.compare

let to_digraph p =
  let g =
    List.fold_left (fun g n -> Digraph.add_node g n.id) Digraph.empty p.pnodes
  in
  List.fold_left
    (fun g e ->
      Digraph.add_edge g e.src (Option.value e.elabel ~default:"*") e.dst)
    g p.pedges

let pp ppf p =
  let pp_node ppf n =
    (match n.binder with Some b -> Format.fprintf ppf "%s: " b | None -> ());
    match n.label with
    | Some l -> Format.fprintf ppf "%s" l
    | None -> Format.fprintf ppf "_"
  in
  Format.fprintf ppf "@[<v2>pattern%a (%d nodes)"
    (fun ppf -> function
      | Some o -> Format.fprintf ppf " in %s" o
      | None -> ())
    p.ontology (size p);
  List.iter (fun n -> Format.fprintf ppf "@,node %s = %a" n.id pp_node n) p.pnodes;
  List.iter
    (fun e ->
      Format.fprintf ppf "@,edge %s -%s-> %s" e.src
        (Option.value e.elabel ~default:"*")
        e.dst)
    p.pedges;
  Format.fprintf ppf "@]"

let equal p1 p2 =
  p1.ontology = p2.ontology && p1.pnodes = p2.pnodes
  && List.sort Stdlib.compare p1.pedges = List.sort Stdlib.compare p2.pedges
