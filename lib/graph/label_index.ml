(* One O(N + E) pass over the graph builds four hash tables; everything
   the matcher's candidate generation needs afterwards is a constant-time
   lookup.  The tables are write-once: after [build] returns they are
   only ever read, so a memoized index can be shared freely across
   domains (Hashtbl reads do not mutate). *)

module Sset = Set.Make (String)

module Pair = struct
  type t = string * string

  let compare (a1, b1) (a2, b2) =
    match String.compare a1 a2 with 0 -> String.compare b1 b2 | c -> c
end

module Pset = Set.Make (Pair)

type t = {
  revision : int;
  nodes : Digraph.node list; (* sorted, computed once *)
  node_tbl : (Digraph.node, unit) Hashtbl.t;
  by_edge_label : (string, (Digraph.node * Digraph.node) list) Hashtbl.t;
      (* label -> sorted (src, dst) bucket *)
  srcs_by_label : (string, Digraph.node list) Hashtbl.t; (* distinct, sorted *)
  dsts_by_label : (string, Digraph.node list) Hashtbl.t;
  out_by_label : (Digraph.node * string, int) Hashtbl.t;
  in_by_label : (Digraph.node * string, int) Hashtbl.t;
  out_deg : (Digraph.node, int) Hashtbl.t;
  in_deg : (Digraph.node, int) Hashtbl.t;
}

let bump tbl key =
  let n = match Hashtbl.find_opt tbl key with Some n -> n | None -> 0 in
  Hashtbl.replace tbl key (n + 1)

let build g =
  let nodes = Digraph.nodes g in
  let node_tbl = Hashtbl.create (List.length nodes) in
  List.iter (fun n -> Hashtbl.replace node_tbl n ()) nodes;
  let n_edges = Digraph.nb_edges g in
  let buckets : (string, Pset.t) Hashtbl.t = Hashtbl.create 16 in
  let out_by_label = Hashtbl.create n_edges in
  let in_by_label = Hashtbl.create n_edges in
  let out_deg = Hashtbl.create (List.length nodes) in
  let in_deg = Hashtbl.create (List.length nodes) in
  Digraph.iter_edges
    (fun (e : Digraph.edge) ->
      let prev =
        match Hashtbl.find_opt buckets e.label with
        | Some s -> s
        | None -> Pset.empty
      in
      Hashtbl.replace buckets e.label (Pset.add (e.src, e.dst) prev);
      bump out_by_label (e.src, e.label);
      bump in_by_label (e.dst, e.label);
      bump out_deg e.src;
      bump in_deg e.dst)
    g;
  let by_edge_label = Hashtbl.create (Hashtbl.length buckets) in
  let srcs_by_label = Hashtbl.create (Hashtbl.length buckets) in
  let dsts_by_label = Hashtbl.create (Hashtbl.length buckets) in
  Hashtbl.iter
    (fun label pairs ->
      Hashtbl.replace by_edge_label label (Pset.elements pairs);
      let srcs, dsts =
        Pset.fold
          (fun (s, d) (ss, ds) -> (Sset.add s ss, Sset.add d ds))
          pairs (Sset.empty, Sset.empty)
      in
      Hashtbl.replace srcs_by_label label (Sset.elements srcs);
      Hashtbl.replace dsts_by_label label (Sset.elements dsts))
    buckets;
  {
    revision = Digraph.revision g;
    nodes;
    node_tbl;
    by_edge_label;
    srcs_by_label;
    dsts_by_label;
    out_by_label;
    in_by_label;
    out_deg;
    in_deg;
  }

(* Memoized per revision: equal revisions imply the very same graph, so
   the revision alone is a sound key.  Capacity covers the working set of
   graphs a query session touches simultaneously. *)
let cache : (int, t) Lru.t =
  Lru.create ~name:"graph.label_index" ~capacity:64 ()

let of_graph g = Lru.find_or_compute cache (Digraph.revision g) (fun () -> build g)

let peek g = Lru.peek cache (Digraph.revision g)

(* ------------------------------------------------------------------ *)
(* Delta maintenance                                                   *)
(* ------------------------------------------------------------------ *)

let drop tbl key =
  let n = match Hashtbl.find_opt tbl key with Some n -> n | None -> 0 in
  if n <= 1 then Hashtbl.remove tbl key else Hashtbl.replace tbl key (n - 1)

(* Rebuild one label's bucket triple from the old bucket plus the
   delta's net edge changes carrying that label.  Bucket work is
   proportional to the bucket size, not the graph. *)
let patch_bucket ~by_edge_label ~srcs_by_label ~dsts_by_label label ~add ~remove
    =
  let old =
    match Hashtbl.find_opt by_edge_label label with Some xs -> xs | None -> []
  in
  let pairs =
    List.fold_left (fun s p -> Pset.remove p s)
      (List.fold_left (fun s p -> Pset.add p s) (Pset.of_list old) add)
      remove
  in
  if Pset.is_empty pairs then begin
    Hashtbl.remove by_edge_label label;
    Hashtbl.remove srcs_by_label label;
    Hashtbl.remove dsts_by_label label
  end
  else begin
    Hashtbl.replace by_edge_label label (Pset.elements pairs);
    let srcs, dsts =
      Pset.fold
        (fun (s, d) (ss, ds) -> (Sset.add s ss, Sset.add d ds))
        pairs (Sset.empty, Sset.empty)
    in
    Hashtbl.replace srcs_by_label label (Sset.elements srcs);
    Hashtbl.replace dsts_by_label label (Sset.elements dsts)
  end

(* The patched index is built eagerly and memoized under the post-state
   revision, so an [of_graph post] anywhere downstream answers from the
   patch instead of paying the full rebuild. *)
let update idx delta post =
  let patch () =
    Cache_stats.record_plan "delta.index_patch";
    let node_tbl = Hashtbl.copy idx.node_tbl in
    let by_edge_label = Hashtbl.copy idx.by_edge_label in
    let srcs_by_label = Hashtbl.copy idx.srcs_by_label in
    let dsts_by_label = Hashtbl.copy idx.dsts_by_label in
    let out_by_label = Hashtbl.copy idx.out_by_label in
    let in_by_label = Hashtbl.copy idx.in_by_label in
    let out_deg = Hashtbl.copy idx.out_deg in
    let in_deg = Hashtbl.copy idx.in_deg in
    let added = Delta.nodes_added delta in
    let removed = Delta.nodes_removed delta in
    List.iter (fun n -> Hashtbl.replace node_tbl n ()) added;
    List.iter (fun n -> Hashtbl.remove node_tbl n) removed;
    let e_added = Delta.edges_added delta in
    let e_removed = Delta.edges_removed delta in
    List.iter
      (fun (e : Digraph.edge) ->
        bump out_by_label (e.src, e.label);
        bump in_by_label (e.dst, e.label);
        bump out_deg e.src;
        bump in_deg e.dst)
      e_added;
    List.iter
      (fun (e : Digraph.edge) ->
        drop out_by_label (e.src, e.label);
        drop in_by_label (e.dst, e.label);
        drop out_deg e.src;
        drop in_deg e.dst)
      e_removed;
    let changed_labels =
      List.sort_uniq String.compare
        (List.map (fun (e : Digraph.edge) -> e.label) (e_added @ e_removed))
    in
    List.iter
      (fun label ->
        let pairs_of es =
          List.filter_map
            (fun (e : Digraph.edge) ->
              if String.equal e.label label then Some (e.src, e.dst) else None)
            es
        in
        patch_bucket ~by_edge_label ~srcs_by_label ~dsts_by_label label
          ~add:(pairs_of e_added) ~remove:(pairs_of e_removed))
      changed_labels;
    let nodes =
      let kept =
        if removed = [] then idx.nodes
        else List.filter (fun n -> not (List.mem n removed)) idx.nodes
      in
      if added = [] then kept else List.merge String.compare kept added
    in
    {
      revision = Digraph.revision post;
      nodes;
      node_tbl;
      by_edge_label;
      srcs_by_label;
      dsts_by_label;
      out_by_label;
      in_by_label;
      out_deg;
      in_deg;
    }
  in
  Lru.find_or_compute cache (Digraph.revision post) patch

let revision idx = idx.revision

let nodes idx = idx.nodes

let mem_label idx label = Hashtbl.mem idx.node_tbl label

let bucket tbl label =
  match Hashtbl.find_opt tbl label with Some xs -> xs | None -> []

let edges_with idx label = bucket idx.by_edge_label label

let sources_with idx label = bucket idx.srcs_by_label label

let targets_with idx label = bucket idx.dsts_by_label label

let count tbl key = match Hashtbl.find_opt tbl key with Some n -> n | None -> 0

let out_label_degree idx n label = count idx.out_by_label (n, label)

let in_label_degree idx n label = count idx.in_by_label (n, label)

let out_degree idx n = count idx.out_deg n

let in_degree idx n = count idx.in_deg n
