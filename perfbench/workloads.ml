(* Seeded inputs for the served-query benchmark.

   Every workload is a function of its seed alone: the generators below
   build the workspace on disk and the query texts the clients send, and
   the program under test only ever sees those generated inputs. *)

type kind = Serve_flat | Serve_paged | Edit_paged

let kinds =
  [ ("serve-flat", Serve_flat); ("serve-paged", Serve_paged); ("edit-paged", Edit_paged) ]

let name k = fst (List.find (fun (_, k') -> k' = k) kinds)

(* Sizes.  [full] is what the benchmark measures; the self-test checks
   determinism on [small] shapes, which run the same code paths. *)
type shape = {
  pairs : int;  (** serve-flat: overlapping pairs, two sources each. *)
  pair_terms : int;  (** serve-flat: concepts per pair member. *)
  queries_per_pair : int;
  islands : int;  (** paged: sources, paired into islands/2 groups. *)
  terms : int;  (** paged: concepts per source. *)
  paged_queries : int;
}

let full = function
  | Serve_flat ->
      { pairs = 8; pair_terms = 200; queries_per_pair = 48; islands = 0; terms = 0;
        paged_queries = 0 }
  | Serve_paged ->
      { pairs = 0; pair_terms = 0; queries_per_pair = 0; islands = 200; terms = 500;
        paged_queries = 600 }
  | Edit_paged ->
      { pairs = 0; pair_terms = 0; queries_per_pair = 0; islands = 40; terms = 200;
        paged_queries = 240 }

let small k =
  match k with
  | Serve_flat -> { (full k) with pairs = 2; pair_terms = 60; queries_per_pair = 16 }
  | Serve_paged | Edit_paged ->
      { (full k) with islands = 6; terms = 40; paged_queries = 30 }

type t = {
  dir : string;  (** Workspace root. *)
  queries : string list;  (** Query texts in the seeded order. *)
  sources : string list;  (** Sources the writer may edit (paged). *)
}

let ok what = function Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

let rec rm_rf p =
  match Sys.is_directory p with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Independent streams per purpose, so growing one list never shifts
   another. *)
let sub_seed seed salt = (seed * 1_000_003) + salt

(* serve-flat: [pairs] overlapping pairs as XML sources, each articulated
   with its ground truth; queries are Query_gen's mix over each pair's
   union, interleaved by a seeded shuffle. *)
let flat ~seed ~shape ~dir =
  let ws = ok "init" (Workspace.init dir) in
  let inputs = dir ^ ".inputs" in
  mkdir_p inputs;
  let per_pair k =
    let left_name = Printf.sprintf "left%d" k
    and right_name = Printf.sprintf "right%d" k in
    let p =
      Gen.overlapping_pair
        ~profile:{ Gen.default_profile with Gen.n_terms = shape.pair_terms }
        ~overlap:0.3 ~seed:(sub_seed seed k) ~left_name ~right_name ()
    in
    List.iter
      (fun o ->
        let path = Filename.concat inputs (Ontology.name o ^ ".xml") in
        Loader.save_file o path;
        ignore (ok "add_source" (Workspace.add_source ws ~path)))
      [ p.Gen.left; p.Gen.right ];
    (* Unnamed rules draw their names from a process-wide counter; name
       them here so the stored articulation depends on the seed alone. *)
    let rules =
      List.mapi (fun i r -> { r with Rule.name = Printf.sprintf "r%d" (i + 1) }) p.Gen.ground_truth
    in
    let art, _warnings =
      ok "articulate"
        (Workspace.articulate ws ~left:left_name ~right:right_name
           ~name:(Printf.sprintf "art%d" k) ~rules)
    in
    let u = Algebra.union ~left:p.Gen.left ~right:p.Gen.right art in
    Query_gen.queries ~seed:(sub_seed seed (100 + k)) ~count:shape.queries_per_pair u
    |> List.map Query.to_string
  in
  let queries = List.concat_map per_pair (List.init shape.pairs Fun.id) in
  rm_rf inputs;
  let rng = Prng.create (sub_seed seed 999) in
  { dir; queries = Prng.shuffle rng queries; sources = [] }

(* Paged workloads: an island federation streamed into a paged
   workspace; each query anchors on a uniformly drawn concept of a
   uniformly drawn island, so every articulation group is equally
   likely. *)
let paged ~seed ~shape ~dir =
  let ws = ok "init" (Workspace.init ~paged:true dir) in
  let p = Workspace.publisher ws in
  ok "generate"
    (Gen.federation_stream ~islands:shape.islands ~terms:shape.terms ~seed
       ~prefix:"src"
       ~emit_source:(fun o ->
         Workspace.publish_source p o ~ext:".adj"
           ~payload:(Adjacency.print (Ontology.graph o)))
       ~emit_articulation:(Workspace.publish_articulation p)
       ());
  ok "commit" (Workspace.commit p);
  let rng = Prng.create (sub_seed seed 1) in
  let queries =
    List.init shape.paged_queries (fun _ ->
        let island = Prng.int rng shape.islands in
        let concept = Prng.int rng shape.terms in
        Printf.sprintf "SELECT * FROM %s:%s"
          (Gen.federation_source_name "src" island)
          (Gen.concept_name concept))
  in
  let sources =
    List.init shape.islands (fun k -> Gen.federation_source_name "src" k)
  in
  { dir; queries; sources }

let generate ?(shape_of = full) kind ~seed ~dir =
  let shape = shape_of kind in
  match kind with
  | Serve_flat -> flat ~seed ~shape ~dir
  | Serve_paged | Edit_paged -> paged ~seed ~shape ~dir

(* Content fingerprint of a whole directory tree: every file's relative
   path and MD5, in sorted order. *)
let fingerprint dir =
  let rec walk rel =
    let abs = if rel = "" then dir else Filename.concat dir rel in
    if Sys.is_directory abs then
      Sys.readdir abs |> Array.to_list |> List.sort String.compare
      |> List.concat_map (fun f ->
             walk (if rel = "" then f else Filename.concat rel f))
    else [ rel ^ "=" ^ Digest.to_hex (Digest.file abs) ]
  in
  Digest.to_hex (Digest.string (String.concat "\n" (walk "")))
