(* Request span trees, recorded from outside the program.

   One request's spans share a request id.  The root is what the caller
   saw (the client round trip, or the writer's edit / lint call); a
   child is either measured around a call the benchmark makes itself,
   derived from the daemon's [stats] deltas, or a replay of a call the
   server made for that request.  Replayed children run after the round
   trip they explain, so self time is taken on durations: a span's self
   time is its duration minus the durations of its children.  The self
   times of one tree therefore sum to its root's duration exactly. *)

type how = Measured | Stats_delta | Replay

type span = {
  req : int;
  id : int;
  parent : int;  (** [-1] for the root. *)
  name : string;
  start_ns : int64;
  dur_ns : int64;
  how : how;
}

let how_name = function
  | Measured -> "measured"
  | Stats_delta -> "stats-delta"
  | Replay -> "replay"

(* One recorder per thread or domain; merged at the end of the run. *)
type recorder = { mutable spans : span list; mutable next_req : int; stride : int }

let recorder ~first ~stride = { spans = []; next_req = first; stride }

type tree = { r : recorder; req : int; mutable next_id : int }

let request r =
  let req = r.next_req in
  r.next_req <- r.next_req + r.stride;
  { r; req; next_id = 0 }

let add t ?(parent = -1) ~how name ~start_ns ~dur_ns =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.r.spans <- { req = t.req; id; parent; name; start_ns; dur_ns; how } :: t.r.spans;
  id

(* Run [f] as a replayed call, recording its span. *)
let replay t ~parent name f =
  let t0 = Monotonic.now_ns () in
  let v = f () in
  ignore (add t ~parent ~how:Replay name ~start_ns:t0 ~dur_ns:(Monotonic.elapsed_ns ~since:t0));
  v

let spans rs = List.concat_map (fun r -> List.rev r.spans) rs

(* Self time of every span, keyed by (req, id). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : span) ->
      if s.parent >= 0 then
        let k = (s.req, s.parent) in
        let prev = Option.value ~default:0L (Hashtbl.find_opt children k) in
        Hashtbl.replace children k (Int64.add prev s.dur_ns))
    spans;
  List.map
    (fun (s : span) ->
      let covered = Option.value ~default:0L (Hashtbl.find_opt children (s.req, s.id)) in
      (s, Int64.sub s.dur_ns covered))
    spans

(* Requests whose self times do not sum to the root's duration. *)
let unbalanced spans =
  let sums = Hashtbl.create 1024 and roots = Hashtbl.create 1024 in
  List.iter
    (fun ((s : span), self) ->
      let prev = Option.value ~default:0L (Hashtbl.find_opt sums s.req) in
      Hashtbl.replace sums s.req (Int64.add prev self);
      if s.parent < 0 then Hashtbl.replace roots s.req s.dur_ns)
    (self_times spans);
  Hashtbl.fold
    (fun req root acc ->
      if Hashtbl.find_opt sums req = Some root then acc else req :: acc)
    roots []

(* Mean self time (us) of the spans called [name]. *)
let mean_self_us spans name =
  let xs =
    List.filter_map
      (fun ((s : span), self) -> if s.name = name then Some (Int64.to_float self) else None)
      (self_times spans)
  in
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) /. 1e3

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun ((s : span), self) ->
          Printf.fprintf oc
            "{\"req\": %d, \"id\": %d, \"parent\": %d, \"name\": %s, \"how\": %s, \
             \"start_ns\": %Ld, \"dur_ns\": %Ld, \"self_ns\": %Ld}\n"
            s.req s.id s.parent (Json_lite.escape s.name)
            (Json_lite.escape (how_name s.how))
            s.start_ns s.dur_ns self)
        (self_times spans))
