(* The benchmark's own test: a workload is a function of its seed.  Two
   generations from one seed give the same query list and the same
   workspace fingerprint; another seed changes both.  Runs on reduced
   shapes, which take the same code paths as the measured ones. *)

let generation kind ~seed ~dir =
  Workloads.rm_rf dir;
  Workloads.mkdir_p (Filename.dirname dir);
  let g = Workloads.generate ~shape_of:Workloads.small kind ~seed ~dir in
  let fp = Workloads.fingerprint dir in
  Workloads.rm_rf dir;
  (g.Workloads.queries, fp)

let () =
  let base = Filename.concat (Sys.getcwd ()) "selftest-work" in
  let failures = ref 0 in
  List.iter
    (fun (name, kind) ->
      let q1, f1 = generation kind ~seed:7 ~dir:(Filename.concat base (name ^ "-a")) in
      let q2, f2 = generation kind ~seed:7 ~dir:(Filename.concat base (name ^ "-b")) in
      let q3, f3 = generation kind ~seed:8 ~dir:(Filename.concat base (name ^ "-c")) in
      let check what cond =
        Printf.printf "%s %s: %s\n" name what (if cond then "ok" else "FAIL");
        if not cond then incr failures
      in
      check "same seed, same queries" (q1 = q2 && q1 <> []);
      check "same seed, same fingerprint" (String.equal f1 f2);
      check "other seed, other queries" (q1 <> q3);
      check "other seed, other fingerprint" (not (String.equal f1 f3)))
    Workloads.kinds;
  Workloads.rm_rf base;
  if !failures > 0 then exit 1
