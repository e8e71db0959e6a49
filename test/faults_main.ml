(* Fault-injection sweep, run by `dune build @faults`.

   For each seed given on the command line, executes every TPC-H
   workload query under probabilistic fault injection and under
   deterministic join-kill schedules, through the resilient entry
   point.  The invariant checked is the availability contract of the
   resilience layer:

     a fault-injected query either returns exactly the rows the clean
     (unfaulted) correlated oracle returns — possibly after degrading
     to the fallback plan — or dies with a *typed* error; it never
     returns wrong rows and never escapes with an untyped exception.

   Exit status 0 iff the invariant holds for every (seed, query). *)

let sf = 0.002

let () =
  let seeds =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ 1; 2; 3 ]
    | args -> List.map int_of_string args
  in
  Printf.printf "fault sweep: SF %.3f, seeds [%s]\n%!" sf
    (String.concat "; " (List.map string_of_int seeds));
  let db = Datagen.Tpch_gen.database ~sf () in
  let eng = Engine.create db in
  (* clean correlated results are the oracle *)
  let oracle =
    List.map
      (fun (name, sql) ->
        let res = Engine.query ~config:Optimizer.Config.correlated_only eng sql in
        (name, sql, Engine.bag res.rows))
      Workloads.all_named
  in
  let failures = ref 0 in
  let trial ~label ~spec (name, sql, expect) =
    match
      Engine.query_resilient_checked ~config:Optimizer.Config.full
        ~faults:(Exec.Faults.create spec) eng sql
    with
    | Ok r ->
        let got = Engine.bag r.execution.result.rows in
        if got <> expect then begin
          incr failures;
          Printf.printf "FAIL %-12s %-22s wrong rows (served by %s, %d vs %d)\n%!" name
            label r.served_by (List.length got) (List.length expect)
        end
        else
          Printf.printf "ok   %-12s %-22s %s%s\n%!" name label r.served_by
            (if r.degraded then " (degraded)" else "")
    | Error e ->
        (* both paths were killed: acceptable, but must be typed *)
        Printf.printf "ok   %-12s %-22s killed (%s)\n%!" name label
          (Engine.Errors.phase_to_string e.Engine.Errors.phase)
    | exception e ->
        incr failures;
        Printf.printf "FAIL %-12s %-22s untyped escape: %s\n%!" name label
          (Printexc.to_string e)
  in
  List.iter
    (fun seed ->
      Printf.printf "--- seed %d ---\n%!" seed;
      List.iter
        (fun q ->
          (* random operator deaths, reproducible per seed *)
          trial ~label:(Printf.sprintf "any:p:0.02:seed:%d" seed)
            ~spec:{ Exec.Faults.target = Exec.Faults.Any; mode = Probabilistic 0.02; seed }
            q;
          (* kill the nth join evaluation: the decorrelated plan dies,
             the Apply-shaped fallback survives *)
          trial ~label:(Printf.sprintf "join:nth:%d" seed)
            ~spec:{ Exec.Faults.target = Kind Exec.Faults.Join; mode = Nth seed; seed }
            q)
        oracle)
    seeds;
  if !failures > 0 then begin
    Printf.printf "%d FAILURES\n%!" !failures;
    exit 1
  end
  else Printf.printf "all fault trials upheld the availability contract\n%!"
