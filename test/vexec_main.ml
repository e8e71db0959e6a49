(* Row-vs-vector differential smoke: `make vexec-smoke`.

   Part 1 runs every bench workload, plus the hand-written statements
   in [extra_inputs], under every optimizer config with the vectorized
   engine as candidate and the row interpreter (same config) as
   reference — any disagreement is a vexec bug, since the plan is
   identical on both sides.

   Part 2 sweeps generated queries (Testgen.Qgen) through the same
   differential in vector mode, once with the full optimizer (mostly
   decorrelated plans) and once with the correlated-only candidate so
   the Apply-retaining plans drive the batched-Apply paths.  Usage:

     vexec_main.exe [CASES] [SEED...]      (default: 200 cases, seed 1) *)

let sf = 0.01
let fuzz_sf = 0.002

(* Shapes the bench workloads do not produce: an uncorrelated Max1row
   under a join, and a CASE-guarded scalar subquery that would raise a
   Max1row violation if it were evaluated eagerly. *)
let extra_inputs =
  [ ( "max1row-join",
      "select n_name from nation where n_regionkey = (select r_regionkey from region \
       where r_name = 'ASIA')" );
    ( "case-guarded",
      "select c_custkey, case when c_custkey < 0 then (select o_totalprice from orders \
       where o_custkey = c_custkey) else 0 end from customer where c_custkey <= 30" )
  ]

let configs =
  [ ("correlated", Optimizer.Config.correlated_only);
    ("decorrelated", Optimizer.Config.decorrelated_only);
    ("full", Optimizer.Config.full)
  ]

let () =
  let args = Array.to_list Sys.argv in
  let cases, seeds =
    match args with
    | _ :: c :: rest when rest <> [] ->
        (int_of_string c, List.map int_of_string rest)
    | _ :: c :: _ -> (int_of_string c, [ 1 ])
    | _ -> (200, [ 1 ])
  in
  let failures = ref 0 in

  (* part 1: workloads x configs *)
  let db = Datagen.Tpch_gen.database ~sf () in
  let eng = Engine.create db in
  List.iter
    (fun (qname, sql) ->
      List.iter
        (fun (cname, cfg) ->
          let r =
            Engine.check ~candidate:cfg ~reference:cfg ~mode:`Vector ~float_digits:12 eng
              sql
          in
          Printf.printf "workload %-14s %-13s %s (%d rows)\n%!" qname cname
            (if r.Engine.agree then "AGREE" else "MISMATCH")
            r.Engine.candidate_rows;
          if not r.Engine.agree then begin
            incr failures;
            print_string (Engine.format_check_report r)
          end)
        configs)
    (Workloads.all_named @ extra_inputs);

  (* part 2: generated-query sweep, vector candidate *)
  let fdb = Datagen.Tpch_gen.database ~sf:fuzz_sf () in
  let feng = Engine.create fdb in
  let budget = Exec.Budget.make ~max_rows:5_000_000 () in
  let sweep ~label ~candidate seed =
    let cfg =
      { (Testgen.Fuzz.default_config ~seed ~cases) with
        Testgen.Fuzz.budget = Some budget;
        exec_mode = `Vector;
        candidate;
      }
    in
    let s = Testgen.Fuzz.run cfg feng in
    Printf.printf
      "fuzz[vector/%s] seed %d: %d cases, %d agreed, %d skipped, %d failures, %.3f s vector execution\n%!"
      label seed s.Testgen.Fuzz.total s.agreed s.skipped
      (List.length s.failures) s.exec_s;
    List.iter
      (fun (f : Testgen.Fuzz.case_result) ->
        incr failures;
        Printf.printf "  case %d: %s\n%s\n" f.case f.sql
          (match f.outcome with
          | Testgen.Fuzz.Mismatch m | Testgen.Fuzz.Failed m -> m
          | _ -> ""))
      s.failures
  in
  List.iter
    (fun seed ->
      sweep ~label:"full" ~candidate:Optimizer.Config.full seed;
      sweep ~label:"correlated" ~candidate:Optimizer.Config.correlated_only seed)
    seeds;

  if !failures > 0 then begin
    Printf.printf "vexec-smoke: %d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "vexec-smoke: all row-vs-vector checks agree"
