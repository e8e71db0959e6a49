(* End-to-end engine tests, including the paper's syntax-independence
   claim: the four equivalent formulations of the motivating query
   produce the same plan and the same rows under full optimization. *)


let db = lazy (Support.toy_db ())

(* the four formulations of Section 1.1, on the toy schema *)
let formulation_subquery =
  "select did from dept where 250 < (select sum(salary) from emp where dept = did)"

let formulation_outerjoin_agg =
  "select did from dept left outer join emp on dept = did \
   group by did having 250 < sum(salary)"

let formulation_join_agg =
  "select did from dept join emp on dept = did group by did having 250 < sum(salary)"

let formulation_derived =
  "select did from dept, (select dept as d2, sum(salary) as total from emp group by dept) a \
   where a.d2 = did and 250 < total"

let all_formulations =
  [ formulation_subquery; formulation_outerjoin_agg; formulation_join_agg; formulation_derived ]

let test_syntax_independence_results () =
  let dbv = Lazy.force db in
  let results = List.map (fun sql -> Engine.bag (Support.run_sql dbv sql)) all_formulations in
  match results with
  | first :: rest ->
      List.iteri
        (fun i r -> Alcotest.(check (list string)) (Printf.sprintf "formulation %d" (i + 2)) first r)
        rest
  | [] -> ()

let test_syntax_independence_plans () =
  (* The subquery, outerjoin+aggregate and join+aggregate formulations
     converge on the identical plan.  Kim's derived-table formulation
     reaches the same strategy lattice; its grouping column is a
     different (equivalent) column, so we assert cost equivalence
     rather than tree identity. *)
  let dbv = Lazy.force db in
  let eng = Engine.create dbv in
  let prepared = List.map (Engine.prepare eng) all_formulations in
  let plans = List.map (fun p -> Relalg.Fingerprint.of_op p.Engine.plan) prepared in
  (match plans with
  | p1 :: p2 :: p3 :: _ ->
      Alcotest.(check string) "formulation 2 plan" p1 p2;
      Alcotest.(check string) "formulation 3 plan" p1 p3
  | _ -> Alcotest.fail "expected four plans");
  match prepared with
  | first :: rest ->
      List.iteri
        (fun i p ->
          let ratio = p.Engine.plan_cost /. first.Engine.plan_cost in
          Alcotest.(check bool)
            (Printf.sprintf "formulation %d cost within 30%% (ratio %.2f)" (i + 2) ratio)
            true
            (ratio < 1.3 && ratio > 0.7))
        rest
  | [] -> ()

let test_explain_is_informative () =
  let eng = Engine.create (Lazy.force db) in
  let s = Engine.explain eng formulation_subquery in
  Alcotest.(check bool) "mentions class" true (Support.contains s "class 1")

let test_explain_stages () =
  let eng = Engine.create (Lazy.force db) in
  let s = Engine.explain_stages eng formulation_subquery in
  List.iter
    (fun fragment -> Alcotest.(check bool) fragment true (Support.contains s fragment))
    [ "bound (mutual recursion)"; "apply introduced"; "decorrelated"; "chosen plan" ]

let test_tpch_queries_all_configs () =
  let dbv = Datagen.Tpch_gen.database ~sf:0.002 () in
  let eng = Engine.create dbv in
  let queries =
    [ "select o_orderdate, sum(o_totalprice) as t from orders group by o_orderdate order by o_orderdate limit 5";
      "select c_custkey from customer where 1000 < (select sum(o_totalprice) from orders where o_custkey = c_custkey) order by c_custkey";
      "select n_name, count(*) as c from supplier, nation where s_nationkey = n_nationkey group by n_name order by n_name";
      "select p_partkey from part where exists (select ps_partkey from partsupp where ps_partkey = p_partkey and ps_availqty > 5000) order by p_partkey limit 10"
    ]
  in
  List.iter
    (fun sql ->
      let base = Engine.bag (Support.run_sql ~config:Optimizer.Config.correlated_only dbv sql) in
      let decorr = Engine.bag (Support.run_sql ~config:Optimizer.Config.decorrelated_only dbv sql) in
      let full = Engine.bag (Support.run_sql ~config:Optimizer.Config.full dbv sql) in
      Alcotest.(check (list string)) ("decorr: " ^ sql) base decorr;
      Alcotest.(check (list string)) ("full: " ^ sql) base full)
    queries;
  ignore eng

let test_result_formatting () =
  let eng = Engine.create (Lazy.force db) in
  let r = Engine.query eng "select name, salary from emp where eid = 1" in
  let s = Engine.format_result r in
  Alcotest.(check bool) "header" true (Support.contains s "name");
  Alcotest.(check bool) "row count" true (Support.contains s "(1 rows)")

let suite =
  [ Alcotest.test_case "syntax independence: results" `Quick test_syntax_independence_results;
    Alcotest.test_case "syntax independence: plans" `Quick test_syntax_independence_plans;
    Alcotest.test_case "explain" `Quick test_explain_is_informative;
    Alcotest.test_case "explain stages" `Quick test_explain_stages;
    Alcotest.test_case "tpch across configs" `Slow test_tpch_queries_all_configs;
    Alcotest.test_case "result formatting" `Quick test_result_formatting
  ]
