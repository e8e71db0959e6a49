(* Execution engine tests: operator semantics including NULL handling,
   join variants, aggregation, bag operators, Apply, SegmentApply. *)

open Relalg
open Relalg.Algebra

let db = lazy (Support.toy_db ())

let run o = Support.run_op (Lazy.force db) o

let sql ?config s = Support.run_sql ?config (Lazy.force db) s

let strings rows = Engine.bag rows

let check_rows msg expected o =
  Alcotest.(check (list string)) msg (List.sort compare expected) (strings (run o))

let check_sql msg expected s =
  Alcotest.(check (list string)) msg (List.sort compare expected) (strings (sql s))

let test_scan_select_project () =
  check_sql "filter" [ "3"; "4" ] "select eid from emp where salary > 250";
  check_sql "project expr" [ "150.0"; "250.0"; "350.0"; "450.0" ]
    "select salary + 50 from emp";
  check_sql "string compare" [ "ann" ] "select name from emp where name < 'b'"

let test_three_valued_logic () =
  (* NULL comparisons never satisfy a filter *)
  check_sql "null cmp filtered" [] "select eid from emp where null > 0";
  check_sql "null = null filtered" [] "select eid from emp where null = null";
  check_sql "is null" [ "4" ] "select eid from emp where null is null and eid = 4";
  (* OR with one true side wins despite NULL *)
  check_sql "null or true" [ "1" ] "select eid from emp where eid = 1 and (null > 0 or true)";
  (* AND with false short-circuits NULL *)
  check_sql "null and false" [] "select eid from emp where null > 0 and false";
  (* CASE: unknown condition falls through *)
  check_sql "case unknown" [ "0" ]
    "select case when null > 0 then 1 else 0 end from emp where eid = 1"

let test_join_kinds () =
  check_sql "inner join" [ "ann|eng"; "bob|eng"; "cid|ops" ]
    "select name, dname from emp, dept where dept = did";
  check_sql "left outer join" [ "ann|eng"; "bob|eng"; "cid|ops"; "dan|NULL" ]
    "select name, dname from emp left join dept on dept = did";
  check_sql "explicit inner join" [ "ann|eng"; "bob|eng"; "cid|ops" ]
    "select name, dname from emp join dept on dept = did";
  (* semijoin via EXISTS, antijoin via NOT EXISTS *)
  check_sql "exists" [ "ann"; "bob"; "cid" ]
    "select name from emp where exists (select did from dept where did = dept)";
  check_sql "not exists" [ "dan" ]
    "select name from emp where not exists (select did from dept where did = dept)";
  (* dept with no emp *)
  check_sql "anti other way" [ "hr" ]
    "select dname from dept where not exists (select eid from emp where dept = did)"

let test_nlj_vs_hash_agree () =
  (* a non-equi join must give the same result as the equi formulation
     plus filtering *)
  check_sql "non-equi join" [ "ann|1"; "bob|1"; "cid|1"; "cid|2" ]
    "select name, did from emp, dept where did <= dept and did < 3 and dept < 50"

let test_null_join_keys () =
  (* NULL keys never match in joins: build a row with NULL via outerjoin
     then join on the padded column *)
  let r =
    sql
      "select e.name, d2.dname from (select name, dname as dn from emp left join dept on dept = did) e \
       left join dept d2 on e.dn = d2.dname, dept d2b where d2b.did = 1"
  in
  ignore r;
  (* dan's dn is NULL: must not match any dept *)
  check_sql "null key no match" [ "NULL" ]
    "select dn from (select name, dname as dn from emp left join dept on dept = did) x where dn is null"

let test_aggregation () =
  check_sql "vector agg" [ "1|300.0"; "2|300.0"; "99|400.0" ]
    "select dept, sum(salary) from emp group by dept";
  check_sql "count star" [ "4" ] "select count(*) from emp";
  check_sql "scalar agg empty input sum" [ "NULL" ] "select sum(salary) from emp where eid > 100";
  check_sql "scalar agg empty input count" [ "0" ] "select count(*) from emp where eid > 100";
  check_sql "vector agg empty input" [] "select dept, sum(salary) from emp where eid > 100 group by dept";
  check_sql "avg" [ "250.0" ] "select avg(salary) from emp";
  check_sql "min max" [ "100.0|400.0" ] "select min(salary), max(salary) from emp";
  check_sql "having" [ "1" ] "select dept from emp group by dept having count(*) > 1";
  (* count skips nulls *)
  check_sql "count of nullable col" [ "3" ]
    "select count(dname) from (select name, dname from emp left join dept on dept = did) x"

let test_distinct_union_except () =
  check_sql "distinct" [ "1"; "2" ] "select distinct x from bag";
  (* bag semantics preserved without distinct *)
  check_sql "bag dup kept" [ "1"; "1"; "2" ] "select x from bag";
  (* Except is bag difference: test via algebra directly *)
  let c1 = Col.fresh "x" Value.TInt in
  let t1 = ConstTable { cols = [ c1 ]; rows = [ [| Value.Int 1 |]; [| Value.Int 1 |]; [| Value.Int 2 |] ] } in
  let c2 = Col.fresh "x" Value.TInt in
  let t2 = ConstTable { cols = [ c2 ]; rows = [ [| Value.Int 1 |] ] } in
  check_rows "except all" [ "1"; "2" ] (Except (t1, t2));
  check_rows "union all" [ "1"; "1"; "1"; "2" ] (UnionAll (t1, t2))

let test_order_limit () =
  let r = sql "select name from emp order by salary desc limit 2" in
  Alcotest.(check (list string)) "order desc limit"
    [ "dan"; "cid" ]
    (List.map (fun row -> Value.to_string row.(0)) r);
  let r2 = sql "select name from emp order by dept, salary desc" in
  Alcotest.(check (list string)) "two keys"
    [ "bob"; "ann"; "cid"; "dan" ]
    (List.map (fun row -> Value.to_string row.(0)) r2)

let test_max1row () =
  (* scalar subquery with multiple rows raises *)
  Alcotest.check_raises "max1row error"
    (Exec.Executor.Runtime_error "subquery returned more than one row (Max1row)")
    (fun () -> ignore (sql "select (select eid from emp where dept = 1) from dept where did = 1"));
  (* exactly one row is fine, zero rows gives NULL *)
  check_sql "scalar sub one row" [ "cid" ]
    "select (select name from emp where dept = 2) from dept where did = 2";
  check_sql "scalar sub empty gives null" [ "NULL" ]
    "select (select name from emp where dept = 3) from dept where did = 3"

let test_apply_correlated () =
  check_sql "correlated scalar agg" [ "eng|300.0"; "hr|NULL"; "ops|300.0" ]
    "select dname, (select sum(salary) from emp where dept = did) from dept";
  (* quantified comparisons *)
  check_sql "any" [ "2"; "3"; "4" ]
    "select eid from emp where salary > any (select salary from emp where dept = 1)";
  check_sql "all" [ "4" ]
    "select eid from emp where salary > all (select salary from emp where dept <= 2)";
  check_sql "in subquery" [ "1"; "2"; "3" ]
    "select eid from emp where dept in (select did from dept)";
  check_sql "not in" [ "4" ] "select eid from emp where dept not in (select did from dept)";
  (* NOT IN with NULLs in the subquery result: nothing qualifies *)
  check_sql "not in with nulls" []
    "select eid from emp where dept not in (select case when did = 3 then null else did end from dept)"

let test_segment_apply_exec () =
  (* per-dept segments: join each employee with the count of its segment *)
  let e = Col.fresh "eid" Value.TInt and d = Col.fresh "dept" Value.TInt in
  let scan = Project
      ( [ { expr = ColRef e; out = e }; { expr = ColRef d; out = d } ],
        TableScan
          { table = "emp";
            cols = [ e; Col.fresh "name" Value.TStr; d; Col.fresh "salary" Value.TFloat ]
          } )
  in
  (* recreate properly: scan emp with its 4 cols, project eid/dept *)
  let scan =
    match scan with
    | Project (_, TableScan { cols; _ }) ->
        let e0 = List.nth cols 0 and d0 = List.nth cols 2 in
        Project
          ( [ { expr = ColRef e0; out = e0 }; { expr = ColRef d0; out = d0 } ],
            TableScan { table = "emp"; cols } )
    | _ -> assert false
  in
  let out_cols = Op.schema scan in
  let e0 = List.nth out_cols 0 and d0 = List.nth out_cols 1 in
  let h1 = List.map Col.clone out_cols in
  let hole = SegmentHole { cols = h1; src = out_cols } in
  let cnt = { fn = CountStar; out = Col.fresh "cnt" Value.TInt } in
  let inner = ScalarAgg { aggs = [ cnt ]; input = hole } in
  let sa = SegmentApply { seg_cols = [ d0 ]; outer = scan; inner } in
  let projs =
    [ { expr = ColRef d0; out = d0 }; { expr = ColRef cnt.out; out = cnt.out } ]
  in
  ignore e0;
  check_rows "segment counts" [ "1|2"; "2|1"; "99|1" ] (Project (projs, sa))

let test_index_probe_path () =
  (* the fast path must agree with plain nested loops *)
  let dbv = Lazy.force db in
  let cat = dbv.Storage.Database.catalog in
  let b = Sqlfront.Binder.bind_sql cat
      "select dname, (select sum(salary) from emp where dept = did) from dept"
  in
  (* bound tree executes via mutual recursion; Apply tree uses the
     indexed path on emp.dept — both must agree *)
  let env = Catalog.props_env cat in
  let applied = Normalize.Apply_intro.transform env b.op in
  Support.check_same_bag "probe = naive" (Support.run_op dbv b.op) (Support.run_op dbv applied)

let test_subquery_key_not_probed () =
  (* eid is indexed, but the key is a subquery correlated to the scan
     itself: it has no value without the scan row, so the filter runs
     row by row at every stage *)
  let st =
    Support.check_stages_equivalent (Lazy.force db)
      "select eid from emp where eid = (select max(e2.eid) from emp e2 where e2.dept = emp.dept)"
  in
  Alcotest.(check (list string)) "each department's largest eid" [ "2"; "3"; "4" ]
    (strings (run st.Normalize.bound))

let test_rownum () =
  let c = Col.fresh "x" Value.TInt in
  let t = ConstTable { cols = [ c ]; rows = [ [| Value.Int 7 |]; [| Value.Int 9 |] ] } in
  let rn = Col.fresh "rn" Value.TInt in
  check_rows "rownum" [ "7|1"; "9|2" ] (Rownum { out = rn; input = t })

let test_like () =
  check_sql "prefix" [ "ann" ] "select name from emp where name like 'a%'";
  check_sql "underscore" [ "dan" ] "select name from emp where name like '_an%'";
  check_sql "contains" [ "ann"; "dan" ] "select name from emp where name like '%an%'";
  check_sql "not like" [ "bob"; "cid" ] "select name from emp where name not like '%an%'";
  Alcotest.(check bool) "like engine" true (Exec.Like.matches ~pattern:"%BRASS" "PROMO BRASS");
  Alcotest.(check bool) "like anchor" false (Exec.Like.matches ~pattern:"%BRASS" "BRASSY")

let suite =
  [ Alcotest.test_case "scan/select/project" `Quick test_scan_select_project;
    Alcotest.test_case "three-valued logic" `Quick test_three_valued_logic;
    Alcotest.test_case "join kinds" `Quick test_join_kinds;
    Alcotest.test_case "non-equi joins" `Quick test_nlj_vs_hash_agree;
    Alcotest.test_case "null join keys" `Quick test_null_join_keys;
    Alcotest.test_case "aggregation" `Quick test_aggregation;
    Alcotest.test_case "distinct/union/except" `Quick test_distinct_union_except;
    Alcotest.test_case "order by / limit" `Quick test_order_limit;
    Alcotest.test_case "max1row" `Quick test_max1row;
    Alcotest.test_case "correlated apply" `Quick test_apply_correlated;
    Alcotest.test_case "segment apply" `Quick test_segment_apply_exec;
    Alcotest.test_case "index probe path" `Quick test_index_probe_path;
    Alcotest.test_case "subquery key not probed" `Quick test_subquery_key_not_probed;
    Alcotest.test_case "rownum" `Quick test_rownum;
    Alcotest.test_case "like" `Quick test_like
  ]
