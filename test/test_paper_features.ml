(* Tests for the paper's corner features: conditional scalar execution
   of exception subqueries inside CASE (Section 2.4), SegmentApply over
   semijoins/antijoins (Section 3.4.1), and the subquery classification
   of residual expression subqueries. *)

open Relalg
open Relalg.Algebra

let db = lazy (Support.toy_db ())

let cat () = (Lazy.force db).Storage.Database.catalog
let env () = Catalog.props_env (cat ())

(* --- conditional CASE protects Max1row branches ----------------------- *)

let test_case_guards_exception_subquery () =
  (* the subquery returns two rows for dept 1; the CASE condition
     excludes dept 1, so lazy evaluation must not raise *)
  let sql =
    "select did, case when did = 1 then 0 \
     else (select eid from emp where dept = did) end from dept"
  in
  let rows = Support.run_sql (Lazy.force db) sql in
  Alcotest.(check int) "three rows, no error" 3 (List.length rows);
  (* classification recognizes the kept subquery as Class 3 *)
  let b = Sqlfront.Binder.bind_sql (cat ()) sql in
  let st = Normalize.run (Normalize.default_options (env ())) b.op in
  Alcotest.(check string) "class 3" "class 3 (exception subquery: Max1row)"
    (Normalize.Classify.to_string st.subquery_class)

let test_case_eager_when_safe () =
  (* a single-row-provable subquery inside CASE is extracted eagerly and
     the query flattens *)
  let sql =
    "select eid, case when dept < 50 then (select dname from dept where did = dept) \
     else 'none' end from emp"
  in
  let b = Sqlfront.Binder.bind_sql (cat ()) sql in
  let st = Normalize.run (Normalize.default_options (env ())) b.op in
  Alcotest.(check bool) "flattens" false
    (Op.exists_op (function Apply _ -> true | _ -> false) st.normalized
    && Normalize.Classify.op_has_subquery st.normalized);
  let rows = Engine.bag (Support.run_sql (Lazy.force db) sql) in
  Alcotest.(check (list string)) "values"
    (List.sort compare [ "1|eng"; "2|eng"; "3|ops"; "4|none" ])
    rows

let test_case_error_still_raised_when_hit () =
  (* when the guarded branch IS taken for an offending row, the error
     must still surface *)
  let sql =
    "select did, case when did < 50 then (select eid from emp where dept = did) \
     else 0 end from dept"
  in
  Alcotest.check_raises "error surfaces"
    (Exec.Executor.Runtime_error "scalar subquery returned more than one row")
    (fun () -> ignore (Support.run_sql (Lazy.force db) sql))

(* --- SegmentApply over semijoin / antijoin ----------------------------- *)

let fresh_scan table =
  let def = Option.get (Catalog.find_table (cat ()) table) in
  let cols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty) def.columns in
  (TableScan { table; cols }, cols)

let self_semi kind =
  (* emp ⋉/▷ (avg salary per dept) on same dept, salary < avg *)
  let e1, c1 = fresh_scan "emp" in
  let e2, c2 = fresh_scan "emp" in
  let d1 = List.nth c1 2 and d2 = List.nth c2 2 and s2 = List.nth c2 3 in
  let av = { fn = Avg (ColRef s2); out = Col.fresh "av" Value.TFloat } in
  let g = GroupBy { keys = [ d2 ]; aggs = [ av ]; input = e2 } in
  let sal1 = List.nth c1 3 in
  Join
    { kind;
      pred = And (Cmp (Eq, ColRef d1, ColRef d2), Cmp (Lt, ColRef sal1, ColRef av.out));
      left = e1;
      right = g
    }

let check_equiv msg a b =
  Support.check_same_bag msg (Support.run_op (Lazy.force db) a)
    (Support.run_op (Lazy.force db) b)

let test_segment_apply_semijoin () =
  let j = self_semi Semi in
  match Rules.Segment_apply.introduce j with
  | None -> Alcotest.fail "semijoin SegmentApply should fire"
  | Some sa ->
      check_equiv "semijoin segment equivalent" j sa;
      Alcotest.(check bool) "has segment apply" true
        (Op.exists_op (function SegmentApply _ -> true | _ -> false) sa)

let test_segment_apply_antijoin () =
  let j = self_semi Anti in
  match Rules.Segment_apply.introduce j with
  | None -> Alcotest.fail "antijoin SegmentApply should fire"
  | Some sa -> check_equiv "antijoin segment equivalent" j sa

let test_segment_apply_outerjoin () =
  let j = self_semi LeftOuter in
  match Rules.Segment_apply.introduce j with
  | None -> Alcotest.fail "outerjoin SegmentApply should fire"
  | Some sa -> check_equiv "outerjoin segment equivalent" j sa

(* existential SQL end to end: semijoin form of the Q17 pattern *)
let test_exists_segment_end_to_end () =
  let dbv = Datagen.Tpch_gen.database ~sf:0.005 () in
  let sql =
    "select l_orderkey, l_linenumber from lineitem where exists \
     (select l2.l_partkey from lineitem l2 where l2.l_partkey = lineitem.l_partkey \
      and l2.l_quantity > lineitem.l_quantity) order by l_orderkey, l_linenumber"
  in
  let r_corr = Engine.bag (Support.run_sql ~config:Optimizer.Config.correlated_only dbv sql) in
  let r_full = Engine.bag (Support.run_sql ~config:Optimizer.Config.full dbv sql) in
  Alcotest.(check (list string)) "existential self-join agrees" r_corr r_full

(* --- date handling through the whole stack ------------------------------ *)

let test_dates_end_to_end () =
  let dbv = Datagen.Tpch_gen.database ~sf:0.002 () in
  let r =
    Support.run_sql dbv
      "select count(*) from orders where o_orderdate >= date '1992-01-01' \
       and o_orderdate < date '2000-01-01'"
  in
  (match r with
  | [ [| Value.Int n |] ] ->
      Alcotest.(check int) "all orders in range" n
        (Storage.Table.row_count (Storage.Database.table dbv "orders"))
  | _ -> Alcotest.fail "unexpected result");
  let r2 =
    Support.run_sql dbv
      "select count(*) from orders where o_orderdate between date '1993-01-01' and date '1994-12-31'"
  in
  match r2 with
  | [ [| Value.Int n |] ] -> Alcotest.(check bool) "some orders in window" true (n > 0)
  | _ -> Alcotest.fail "unexpected result"

let suite =
  [ Alcotest.test_case "CASE guards exception subquery" `Quick test_case_guards_exception_subquery;
    Alcotest.test_case "CASE eager when safe" `Quick test_case_eager_when_safe;
    Alcotest.test_case "CASE error still raised when hit" `Quick
      test_case_error_still_raised_when_hit;
    Alcotest.test_case "segment apply: semijoin" `Quick test_segment_apply_semijoin;
    Alcotest.test_case "segment apply: antijoin" `Quick test_segment_apply_antijoin;
    Alcotest.test_case "segment apply: outerjoin" `Quick test_segment_apply_outerjoin;
    Alcotest.test_case "existential segment end-to-end" `Quick test_exists_segment_end_to_end;
    Alcotest.test_case "dates end-to-end" `Quick test_dates_end_to_end
  ]
