(* Property-based tests.

   The cross-cutting invariant (DESIGN.md): for randomly generated
   databases and randomly generated correlated queries, every pipeline
   stage and every optimizer configuration computes the same bag of
   rows.  The query generator produces SQL over the toy schema covering
   scalar/EXISTS/IN/quantified subqueries, grouping, outerjoins and
   arithmetic. *)

open QCheck

(* --- random toy databases --- *)

let gen_db : Storage.Database.t Gen.t =
 fun st ->
  let open Relalg.Value in
  let cat = Support.toy_catalog () in
  let db = Storage.Database.create cat in
  let n_emp = Gen.int_range 0 12 st in
  let n_dept = Gen.int_range 0 5 st in
  let emp_rows =
    List.init n_emp (fun i ->
        [| Int (i + 1);
           Str (Printf.sprintf "e%d" (Gen.int_range 0 5 st));
           Int (Gen.int_range 1 6 st);
           Float (float_of_int (Gen.int_range 0 50 st) *. 10.)
        |])
  in
  let dept_rows =
    List.init n_dept (fun i ->
        [| Int (i + 1); Str (Printf.sprintf "d%d" (Gen.int_range 0 3 st)) |])
  in
  Storage.Table.load (Storage.Database.table db "emp") emp_rows;
  Storage.Table.load (Storage.Database.table db "dept") dept_rows;
  Storage.Database.build_declared_indexes db;
  db

(* --- random queries --- *)

(* all correlations reference emp's columns (the outer side in every
   template); inner tables are dept or a self-joined emp alias *)
let gen_scalar_subquery st =
  let agg = Gen.oneofl [ "sum"; "min"; "max"; "count"; "avg" ] st in
  let corr = Gen.oneofl [ "did = dept"; "did < eid"; "dname <> name" ] st in
  Printf.sprintf "(select %s(did) from dept where %s)" agg corr

let gen_predicate st =
  match Gen.int_range 0 6 st with
  | 0 -> "salary > 200"
  | 1 -> Printf.sprintf "2 < %s" (gen_scalar_subquery st)
  | 2 -> "exists (select did from dept where did = dept)"
  | 3 -> "not exists (select did from dept where did = dept and dname < name)"
  | 4 -> "dept in (select did from dept)"
  | 5 -> "salary >= all (select e2.salary from emp e2 where e2.dept = emp.dept)"
  | _ -> Printf.sprintf "salary < any (select e3.salary from emp e3 where e3.eid <> emp.eid)"

let gen_query : string Gen.t =
 fun st ->
  match Gen.int_range 0 3 st with
  | 0 -> Printf.sprintf "select eid, name from emp where %s" (gen_predicate st)
  | 1 ->
      Printf.sprintf
        "select dept, sum(salary), count(*) from emp where %s group by dept"
        (gen_predicate st)
  | 2 ->
      Printf.sprintf
        "select name, (select dname from dept where did = dept) from emp where %s"
        (gen_predicate st)
  | _ ->
      Printf.sprintf
        "select name, dname from emp left join dept on dept = did where %s"
        (gen_predicate st)

let arb_case = make (Gen.pair gen_db gen_query)

(* compare full-stack execution across configurations *)
let prop_configs_agree =
  Test.make ~name:"all optimizer configs compute the same bag" ~count:120 arb_case
    (fun (db, sql) ->
      let r_corr = Engine.bag (Support.run_sql ~config:Optimizer.Config.correlated_only db sql) in
      let r_decorr = Engine.bag (Support.run_sql ~config:Optimizer.Config.decorrelated_only db sql) in
      let r_full = Engine.bag (Support.run_sql ~config:Optimizer.Config.full db sql) in
      r_corr = r_decorr && r_decorr = r_full)

(* compare the normalization stages pairwise *)
let prop_stages_agree =
  Test.make ~name:"normalization stages compute the same bag" ~count:120 arb_case
    (fun (db, sql) ->
      try
        ignore (Support.check_stages_equivalent db sql);
        true
      with Alcotest.Test_error -> false)

(* class-2 identities, when enabled, must also preserve semantics *)
let prop_class2_agrees =
  Test.make ~name:"class-2 unnesting preserves semantics" ~count:60 arb_case
    (fun (db, sql) ->
      let cat = db.Storage.Database.catalog in
      let env = Catalog.props_env cat in
      let b = Sqlfront.Binder.bind_sql cat sql in
      let base = Normalize.run (Normalize.default_options env) b.op in
      let cls2 = Normalize.run { (Normalize.default_options env) with class2 = true } b.op in
      Engine.bag (Support.run_op db base.normalized)
      = Engine.bag (Support.run_op db cls2.normalized))

(* the optimizer's exploration never changes results, regardless of the
   rule subset enabled *)
let prop_rule_subsets_agree =
  Test.make ~name:"random rule subsets compute the same bag" ~count:60
    (make (Gen.triple gen_db gen_query (Gen.pair Gen.bool (Gen.pair Gen.bool Gen.bool))))
    (fun (db, sql, (g, (l, s))) ->
      let cfg =
        { Optimizer.Config.full with
          groupby_reorder = g;
          local_agg = l;
          segment_apply = s;
          max_alternatives = 120;
          max_rounds = 3
        }
      in
      Engine.bag (Support.run_sql ~config:cfg db sql)
      = Engine.bag (Support.run_sql ~config:Optimizer.Config.correlated_only db sql))

let suite =
  [ Support.qtest prop_configs_agree;
    Support.qtest prop_stages_agree;
    Support.qtest prop_class2_agrees;
    Support.qtest prop_rule_subsets_agree
  ]
