(* Static analysis: the plan linter (per-check positive/negative
   cases), the bounded rule-soundness prover (all shipped rules proven
   at k = 2; a deliberately unsound rule refuted with a minimal
   counterexample), and a golden sweep: every bench workload lints
   clean of ERROR findings. *)

open Relalg
open Relalg.Algebra

let cat () = Analysis.Smallscope.prover_catalog ()

let ops () =
  let c = cat () in
  let env = Catalog.props_env c in
  let s, scols = Analysis.Smallscope.scan c "s" in
  let r, rcols = Analysis.Smallscope.scan c "r" in
  (env, s, scols, r, rcols)

let lint ?expect env o = Analysis.Lint.run ?expect ~env o
let has code fs = List.exists (fun (f : Analysis.Lint.finding) -> f.code = code) fs

let severity_of code fs =
  List.find_map
    (fun (f : Analysis.Lint.finding) -> if f.code = code then Some f.severity else None)
    fs

let eq a b = Cmp (Eq, ColRef a, ColRef b)
let gt0 a = Cmp (Gt, ColRef a, Const (Value.Int 0))

(* --- linter: one positive and one negative case per check ----------- *)

let cross_type_cmp () =
  let env, _, _, r, rcols = ops () in
  let rc = List.hd rcols in
  let bad = Select (Cmp (Eq, ColRef rc, Const (Value.Str "x")), r) in
  Alcotest.(check bool) "int = str flagged" true (has "cross-type-cmp" (lint env bad));
  Alcotest.(check bool)
    "it is the only ERROR-severity check" true
    (severity_of "cross-type-cmp" (lint env bad) = Some Analysis.Lint.Error);
  let ok = Select (Cmp (Eq, ColRef rc, Const (Value.Int 3)), r) in
  Alcotest.(check bool) "int = int clean" false (has "cross-type-cmp" (lint env ok))

let contradictory_pred () =
  let env, s, scols, r, rcols = ops () in
  let rc = List.hd rcols in
  let unsat =
    Select (And (gt0 rc, Cmp (Lt, ColRef rc, Const (Value.Int 0))), r)
  in
  Alcotest.(check bool) "x>0 and x<0 flagged" true
    (has "contradictory-pred" (lint env unsat));
  let isnull = Select (IsNull (ColRef rc), r) in
  Alcotest.(check bool) "IS NULL on NOT NULL col flagged" true
    (has "contradictory-pred" (lint env isnull));
  Alcotest.(check bool) "x>0 alone clean" false
    (has "contradictory-pred" (lint env (Select (gt0 rc, r))));
  (* a HAVING over a count the plan computes as the constant 1 *)
  let cnt = Col.fresh "cnt" Value.TInt in
  let one =
    Project
      ( [ { expr = ColRef (List.hd scols); out = List.hd scols };
          { expr = Const (Value.Int 1); out = cnt } ],
        s )
  in
  Alcotest.(check bool) "7.26 <= constant 1 flagged" true
    (has "contradictory-pred"
       (lint env (Select (Cmp (Le, Const (Value.Float 7.26), ColRef cnt), one))))

let tautological_pred () =
  let env, _, _, r, rcols = ops () in
  let rc = List.nth rcols 0 and rd = List.nth rcols 1 in
  let taut = Select (Not (IsNull (ColRef rc)), r) in
  Alcotest.(check bool) "NOT NULL col IS NOT NULL flagged" true
    (has "tautological-pred" (lint env taut));
  (* rd is nullable: the same shape is not a tautology *)
  let open_ = Select (Not (IsNull (ColRef rd)), r) in
  Alcotest.(check bool) "nullable col clean" false
    (has "tautological-pred" (lint env open_));
  (* a HAVING over a count the plan computes as the constant 1 *)
  let cnt = Col.fresh "cnt" Value.TInt in
  let one =
    Project
      ([ { expr = ColRef rc; out = rc }; { expr = Const (Value.Int 1); out = cnt } ], r)
  in
  Alcotest.(check bool) "5.62 >= constant 1 flagged" true
    (has "tautological-pred"
       (lint env (Select (Cmp (Ge, Const (Value.Float 5.62), ColRef cnt), one))));
  let varies = Project ([ { expr = ColRef rc; out = cnt } ], r) in
  Alcotest.(check bool) "5.62 >= a column clean" false
    (has "tautological-pred"
       (lint env (Select (Cmp (Ge, Const (Value.Float 5.62), ColRef cnt), varies))))

let redundant_groupby () =
  let env, s, scols, r, rcols = ops () in
  let sa = List.nth scols 0 and sb = List.nth scols 1 in
  let rc = List.nth rcols 0 and rd = List.nth rcols 1 in
  let agg c = [ { fn = Sum (ColRef c); out = Col.fresh "sm" Value.TFloat } ] in
  let on_key = GroupBy { keys = [ sa ]; aggs = agg sb; input = s } in
  Alcotest.(check bool) "grouping the PK flagged" true
    (has "redundant-groupby" (lint env on_key));
  (* sb = sa below: the equivalence class extends {sb} to cover the key *)
  let via_equiv =
    GroupBy { keys = [ sb ]; aggs = agg sa; input = Select (eq sb sa, s) }
  in
  Alcotest.(check bool) "key coverage through equivalence class" true
    (has "redundant-groupby" (lint env via_equiv));
  let keyless = GroupBy { keys = [ rc ]; aggs = agg rd; input = r } in
  Alcotest.(check bool) "keyless input clean" false
    (has "redundant-groupby" (lint env keyless));
  (* uh = sa inside an Apply's inner side, where the FDs do not reach:
     the equality extends {ug, uh} to cover the key {sa, ug} *)
  let u, ucols = Analysis.Smallscope.scan (cat ()) "u" in
  let ug = List.nth ucols 0 and uh = List.nth ucols 1 in
  let over inner =
    GroupBy
      { keys = [ ug; uh ];
        aggs = agg sb;
        input = Apply { kind = Inner; pred = true_; left = s; right = Select (inner, u) }
      }
  in
  Alcotest.(check bool) "key coverage through an Apply's inner equality" true
    (List.exists
       (fun (f : Analysis.Lint.finding) ->
         f.code = "redundant-groupby"
         && f.detail
            = "grouping columns cover a key of the input: every group has exactly one row")
       (lint env (over (eq uh sa))));
  Alcotest.(check bool) "no inner equality clean" false
    (has "redundant-groupby" (lint env (over (gt0 uh))))

let residual_apply () =
  let env, s, scols, r, rcols = ops () in
  let sb = List.nth scols 1 and rc = List.hd rcols in
  let apply =
    Apply { kind = Semi; pred = true_; left = s; right = Select (eq rc sb, r) }
  in
  let relaxed = lint env apply in
  Alcotest.(check bool) "reported" true (has "residual-apply" relaxed);
  Alcotest.(check bool) "INFO when nothing promised" true
    (severity_of "residual-apply" relaxed = Some Analysis.Lint.Info);
  let strict =
    lint
      ~expect:
        { Analysis.Lint.no_residual_apply = true; no_residual_segment_apply = true }
      env apply
  in
  Alcotest.(check bool) "WARNING when decorrelation was promised" true
    (severity_of "residual-apply" strict = Some Analysis.Lint.Warning)

let oj_simplifiable () =
  let env, s, scols, r, rcols = ops () in
  let sb = List.nth scols 1 in
  let rc = List.nth rcols 0 and rd = List.nth rcols 1 in
  let loj = Join { kind = LeftOuter; pred = eq sb rc; left = s; right = r } in
  Alcotest.(check bool) "null-rejecting filter above LOJ flagged" true
    (has "oj-simplifiable" (lint env (Select (gt0 rd, loj))));
  Alcotest.(check bool) "bare LOJ clean" false (has "oj-simplifiable" (lint env loj))

let dead_columns () =
  let env, s, scols, r, rcols = ops () in
  let sa = List.nth scols 0 and sb = List.nth scols 1 in
  let rc = List.hd rcols in
  let j = Join { kind = Inner; pred = eq sb rc; left = s; right = r } in
  let narrow = Project ([ { expr = ColRef sa; out = Col.fresh "x" Value.TInt } ], j) in
  Alcotest.(check bool) "unprojected join outputs flagged" true
    (has "dead-columns" (lint env narrow));
  Alcotest.(check bool) "full-width use clean" false (has "dead-columns" (lint env j))

let max1row_elidable () =
  let env, _, _, r, rcols = ops () in
  let rd = List.nth rcols 1 in
  let one =
    ScalarAgg { aggs = [ { fn = Sum (ColRef rd); out = Col.fresh "sm" Value.TFloat } ]; input = r }
  in
  Alcotest.(check bool) "Max1row over ScalarAgg flagged" true
    (has "max1row-elidable" (lint env (Max1row one)));
  Alcotest.(check bool) "Max1row over a bag kept" false
    (has "max1row-elidable" (lint env (Max1row r)))

(* --- prover ---------------------------------------------------------- *)

(* every shipped rule is proven at k = 2, within the CI time budget *)
let prover_all_rules () =
  let t0 = Unix.gettimeofday () in
  let reports = Analysis.Smallscope.check_all ~k:2 () in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "at least a dozen rules registered" true
    (List.length reports >= 12);
  List.iter
    (fun (r : Analysis.Smallscope.report) ->
      if not (Analysis.Smallscope.passed_report r) then
        Alcotest.fail (Analysis.Smallscope.report_to_string r))
    reports;
  Alcotest.(check bool) "k=2 sweep under 60s" true (dt < 60.)

(* a deliberately unsound rewrite — outerjoin demoted to inner join
   unconditionally — must be refuted, and by a tiny database *)
let unsound_rule_refuted () =
  let c = cat () in
  let s, scols = Analysis.Smallscope.scan c "s" in
  let r, rcols = Analysis.Smallscope.scan c "r" in
  let sb = List.nth scols 1 and rc = List.hd rcols in
  let tmpl = Join { kind = LeftOuter; pred = eq sb rc; left = s; right = r } in
  let rule =
    Optimizer.Search.make_rule "bogus-loj-to-inner" (function
      | Join { kind = LeftOuter; pred; left; right } -> [ Join { kind = Inner; pred; left; right } ]
      | _ -> [])
  in
  let report =
    Analysis.Smallscope.check_rule c
      { sp_rule = rule; sp_templates = [ ("s loj r", tmpl) ] }
  in
  match report.rp_counterexample with
  | None -> Alcotest.fail "unsound rule was not refuted"
  | Some cx ->
      Alcotest.(check bool) "counterexample is minimal (<= 3 rows)" true
        (cx.cx_total_rows <= 3);
      Alcotest.(check bool) "bags differ" true (cx.cx_before_bag <> cx.cx_after_bag)

(* missing proof obligations are themselves a failure *)
let vacuous_rule_fails () =
  let c = cat () in
  let rule = Optimizer.Search.make_rule "never-fires" (fun _ -> []) in
  let s, _ = Analysis.Smallscope.scan c "s" in
  let report =
    Analysis.Smallscope.check_rule c { sp_rule = rule; sp_templates = [ ("s", s) ] }
  in
  Alcotest.(check bool) "no firing = not passed" false
    (Analysis.Smallscope.passed_report report);
  let no_templates =
    Analysis.Smallscope.check_rule c { sp_rule = rule; sp_templates = [] }
  in
  Alcotest.(check bool) "no template = not passed" false
    (Analysis.Smallscope.passed_report no_templates)

(* --- golden sweep: bench workloads lint clean of errors -------------- *)

let bench_workloads_lint_clean () =
  let db = Datagen.Tpch_gen.database ~seed:42 ~sf:0.002 () in
  let eng = Engine.create db in
  List.iter
    (fun (name, sql) ->
      let p = Engine.prepare eng sql in
      (match Analysis.Lint.errors p.Engine.lint with
      | [] -> ()
      | e :: _ ->
          Alcotest.fail
            (Printf.sprintf "%s: %s" name (Analysis.Lint.finding_to_string e)));
      (* the one-line summary renders without ERROR too *)
      let s = Analysis.Lint.summary p.Engine.lint in
      Alcotest.(check bool) (name ^ " summary has no ERROR") true
        (not
           (String.length s >= 5
           && List.exists
                (fun i -> String.sub s i 5 = "ERROR")
                (List.init (String.length s - 4) (fun i -> i)))))
    Workloads.all_named

let suite =
  [ Alcotest.test_case "lint: cross-type-cmp" `Quick cross_type_cmp;
    Alcotest.test_case "lint: contradictory-pred" `Quick contradictory_pred;
    Alcotest.test_case "lint: tautological-pred" `Quick tautological_pred;
    Alcotest.test_case "lint: redundant-groupby" `Quick redundant_groupby;
    Alcotest.test_case "lint: residual-apply severity" `Quick residual_apply;
    Alcotest.test_case "lint: oj-simplifiable" `Quick oj_simplifiable;
    Alcotest.test_case "lint: dead-columns" `Quick dead_columns;
    Alcotest.test_case "lint: max1row-elidable" `Quick max1row_elidable;
    Alcotest.test_case "prover: all shipped rules at k=2" `Slow prover_all_rules;
    Alcotest.test_case "prover: unsound rule refuted" `Quick unsound_rule_refuted;
    Alcotest.test_case "prover: vacuous rules fail" `Quick vacuous_rule_fails;
    Alcotest.test_case "bench workloads lint clean" `Slow bench_workloads_lint_clean
  ]
