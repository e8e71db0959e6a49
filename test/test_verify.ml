(* The plan integrity verifier (Relalg.Verify), its wiring into the
   optimizer search (candidate rejection + rule quarantine) and into
   Engine.prepare (Invalid_plan, correlated fallback), and the seeded
   fuzz generator (Testgen.Qgen) with its regression corpus. *)

open Relalg
open Relalg.Algebra

let kinds vs = List.map (fun (v : Verify.violation) -> v.kind) vs

let has_kind pred vs = List.exists pred (kinds vs)

(* a two-column scan with fresh ids *)
let scan () =
  let a = Col.fresh "a" Value.TInt and b = Col.fresh "b" Value.TInt in
  (TableScan { table = "t"; cols = [ a; b ] }, a, b)

(* ------------------------------------------------------------------ *)
(* Per-invariant unit tests on hand-broken trees.                      *)
(* ------------------------------------------------------------------ *)

let test_clean_tree () =
  let t, a, b = scan () in
  let tree = Select (Cmp (Lt, ColRef a, ColRef b), t) in
  Alcotest.(check int) "no violations" 0 (List.length (Verify.check tree));
  Alcotest.(check int) "expected schema ok" 0
    (List.length (Verify.check ~expect_schema:[ a; b ] tree))

let test_unresolved_column () =
  let t, _, _ = scan () in
  let ghost = Col.fresh "ghost" Value.TInt in
  let tree = Select (Cmp (Eq, ColRef ghost, Const (Value.Int 1)), t) in
  Alcotest.(check bool) "unresolved flagged" true
    (has_kind (function Verify.Unresolved_column c -> Col.equal c ghost | _ -> false)
       (Verify.check tree))

let test_type_clash () =
  let t, a, _ = scan () in
  let wrong = { a with ty = Value.TStr } in
  let tree = Select (Cmp (Eq, ColRef wrong, Const (Value.Str "x")), t) in
  Alcotest.(check bool) "type clash flagged" true
    (has_kind (function Verify.Type_clash _ -> true | _ -> false) (Verify.check tree))

let test_duplicate_column () =
  let t, a, b = scan () in
  let out = Col.fresh "o" Value.TInt in
  let tree = Project ([ { expr = ColRef a; out }; { expr = ColRef b; out } ], t) in
  Alcotest.(check bool) "duplicate flagged" true
    (has_kind (function Verify.Duplicate_column c -> Col.equal c out | _ -> false)
       (Verify.check tree))

let test_correlated_join () =
  let l, la, _ = scan () in
  let r, ra, _ = scan () in
  (* the right side references the left's column: legal under Apply,
     illegal under Join *)
  let right = Select (Cmp (Eq, ColRef ra, ColRef la), r) in
  let bad = Join { kind = Inner; pred = true_; left = l; right } in
  Alcotest.(check bool) "correlated join flagged" true
    (has_kind (function Verify.Correlated_join _ -> true | _ -> false) (Verify.check bad));
  let ok = Apply { kind = Inner; pred = true_; left = l; right } in
  Alcotest.(check int) "same tree as Apply is legal" 0 (List.length (Verify.check ok))

let test_illegal_apply () =
  let l, la, _ = scan () in
  let r, ra, _ = scan () in
  (* the LEFT side referencing the right is never legal *)
  let left = Select (Cmp (Eq, ColRef la, ColRef ra), l) in
  let bad = Apply { kind = Inner; pred = true_; left; right = r } in
  Alcotest.(check bool) "left->right reference flagged" true
    (has_kind (function Verify.Illegal_apply _ -> true | _ -> false) (Verify.check bad))

(* The verifier decides leaks from the free references each child
   returns in its one walk, so a reference must be found however deep
   it sits: under Select/Project/GroupBy, inside a subquery expression,
   or as a SegmentHole's source column.  A reference bound inside its
   own side is not a leak. *)
let test_leaks_through_depth () =
  let l, la, _ = scan () in
  let r, ra, rb = scan () in
  let leaks pred vs = List.exists pred (kinds vs) in
  let correlated = function Verify.Correlated_join cs -> List.exists (Col.equal la) cs | _ -> false in
  let illegal = function Verify.Illegal_apply _ -> true | _ -> false in
  let join ?(kind = Inner) left right = Join { kind; pred = true_; left; right } in
  let apply left right = Apply { kind = Inner; pred = true_; left; right } in
  (* buried under Select, Project and GroupBy *)
  let p = Col.fresh "p" Value.TInt in
  let buried =
    GroupBy
      { keys = [ p ];
        aggs = [];
        input = Project ([ { expr = ColRef ra; out = p } ], Select (Cmp (Eq, ColRef ra, ColRef la), r))
      }
  in
  Alcotest.(check bool) "buried: join leak" true (leaks correlated (Verify.check (join l buried)));
  Alcotest.(check bool) "buried: semijoin leak" true
    (leaks correlated (Verify.check (join ~kind:Semi l buried)));
  Alcotest.(check int) "buried: legal under Apply" 0 (List.length (Verify.check (apply l buried)));
  Alcotest.(check bool) "buried: apply left side leak" true
    (leaks illegal (Verify.check (apply buried l)));
  (* inside a subquery expression on a join side *)
  let s, sa, _ = scan () in
  let sub = Select (Exists (Select (Cmp (Eq, ColRef sa, ColRef la), s)), r) in
  Alcotest.(check bool) "subquery: join leak" true (leaks correlated (Verify.check (join l sub)));
  Alcotest.(check bool) "subquery: apply left side leak" true
    (leaks illegal (Verify.check (apply sub l)));
  Alcotest.(check int) "subquery: legal under Apply" 0 (List.length (Verify.check (apply l sub)));
  (* a SegmentHole mirroring the join's sibling instead of the segment
     outer *)
  let o, oa, _ = scan () in
  let segment src =
    let h = Col.fresh "h" Value.TInt in
    SegmentApply
      { seg_cols = [ oa ];
        outer = o;
        inner = join l (Select (Cmp (Gt, ColRef h, Const (Value.Int 0)), SegmentHole { cols = [ h ]; src = [ src ] }))
      }
  in
  Alcotest.(check bool) "hole: join leak" true (leaks correlated (Verify.check (segment la)));
  Alcotest.(check int) "hole: mirroring the segment outer is legal" 0
    (List.length (Verify.check (segment oa)));
  (* references bound inside their own side: an Apply nested in the
     right side, and a subquery over its host's columns *)
  let nested = apply r (Select (Cmp (Eq, ColRef sa, ColRef ra), s)) in
  Alcotest.(check int) "own side: nested apply" 0 (List.length (Verify.check (join l nested)));
  let own_sub = Select (Exists (Select (Cmp (Eq, ColRef sa, ColRef rb), s)), r) in
  Alcotest.(check int) "own side: subquery" 0 (List.length (Verify.check (join l own_sub)))

(* A node's violations precede its children's, left child before
   right, as a pre-order walk reports them. *)
let test_violation_order () =
  let l, la, _ = scan () in
  let r, ra, _ = scan () in
  let ghost_l = Col.fresh "gl" Value.TInt and ghost_r = Col.fresh "gr" Value.TInt in
  let left = Select (Cmp (Eq, ColRef ghost_l, Const (Value.Int 1)), l) in
  let right =
    Select (Cmp (Eq, ColRef ghost_r, ColRef ra), Select (Cmp (Eq, ColRef ra, ColRef la), r))
  in
  let root = Join { kind = Inner; pred = true_; left; right } in
  match Verify.check root with
  | [ { kind = Verify.Correlated_join [ c ]; node = n0 };
      { kind = Verify.Unresolved_column g1; node = n1 };
      { kind = Verify.Unresolved_column g2; node = n2 } ] ->
      Alcotest.(check bool) "leak of la at the join" true (Col.equal c la && n0 == root);
      Alcotest.(check bool) "left side's ghost next" true (Col.equal g1 ghost_l && n1 == left);
      Alcotest.(check bool) "right side's ghost last" true (Col.equal g2 ghost_r && n2 == right)
  | vs ->
      Alcotest.failf "unexpected violations:\n%s"
        (String.concat "\n" (List.map Verify.violation_summary vs))

let test_orphan_hole () =
  let _, a, b = scan () in
  let hole =
    SegmentHole { cols = [ Col.fresh "h1" Value.TInt; Col.fresh "h2" Value.TInt ];
                  src = [ a; b ] }
  in
  Alcotest.(check bool) "orphan hole flagged" true
    (has_kind (function Verify.Orphan_hole -> true | _ -> false) (Verify.check hole))

let test_union_mismatch () =
  let l, _, _ = scan () in
  let c = Col.fresh "c" Value.TInt in
  let one = ConstTable { cols = [ c ]; rows = [ [| Value.Int 1 |] ] } in
  let bad = UnionAll (l, one) in
  Alcotest.(check bool) "arity mismatch flagged" true
    (has_kind (function Verify.Union_mismatch _ -> true | _ -> false) (Verify.check bad))

let test_groupby_key_unbound () =
  let t, _, _ = scan () in
  let ghost = Col.fresh "ghost" Value.TInt in
  let bad = GroupBy { keys = [ ghost ]; aggs = []; input = t } in
  Alcotest.(check bool) "unbound key flagged" true
    (has_kind (function Verify.Unresolved_column _ -> true | _ -> false) (Verify.check bad))

let test_schema_mismatch () =
  let t, a, _ = scan () in
  Alcotest.(check bool) "root schema drift flagged" true
    (has_kind (function Verify.Schema_mismatch _ -> true | _ -> false)
       (Verify.check ~expect_schema:[ a ] t))

(* ------------------------------------------------------------------ *)
(* Rewrite side-condition re-checks.                                   *)
(* ------------------------------------------------------------------ *)

let test_oj_simplification_replay () =
  let l, la, _ = scan () in
  let r, ra, _ = scan () in
  let pred = Cmp (Eq, ColRef la, ColRef ra) in
  let before k = Join { kind = k; pred; left = l; right = r } in
  (* unjustified flip: no enclosing predicate rejects NULL on the right *)
  Alcotest.(check bool) "unjustified flip flagged" true
    (Verify.check_oj_simplification ~before:(before LeftOuter) ~after:(before Inner) <> []);
  (* justified: an enclosing filter rejects NULL on a right-side column *)
  let guard o = Select (Cmp (Gt, ColRef ra, Const (Value.Int 0)), o) in
  Alcotest.(check int) "justified flip passes" 0
    (List.length
       (Verify.check_oj_simplification ~before:(guard (before LeftOuter))
          ~after:(guard (before Inner))));
  (* no flip at all is vacuously fine *)
  Alcotest.(check int) "identity passes" 0
    (List.length
       (Verify.check_oj_simplification ~before:(before LeftOuter) ~after:(before LeftOuter)))

let test_filter_groupby_recheck () =
  let env = { Props.default_env with table_key = (fun _ -> [ "a" ]) } in
  let t, a, b = scan () in
  let out = Col.fresh "s" Value.TFloat in
  let g = GroupBy { keys = [ a ]; aggs = [ { fn = Sum (ColRef b); out } ]; input = t } in
  let ok_pred = Cmp (Gt, ColRef a, Const (Value.Int 0)) in
  let bad_pred = Cmp (Gt, ColRef b, Const (Value.Int 0)) in
  (* commuting a filter on the grouping column is sound *)
  Alcotest.(check int) "key filter passes" 0
    (List.length
       (Verify.check_rewrite ~env ~rule:"filter-below-groupby"
          ~before:(Select (ok_pred, g))
          ~after:(GroupBy
                    { keys = [ a ];
                      aggs = [ { fn = Sum (ColRef b); out } ];
                      input = Select (ok_pred, t);
                    })));
  (* a filter over a non-grouping column must not commute *)
  Alcotest.(check bool) "non-key filter flagged" true
    (Verify.check_rewrite ~env ~rule:"filter-below-groupby" ~before:(Select (bad_pred, g))
       ~after:g
    <> []);
  (* unknown rules pass vacuously *)
  Alcotest.(check int) "unknown rule vacuous" 0
    (List.length
       (Verify.check_rewrite ~env ~rule:"no-such-rule" ~before:(Select (bad_pred, g)) ~after:g))

(* ------------------------------------------------------------------ *)
(* Search integration: invalid candidates dropped, rule quarantined.   *)
(* ------------------------------------------------------------------ *)

(* a deliberately unsound rule: rewrites any Select into one whose
   predicate references a column no child produces *)
let bad_rule =
  Optimizer.Search.make_rule "bad-ghost-filter" (fun o ->
      match o with
      | Select (_, input) ->
          [ Select (Cmp (Eq, ColRef (Col.fresh "ghost" Value.TInt), Const (Value.Int 0)), input) ]
      | _ -> [])

(* the normalized plan of [sql]: the seed the search starts from *)
let search_seed cat env sql =
  let bound = Sqlfront.Binder.bind_sql cat sql in
  (Normalize.run (Normalize.default_options env) bound.op).normalized

let test_quarantine () =
  let db = Support.toy_db () in
  let cat = db.Storage.Database.catalog in
  let env = Catalog.props_env cat in
  let stats = Optimizer.Stats.create db in
  let seed = search_seed cat env "select eid from emp where salary > 150 and dept = 1" in
  let outcome =
    Optimizer.Search.optimize ~record_trace:true ~extra_rules:[ bad_rule ]
      Optimizer.Config.full stats ~env seed
  in
  Alcotest.(check bool) "rule quarantined" true
    (List.mem_assoc "bad-ghost-filter" outcome.quarantined);
  Alcotest.(check int) "chosen plan is valid" 0 (List.length (Verify.check outcome.best));
  (* the quarantined rule's output never reached the plan space: the
     chosen plan still computes the right rows *)
  Support.check_same_bag "best computes seed's bag" (Support.run_op db seed)
    (Support.run_op db outcome.best);
  (match outcome.trace with
  | None -> Alcotest.fail "trace requested but absent"
  | Some tr ->
      Alcotest.(check bool) "trace counts invalid candidates" true (tr.total_invalid >= 1);
      Alcotest.(check bool) "trace records quarantine" true
        (List.mem_assoc "bad-ghost-filter" tr.quarantined);
      Alcotest.(check bool) "trace renders quarantine" true
        (Support.contains (Optimizer.Search.trace_to_string tr) "QUARANTINED");
      Alcotest.(check bool) "json renders quarantine" true
        (Support.contains (Optimizer.Search.trace_to_json tr) "\"quarantined\""));
  (* with verification off the bad candidates survive into the memo *)
  let unverified =
    Optimizer.Search.optimize ~verify:false ~extra_rules:[ bad_rule ] Optimizer.Config.full
      stats ~env seed
  in
  Alcotest.(check int) "no quarantine without verification" 0
    (List.length unverified.quarantined)

(* Duplicates are dropped before verification, so a firing lands in
   exactly one trace column: every round's per-rule counts satisfy
   fired = kept + dups + invalid.  The broken rule's first firing is
   never a duplicate (its ghost column occurs nowhere else), so it is
   still verified and the rule still quarantined. *)
let test_trace_accounts_every_firing () =
  let db = Datagen.Tpch_gen.database ~sf:0.002 () in
  let cat = db.Storage.Database.catalog in
  let env = Catalog.props_env cat in
  let stats = Optimizer.Stats.create db in
  let dups = ref 0 in
  List.iter
    (fun (name, sql) ->
      let outcome =
        Optimizer.Search.optimize ~record_trace:true ~extra_rules:[ bad_rule ]
          Optimizer.Config.full stats ~env (search_seed cat env sql)
      in
      let tr = Option.get outcome.trace in
      List.iter
        (fun (r : Optimizer.Search.round_trace) ->
          List.iter
            (fun (s : Optimizer.Search.rule_stat) ->
              Alcotest.(check int)
                (Printf.sprintf "%s round %d %s: fired = kept + dups + invalid" name r.round
                   s.rule)
                s.fired
                (s.kept + s.dups + s.invalid))
            r.stats)
        tr.rounds;
      dups := !dups + tr.total_duplicates;
      Alcotest.(check bool) (name ^ ": broken rule quarantined") true
        (List.mem_assoc "bad-ghost-filter" outcome.quarantined);
      Alcotest.(check int) (name ^ ": chosen plan is valid") 0
        (List.length (Verify.check outcome.best)))
    Workloads.all_named;
  Alcotest.(check bool) "some firings were duplicates" true (!dups > 0)

(* ------------------------------------------------------------------ *)
(* Engine integration: typed Invalid_plan, recoverable.                *)
(* ------------------------------------------------------------------ *)

let test_error_classification () =
  Alcotest.(check bool) "Invalid_plan is recoverable" true
    (Engine.Errors.recoverable (Engine.Errors.make Engine.Errors.Invalid_plan "x"));
  Alcotest.(check string) "phase renders" "invalid-plan"
    (Engine.Errors.phase_to_string Engine.Errors.Invalid_plan);
  (match Engine.Errors.of_exn (Normalize.Decorrelate.Internal_error "boom") with
  | Some e ->
      Alcotest.(check string) "decorrelate internal error -> normalize phase" "normalize"
        (Engine.Errors.phase_to_string e.phase);
      Alcotest.(check bool) "and recoverable" true (Engine.Errors.recoverable e)
  | None -> Alcotest.fail "Internal_error not classified")

(* every workload plan, under every optimizer level, passes the
   verifier and quarantines nothing *)
let test_workloads_clean () =
  let db = Datagen.Tpch_gen.database ~sf:0.002 () in
  let eng = Engine.create db in
  List.iter
    (fun (name, sql) ->
      List.iter
        (fun config ->
          (* prepare itself verifies (and would raise Invalid_plan) *)
          let p = Engine.prepare ~config eng sql in
          Alcotest.(check int)
            (name ^ "/" ^ Optimizer.Config.name_of config ^ " plan clean")
            0
            (List.length (Verify.check p.Engine.plan));
          Alcotest.(check int)
            (name ^ "/" ^ Optimizer.Config.name_of config ^ " no quarantine")
            0
            (List.length p.Engine.quarantined))
        [ Optimizer.Config.full;
          Optimizer.Config.decorrelated_only;
          Optimizer.Config.correlated_only
        ])
    Workloads.all_named

(* ------------------------------------------------------------------ *)
(* Fuzz generator: determinism, corpus goldens, differential agreement *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Exec.Faults.Rng.create 7 and b = Exec.Faults.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Exec.Faults.Rng.int a 1000)
      (Exec.Faults.Rng.int b 1000)
  done

(* Minimized fuzz findings and representative generator output, pinned
   as goldens: a change to the generator silently invalidates every
   recorded replay id, so drift must be deliberate. *)
let corpus =
  [ (1, 0,
     "select s_suppkey, s_acctbal from supplier where s_acctbal <= 1310.10 and s_acctbal \
      < 9844.20 and s_nationkey in (select x1.n_nationkey from nation x1 where \
      x1.n_nationkey <= 11 and x1.n_nationkey < 3) and s_acctbal <= (select \
      max(x2.l_extendedprice) from lineitem x2 where x2.l_discount < 0.01)");
    (* found by the first long sweep: avg() last-ulp drift between join
       orders; kept as the regression witness for float-rounded
       differential comparison *)
    (1, 41,
     "select s_suppkey, avg(ps_supplycost) as agg0 from supplier join partsupp on \
      ps_suppkey = s_suppkey where ps_partkey in (select x1.p_partkey from part x1 where \
      x1.p_size > 18 and x1.p_retailprice < 1527.69) group by s_suppkey having 180.18 <= \
      avg(ps_supplycost)");
    (42, 13,
     "select c_custkey, c_acctbal from customer where c_custkey > 42 and c_acctbal < \
      1504.85 and c_custkey in (select x1.o_custkey from orders x1)");
    (7, 99,
     "select s_suppkey, s_acctbal from supplier where s_acctbal >= 3957.04 and not \
      exists (select x1.ps_partkey from partsupp x1 where x1.ps_suppkey = s_suppkey) and \
      s_acctbal > (select avg(x2.l_quantity) from lineitem x2 where x2.l_discount < 0.03 \
      and x2.l_extendedprice > 38258.43)")
  ]

let test_corpus_stable () =
  List.iter
    (fun (seed, case, golden) ->
      Alcotest.(check string)
        (Printf.sprintf "sql_of %d:%d stable" seed case)
        golden
        (Testgen.Qgen.sql_of ~seed ~case))
    corpus

let test_corpus_agrees () =
  let db = Datagen.Tpch_gen.database ~sf:0.002 () in
  let eng = Engine.create db in
  List.iter
    (fun (seed, case, sql) ->
      let r = Engine.check ~float_digits:6 eng sql in
      Alcotest.(check bool) (Printf.sprintf "corpus %d:%d agrees" seed case) true
        r.Engine.agree)
    corpus

let test_shrink_soundness () =
  (* every one-step shrink of a generated spec must still render to SQL
     the pipeline accepts (shrinking must never introduce new failures) *)
  let db = Datagen.Tpch_gen.database ~sf:0.002 () in
  let eng = Engine.create db in
  let budget = Exec.Budget.make ~max_rows:2_000_000 () in
  List.iter
    (fun case ->
      let spec = Testgen.Qgen.spec_of ~seed:11 ~case in
      List.iter
        (fun s ->
          let sql = Testgen.Qgen.render s in
          match Engine.query_checked ~budget eng sql with
          | Ok _ -> ()
          | Error e -> (
              match e.Engine.Errors.phase with
              | Budget -> ()
              | _ ->
                  Alcotest.failf "shrink of 11:%d broke the query: %s\n%s" case
                    (Engine.Errors.to_string e) sql))
        (Testgen.Qgen.shrink_spec spec))
    [ 0; 1; 2; 3; 4 ]

let suite =
  [ Alcotest.test_case "clean tree" `Quick test_clean_tree;
    Alcotest.test_case "unresolved column" `Quick test_unresolved_column;
    Alcotest.test_case "type clash" `Quick test_type_clash;
    Alcotest.test_case "duplicate column" `Quick test_duplicate_column;
    Alcotest.test_case "correlated join" `Quick test_correlated_join;
    Alcotest.test_case "illegal apply" `Quick test_illegal_apply;
    Alcotest.test_case "leaks through depth" `Quick test_leaks_through_depth;
    Alcotest.test_case "violation order" `Quick test_violation_order;
    Alcotest.test_case "orphan segment hole" `Quick test_orphan_hole;
    Alcotest.test_case "union mismatch" `Quick test_union_mismatch;
    Alcotest.test_case "groupby key unbound" `Quick test_groupby_key_unbound;
    Alcotest.test_case "schema mismatch" `Quick test_schema_mismatch;
    Alcotest.test_case "oj simplification replay" `Quick test_oj_simplification_replay;
    Alcotest.test_case "filter/groupby recheck" `Quick test_filter_groupby_recheck;
    Alcotest.test_case "rule quarantine" `Quick test_quarantine;
    Alcotest.test_case "trace accounts every firing" `Quick test_trace_accounts_every_firing;
    Alcotest.test_case "error classification" `Quick test_error_classification;
    Alcotest.test_case "workload plans clean" `Quick test_workloads_clean;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "fuzz corpus stable" `Quick test_corpus_stable;
    Alcotest.test_case "fuzz corpus agrees" `Quick test_corpus_agrees;
    Alcotest.test_case "shrink soundness" `Quick test_shrink_soundness
  ]
