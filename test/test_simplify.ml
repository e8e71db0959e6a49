(* Tests for the cleanup/pushdown normalization pass (Simplify) and the
   column pruner (Prune). *)

open Relalg
open Relalg.Algebra

let db = lazy (Support.toy_db ())

let cat () = (Lazy.force db).Storage.Database.catalog
let env () = Catalog.props_env (cat ())

let fresh_scan table =
  let def = Option.get (Catalog.find_table (cat ()) table) in
  let cols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty) def.columns in
  (TableScan { table; cols }, cols)

let run o = Support.run_op (Lazy.force db) o
let check_equiv msg a b = Support.check_same_bag msg (run a) (run b)

let shape = Pp.shape

(* --- constant folding ------------------------------------------------ *)

let test_const_fold () =
  let f = Normalize.Simplify.const_fold in
  Alcotest.(check bool) "true AND p collapses" true
    (f (And (Const (Value.Bool true), Const (Value.Bool false))) = Const (Value.Bool false));
  Alcotest.(check bool) "p OR true is true" true
    (f (Or (IsNull (Const Value.Null), Const (Value.Bool true))) = Const (Value.Bool true));
  Alcotest.(check bool) "1 < 2 folds" true
    (f (Cmp (Lt, Const (Value.Int 1), Const (Value.Int 2))) = Const (Value.Bool true));
  Alcotest.(check bool) "null comparisons do not fold" true
    (match f (Cmp (Eq, Const Value.Null, Const (Value.Int 1))) with Cmp _ -> true | _ -> false);
  Alcotest.(check bool) "not folds" true
    (f (Not (Const (Value.Bool false))) = Const (Value.Bool true))

let test_select_true_elided () =
  let e, _ = fresh_scan "emp" in
  Alcotest.(check string) "select true gone" (shape e)
    (shape (Normalize.Simplify.cleanup (Select (true_, e))))

let test_select_merge () =
  let e, cols = fresh_scan "emp" in
  let esal = List.nth cols 3 in
  let t =
    Select
      ( Cmp (Gt, ColRef esal, Const (Value.Float 100.)),
        Select (Cmp (Lt, ColRef esal, Const (Value.Float 400.)), e) )
  in
  let c = Normalize.Simplify.cleanup t in
  (match c with
  | Select (_, TableScan _) -> ()
  | _ -> Alcotest.failf "expected merged select, got\n%s" (Pp.to_string c));
  check_equiv "merge equivalent" t c

let test_identity_project_elided () =
  let e, cols = fresh_scan "emp" in
  let p = Project (List.map (fun c -> { expr = ColRef c; out = c }) cols, e) in
  Alcotest.(check string) "identity project gone" (shape e)
    (shape (Normalize.Simplify.cleanup p))

let test_project_merge () =
  let e, cols = fresh_scan "emp" in
  let esal = List.nth cols 3 in
  let mid = Col.fresh "x" Value.TFloat in
  let out = Col.fresh "y" Value.TFloat in
  let t =
    Project
      ( [ { expr = Arith (Add, ColRef mid, Const (Value.Float 1.)); out } ],
        Project ([ { expr = Arith (Mul, ColRef esal, Const (Value.Float 2.)); out = mid } ], e)
      )
  in
  let c = Normalize.Simplify.cleanup t in
  (match c with
  | Project ([ { expr = Arith (Add, Arith (Mul, _, _), _); _ } ], TableScan _) -> ()
  | _ -> Alcotest.failf "expected merged project, got\n%s" (Pp.to_string c));
  check_equiv "project merge equivalent" t c

let test_conjunct_dedup () =
  let e, cols = fresh_scan "emp" in
  let eid = List.hd cols and esal = List.nth cols 3 in
  let c1 = Cmp (Eq, ColRef eid, ColRef esal) in
  let c2 = Cmp (Eq, ColRef esal, ColRef eid) in
  let t = Select (And (c1, And (c2, c1)), e) in
  match Normalize.Simplify.cleanup t with
  | Select (p, _) ->
      Alcotest.(check int) "one conjunct kept" 1 (List.length (conjuncts p))
  | _ -> Alcotest.fail "expected select"

(* --- predicate pushdown ---------------------------------------------- *)

let test_push_into_join_sides () =
  let e, ecols = fresh_scan "emp" in
  let d, dcols = fresh_scan "dept" in
  let edept = List.nth ecols 2 and esal = List.nth ecols 3 in
  let did = List.hd dcols and dname = List.nth dcols 1 in
  let t =
    Select
      ( conj_list
          [ Cmp (Eq, ColRef edept, ColRef did);
            Cmp (Gt, ColRef esal, Const (Value.Float 150.));
            Cmp (Ne, ColRef dname, Const (Value.Str "hr"))
          ],
        Join { kind = Inner; pred = true_; left = e; right = d } )
  in
  let s = Normalize.Simplify.simplify t in
  check_equiv "pushdown equivalent" t s;
  (* the single-side conjuncts must sit directly above the scans *)
  (match s with
  | Join { left = Select (_, TableScan _); right = Select (_, TableScan _); pred; _ } ->
      Alcotest.(check int) "join keeps the equi conjunct" 1 (List.length (conjuncts pred))
  | _ -> Alcotest.failf "unexpected shape:\n%s" (Pp.to_string s))

let test_no_push_into_outerjoin_left_pred () =
  (* a LOJ's ON-clause conjunct that references only the preserved side
     must NOT become a filter on it *)
  let e, ecols = fresh_scan "emp" in
  let d, dcols = fresh_scan "dept" in
  let edept = List.nth ecols 2 and esal = List.nth ecols 3 in
  let did = List.hd dcols in
  let t =
    Join
      { kind = LeftOuter;
        pred = And (Cmp (Eq, ColRef edept, ColRef did), Cmp (Gt, ColRef esal, Const (Value.Float 150.)));
        left = e;
        right = d
      }
  in
  let s = Normalize.Simplify.simplify t in
  check_equiv "outerjoin pred stays" t s;
  (* emp rows with salary <= 150 must still appear (padded) *)
  let rows = Engine.bag (run s) in
  Alcotest.(check bool) "ann padded, not dropped" true
    (List.exists (fun r -> Support.contains r "ann") rows)

let test_push_into_outerjoin_right_pred () =
  (* a LOJ ON-conjunct on the inner side alone MAY move into the inner
     input *)
  let e, ecols = fresh_scan "emp" in
  let d, dcols = fresh_scan "dept" in
  let edept = List.nth ecols 2 in
  let did = List.hd dcols and dname = List.nth dcols 1 in
  let t =
    Join
      { kind = LeftOuter;
        pred = And (Cmp (Eq, ColRef edept, ColRef did), Cmp (Eq, ColRef dname, Const (Value.Str "eng")));
        left = e;
        right = d
      }
  in
  let s = Normalize.Simplify.simplify t in
  check_equiv "right-side push equivalent" t s

let test_push_through_groupby_on_keys () =
  let e, ecols = fresh_scan "emp" in
  let edept = List.nth ecols 2 and esal = List.nth ecols 3 in
  let s_out = Col.fresh "s" Value.TFloat in
  let g = GroupBy { keys = [ edept ]; aggs = [ { fn = Sum (ColRef esal); out = s_out } ]; input = e } in
  let t = Select (Cmp (Eq, ColRef edept, Const (Value.Int 1)), g) in
  let s = Normalize.Simplify.simplify t in
  check_equiv "groupby push equivalent" t s;
  (match s with
  | GroupBy { input = Select (_, TableScan _); _ } -> ()
  | _ -> Alcotest.failf "expected filter below groupby:\n%s" (Pp.to_string s));
  (* a filter on the aggregate stays above *)
  let t2 = Select (Cmp (Gt, ColRef s_out, Const (Value.Float 200.)), g) in
  let s2 = Normalize.Simplify.simplify t2 in
  check_equiv "agg filter stays" t2 s2;
  match s2 with
  | Select (_, GroupBy _) -> ()
  | _ -> Alcotest.failf "expected filter above groupby:\n%s" (Pp.to_string s2)

let test_push_through_project_substitutes () =
  let e, ecols = fresh_scan "emp" in
  let esal = List.nth ecols 3 in
  let out = Col.fresh "double_sal" Value.TFloat in
  let p = Project ([ { expr = Arith (Mul, ColRef esal, Const (Value.Float 2.)); out } ], e) in
  let t = Select (Cmp (Gt, ColRef out, Const (Value.Float 500.)), p) in
  let s = Normalize.Simplify.simplify t in
  check_equiv "project substitution equivalent" t s;
  match s with
  | Project (_, Select (_, TableScan _)) -> ()
  | _ -> Alcotest.failf "expected pushed filter:\n%s" (Pp.to_string s)

(* --- pruning ----------------------------------------------------------- *)

let prune required o = Normalize.Prune.prune ~env:(env ()) required o

let test_prune_groupby_keys_via_fd () =
  let e, ecols = fresh_scan "emp" in
  let eid = List.hd ecols and ename = List.nth ecols 1 and esal = List.nth ecols 3 in
  let s_out = Col.fresh "s" Value.TFloat in
  (* grouping by (eid, name): name is determined by the key eid *)
  let g =
    GroupBy { keys = [ eid; ename ]; aggs = [ { fn = Sum (ColRef esal); out = s_out } ]; input = e }
  in
  let p = prune (Col.Set.of_list [ eid; s_out ]) g in
  (match p with
  | GroupBy { keys = [ k ]; _ } -> Alcotest.(check bool) "kept eid" true (Col.equal k eid)
  | _ -> Alcotest.failf "expected single-key groupby:\n%s" (Pp.to_string p));
  (* results agree on the surviving columns *)
  let narrow o = Project ([ { expr = ColRef eid; out = eid }; { expr = ColRef s_out; out = s_out } ], o) in
  check_equiv "prune equivalent" (narrow g) (narrow p)

let test_prune_never_merges_groups () =
  (* grouping by name only (no key): pruning must NOT drop it even if
     unreferenced above, because nothing determines it *)
  let e, ecols = fresh_scan "emp" in
  let ename = List.nth ecols 1 and esal = List.nth ecols 3 in
  let s_out = Col.fresh "s" Value.TFloat in
  let g =
    GroupBy { keys = [ ename ]; aggs = [ { fn = Sum (ColRef esal); out = s_out } ]; input = e }
  in
  match prune (Col.Set.singleton s_out) g with
  | GroupBy { keys = [ k ]; _ } -> Alcotest.(check bool) "name kept" true (Col.equal k ename)
  | o -> Alcotest.failf "unexpected prune result:\n%s" (Pp.to_string o)

let test_prune_drops_unused_aggs () =
  let e, ecols = fresh_scan "emp" in
  let edept = List.nth ecols 2 and esal = List.nth ecols 3 in
  let s1 = Col.fresh "s1" Value.TFloat and s2 = Col.fresh "s2" Value.TFloat in
  let g =
    GroupBy
      { keys = [ edept ];
        aggs =
          [ { fn = Sum (ColRef esal); out = s1 }; { fn = Min (ColRef esal); out = s2 } ];
        input = e
      }
  in
  match prune (Col.Set.of_list [ edept; s1 ]) g with
  | GroupBy { aggs = [ a ]; _ } -> Alcotest.(check bool) "kept sum" true (Col.equal a.out s1)
  | o -> Alcotest.failf "unexpected:\n%s" (Pp.to_string o)

let test_prune_keeps_apply_correlation () =
  (* the left side of an Apply must keep columns the right side
     references, even if no one above needs them *)
  let d, dcols = fresh_scan "dept" in
  let did = List.hd dcols in
  let e, ecols = fresh_scan "emp" in
  let edept = List.nth ecols 2 in
  let a =
    Apply
      { kind = Semi; pred = true_;
        left = d;
        right = Select (Cmp (Eq, ColRef edept, ColRef did), e)
      }
  in
  let dname = List.nth dcols 1 in
  let p = prune (Col.Set.singleton dname) a in
  check_equiv "apply prune equivalent" a p

let test_prune_union_untouched () =
  let mk () =
    let e, ecols = fresh_scan "emp" in
    Project
      ( [ { expr = ColRef (List.hd ecols); out = Col.fresh "v" Value.TInt };
          { expr = ColRef (List.nth ecols 3); out = Col.fresh "w" Value.TFloat }
        ],
        e )
  in
  let u = UnionAll (mk (), mk ()) in
  let out = List.hd (Op.schema u) in
  let p = prune (Col.Set.singleton out) u in
  Alcotest.(check int) "arity preserved" 2 (List.length (Op.schema p));
  check_equiv "union prune equivalent" u p

let suite =
  [ Alcotest.test_case "constant folding" `Quick test_const_fold;
    Alcotest.test_case "select true elided" `Quick test_select_true_elided;
    Alcotest.test_case "select merge" `Quick test_select_merge;
    Alcotest.test_case "identity project elided" `Quick test_identity_project_elided;
    Alcotest.test_case "project merge" `Quick test_project_merge;
    Alcotest.test_case "conjunct dedup" `Quick test_conjunct_dedup;
    Alcotest.test_case "push into join sides" `Quick test_push_into_join_sides;
    Alcotest.test_case "no push into outerjoin left" `Quick test_no_push_into_outerjoin_left_pred;
    Alcotest.test_case "push into outerjoin right" `Quick test_push_into_outerjoin_right_pred;
    Alcotest.test_case "push through groupby keys" `Quick test_push_through_groupby_on_keys;
    Alcotest.test_case "push through project" `Quick test_push_through_project_substitutes;
    Alcotest.test_case "prune groupby keys via FD" `Quick test_prune_groupby_keys_via_fd;
    Alcotest.test_case "prune never merges groups" `Quick test_prune_never_merges_groups;
    Alcotest.test_case "prune drops unused aggs" `Quick test_prune_drops_unused_aggs;
    Alcotest.test_case "prune keeps apply correlation" `Quick test_prune_keeps_apply_correlation;
    Alcotest.test_case "prune union untouched" `Quick test_prune_union_untouched
  ]
