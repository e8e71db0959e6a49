(* Unit tests for the Apply-removal identities (paper Figure 4),
   exercised on constructed trees (not via SQL), each checked for both
   shape and semantics against the toy database. *)

open Relalg
open Relalg.Algebra

let db = lazy (Support.toy_db ())

let cat () = (Lazy.force db).Storage.Database.catalog
let env () = Catalog.props_env (cat ())

let cfg ?(class2 = false) () : Normalize.Decorrelate.config =
  { env = env (); class2 }

let fresh_scan table =
  let def = Option.get (Catalog.find_table (cat ()) table) in
  let cols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty) def.columns in
  (TableScan { table; cols }, cols)

let emp () = fresh_scan "emp"
let dept () = fresh_scan "dept"

let run o = Support.run_op (Lazy.force db) o
let check_equiv msg a b = Support.check_same_bag msg (run a) (run b)

let no_apply o = not (Op.exists_op (function Apply _ -> true | _ -> false) o)

let remove ?class2 o = Normalize.Decorrelate.remove (cfg ?class2 ()) o

(* --- identities (1)/(2): uncorrelated right side --------------------- *)

let test_identity_1_2 () =
  let d, _ = dept () in
  let e, ecols = emp () in
  let esal = List.nth ecols 3 in
  (* uncorrelated inner with a predicate on both sides *)
  List.iter
    (fun kind ->
      let a =
        Apply { kind; pred = Cmp (Gt, ColRef esal, Const (Value.Float 150.)); left = d; right = e }
      in
      let r = remove a in
      Alcotest.(check bool) (join_kind_name kind ^ " becomes join") true (no_apply r);
      check_equiv (join_kind_name kind ^ " equivalent") a r)
    [ Inner; LeftOuter; Semi; Anti ]

(* --- identity (3): select merge --------------------------------------- *)

let test_select_merge () =
  let d, dcols = dept () in
  let e, ecols = emp () in
  let did = List.hd dcols and edept = List.nth ecols 2 in
  (* correlated select below the apply merges into the predicate slot *)
  let inner = Select (Cmp (Eq, ColRef edept, ColRef did), e) in
  List.iter
    (fun kind ->
      let a = Apply { kind; pred = true_; left = d; right = inner } in
      let r = remove a in
      Alcotest.(check bool) (join_kind_name kind ^ " flattens") true (no_apply r);
      check_equiv (join_kind_name kind ^ " equivalent") a r)
    [ Inner; LeftOuter; Semi; Anti ]

(* --- identity (4): project pushdown ----------------------------------- *)

let test_project_cross () =
  let d, dcols = dept () in
  let e, ecols = emp () in
  let did = List.hd dcols and edept = List.nth ecols 2 and esal = List.nth ecols 3 in
  let out = Col.fresh "x2" Value.TFloat in
  let inner =
    Project
      ( [ { expr = Arith (Mul, ColRef esal, Const (Value.Float 2.)); out } ],
        Select (Cmp (Eq, ColRef edept, ColRef did), e) )
  in
  let a = Apply { kind = Inner; pred = true_; left = d; right = inner } in
  let r = remove a in
  Alcotest.(check bool) "cross project flattens" true (no_apply r);
  check_equiv "cross project equivalent" a r

let test_project_outer_strict_and_guarded () =
  let d, dcols = dept () in
  let e, ecols = emp () in
  let did = List.hd dcols and edept = List.nth ecols 2 and esal = List.nth ecols 3 in
  (* strict projection over the nullable side: plain pull-up *)
  let out = Col.fresh "x2" Value.TFloat in
  let strict_inner =
    Project
      ( [ { expr = Arith (Add, ColRef esal, Const (Value.Float 1.)); out } ],
        Select (Cmp (Eq, ColRef edept, ColRef did), e) )
  in
  let a1 = Apply { kind = LeftOuter; pred = true_; left = d; right = strict_inner } in
  let r1 = remove a1 in
  Alcotest.(check bool) "strict outer project flattens" true (no_apply r1);
  check_equiv "strict outer project equivalent" a1 r1;
  (* NON-strict projection (a constant): must be NULL on unmatched
     outer rows — requires the match guard *)
  let e2, ecols2 = emp () in
  let edept2 = List.nth ecols2 2 in
  let out2 = Col.fresh "k" Value.TInt in
  let const_inner =
    Project
      ( [ { expr = Const (Value.Int 7); out = out2 } ],
        Select (Cmp (Eq, ColRef edept2, ColRef did), e2) )
  in
  let a2 = Apply { kind = LeftOuter; pred = true_; left = d; right = const_inner } in
  let r2 = remove a2 in
  check_equiv "guarded constant project equivalent" a2 r2;
  (* dept 3 (hr) has no emps: its k must be NULL, not 7 *)
  let rows = Engine.bag (run r2) in
  Alcotest.(check bool) "hr padded with NULL" true
    (List.exists (fun s -> Support.contains s "3|hr|NULL") rows)

(* --- identity (8): vector GroupBy under cross Apply ------------------- *)

let test_identity_8 () =
  let d, dcols = dept () in
  let e, ecols = emp () in
  let did = List.hd dcols in
  let edept = List.nth ecols 2 and esal = List.nth ecols 3 and eid = List.hd ecols in
  let s = { fn = Sum (ColRef esal); out = Col.fresh "s" Value.TFloat } in
  let inner =
    GroupBy
      { keys = [ eid ];
        aggs = [ s ];
        input = Select (Cmp (Eq, ColRef edept, ColRef did), e)
      }
  in
  let a = Apply { kind = Inner; pred = true_; left = d; right = inner } in
  let r = remove a in
  Alcotest.(check bool) "identity 8 flattens" true (no_apply r);
  check_equiv "identity 8 equivalent" a r;
  (* shape: GroupBy keys extended with the outer's columns *)
  let rec find_g o =
    match o with
    | GroupBy { keys; _ } -> Some keys
    | _ -> List.find_map find_g (Op.children o)
  in
  match find_g r with
  | Some keys -> Alcotest.(check bool) "keys extended" true (List.length keys > 1)
  | None -> Alcotest.fail "no groupby"

(* --- identity (9): ScalarAgg with count adjustment --------------------- *)

let test_identity_9_count_star () =
  let d, dcols = dept () in
  let e, ecols = emp () in
  let did = List.hd dcols and edept = List.nth ecols 2 in
  let cnt = { fn = CountStar; out = Col.fresh "n" Value.TInt } in
  let inner =
    ScalarAgg { aggs = [ cnt ]; input = Select (Cmp (Eq, ColRef edept, ColRef did), e) }
  in
  let a = Apply { kind = Inner; pred = true_; left = d; right = inner } in
  let r = remove a in
  Alcotest.(check bool) "identity 9 flattens count-star" true (no_apply r);
  check_equiv "identity 9 count-star equivalent" a r;
  (* the empty department must count 0, not NULL *)
  let rows = Engine.bag (run r) in
  Alcotest.(check bool) "hr counts 0" true
    (List.exists (fun s -> Support.contains s "3|hr|0") rows)

let test_identity_9_all_aggs () =
  let d, dcols = dept () in
  let did = List.hd dcols in
  let mk_inner fn_name =
    let e, ecols = emp () in
    let edept = List.nth ecols 2 and esal = List.nth ecols 3 in
    let fn =
      match fn_name with
      | "sum" -> Sum (ColRef esal)
      | "min" -> Min (ColRef esal)
      | "max" -> Max (ColRef esal)
      | "avg" -> Avg (ColRef esal)
      | _ -> Count (ColRef esal)
    in
    ScalarAgg
      { aggs = [ { fn; out = Col.fresh fn_name Value.TFloat } ];
        input = Select (Cmp (Eq, ColRef edept, ColRef did), e)
      }
  in
  List.iter
    (fun fn_name ->
      let a = Apply { kind = Inner; pred = true_; left = d; right = mk_inner fn_name } in
      let r = remove a in
      Alcotest.(check bool) (fn_name ^ " flattens") true (no_apply r);
      check_equiv (fn_name ^ " equivalent") a r)
    [ "sum"; "min"; "max"; "avg"; "count" ]

(* --- semi/anti over ScalarAgg and generic fallbacks -------------------- *)

let test_semi_anti_over_scalar_agg () =
  let d, dcols = dept () in
  let did = List.hd dcols in
  let mk () =
    let e, ecols = emp () in
    let edept = List.nth ecols 2 and esal = List.nth ecols 3 in
    ScalarAgg
      { aggs = [ { fn = Sum (ColRef esal); out = Col.fresh "s" Value.TFloat } ];
        input = Select (Cmp (Eq, ColRef edept, ColRef did), e)
      }
  in
  let pred inner =
    Cmp (Gt, ColRef (List.hd (Op.schema inner)), Const (Value.Float 250.))
  in
  let i1 = mk () in
  let a_semi = Apply { kind = Semi; pred = pred i1; left = d; right = i1 } in
  let r_semi = remove a_semi in
  Alcotest.(check bool) "semi over scalar agg flattens" true (no_apply r_semi);
  check_equiv "semi equivalent" a_semi r_semi;
  let i2 = mk () in
  let a_anti = Apply { kind = Anti; pred = pred i2; left = d; right = i2 } in
  let r_anti = remove a_anti in
  Alcotest.(check bool) "anti over scalar agg flattens" true (no_apply r_anti);
  check_equiv "anti equivalent" a_anti r_anti;
  (* anti keeps rows where the comparison is UNKNOWN (sum NULL) *)
  let anti_rows = Engine.bag (run r_anti) in
  Alcotest.(check bool) "hr kept by anti (sum is NULL)" true
    (List.exists (fun s -> Support.contains s "3|hr") anti_rows)

let test_semi_generic_fallback_over_groupby () =
  (* semijoin against a correlated vector GroupBy: the count-based
     fallback must flatten it *)
  let d, dcols = dept () in
  let did = List.hd dcols in
  let e, ecols = emp () in
  let edept = List.nth ecols 2 and esal = List.nth ecols 3 and eid = List.hd ecols in
  let s = { fn = Sum (ColRef esal); out = Col.fresh "s" Value.TFloat } in
  let inner =
    GroupBy
      { keys = [ eid ]; aggs = [ s ];
        input = Select (Cmp (Eq, ColRef edept, ColRef did), e)
      }
  in
  let pred = Cmp (Gt, ColRef s.out, Const (Value.Float 150.)) in
  let a = Apply { kind = Semi; pred; left = d; right = inner } in
  let r = remove a in
  Alcotest.(check bool) "semi generic flattens" true (no_apply r);
  check_equiv "semi generic equivalent" a r

(* --- class 2 identities ------------------------------------------------ *)

let test_class2_union_identity_5 () =
  let d, dcols = dept () in
  let did = List.hd dcols in
  let mk_branch () =
    let e, ecols = emp () in
    let edept = List.nth ecols 2 in
    let out = Col.fresh "v" Value.TInt in
    Project
      ( [ { expr = ColRef (List.hd ecols); out } ],
        Select (Cmp (Eq, ColRef edept, ColRef did), e) )
  in
  let u = UnionAll (mk_branch (), mk_branch ()) in
  let a = Apply { kind = Inner; pred = true_; left = d; right = u } in
  (* without class2: stuck *)
  let r_off = remove a in
  Alcotest.(check bool) "kept correlated without class2" false (no_apply r_off);
  check_equiv "still equivalent" a r_off;
  (* with class2: identity (5) fires *)
  let r_on = remove ~class2:true a in
  Alcotest.(check bool) "flattens with class2" true (no_apply r_on);
  check_equiv "identity 5 equivalent" a r_on

let test_class2_scalar_agg_over_union () =
  (* the paper's Class 2 example shape: scalar aggregate over a
     correlated UNION ALL *)
  let d, dcols = dept () in
  let did = List.hd dcols in
  let mk_branch () =
    let e, ecols = emp () in
    let edept = List.nth ecols 2 and esal = List.nth ecols 3 in
    let out = Col.fresh "v" Value.TFloat in
    Project
      ( [ { expr = ColRef esal; out } ],
        Select (Cmp (Eq, ColRef edept, ColRef did), e) )
  in
  let u = UnionAll (mk_branch (), mk_branch ()) in
  let sum = { fn = Sum (ColRef (List.hd (Op.schema u))); out = Col.fresh "s" Value.TFloat } in
  let inner = ScalarAgg { aggs = [ sum ]; input = u } in
  let a = Apply { kind = LeftOuter; pred = true_; left = d; right = inner } in
  let r_off = remove a in
  Alcotest.(check bool) "kept correlated without class2" false (no_apply r_off);
  let r_on = remove ~class2:true a in
  Alcotest.(check bool) "flattens with class2" true (no_apply r_on);
  check_equiv "aggregate-over-union equivalent" a r_on

let test_class2_except_identity_6 () =
  let d, dcols = dept () in
  let did = List.hd dcols in
  let mk_branch pred_extra =
    let e, ecols = emp () in
    let edept = List.nth ecols 2 in
    let out = Col.fresh "v" Value.TInt in
    let base = Cmp (Eq, ColRef edept, ColRef did) in
    let p = match pred_extra with None -> base | Some x -> And (base, x) in
    let p, e =
      match pred_extra with
      | None -> (base, e)
      | Some _ -> (p, e)
    in
    Project ([ { expr = ColRef (List.hd ecols); out } ], Select (p, e))
  in
  let b2 =
    let e, ecols = emp () in
    let esal = List.nth ecols 3 in
    let edept = List.nth ecols 2 in
    let out = Col.fresh "v" Value.TInt in
    Project
      ( [ { expr = ColRef (List.hd ecols); out } ],
        Select
          ( And (Cmp (Eq, ColRef edept, ColRef did), Cmp (Gt, ColRef esal, Const (Value.Float 150.))),
            e ) )
  in
  let x = Except (mk_branch None, b2) in
  let a = Apply { kind = Inner; pred = true_; left = d; right = x } in
  let r_on = remove ~class2:true a in
  Alcotest.(check bool) "except flattens with class2" true (no_apply r_on);
  check_equiv "identity 6 equivalent" a r_on

let test_class2_join_identity_7 () =
  (* both join inputs correlated: identity (7) duplicates the outer *)
  let d, dcols = dept () in
  let did = List.hd dcols in
  let mk () =
    let e, ecols = emp () in
    let edept = List.nth ecols 2 in
    (Select (Cmp (Eq, ColRef edept, ColRef did), e), ecols)
  in
  let b1, c1 = mk () in
  let b2, c2 = mk () in
  let j =
    Join
      { kind = Inner;
        pred = Cmp (Eq, ColRef (List.hd c1), ColRef (List.hd c2));
        left = b1;
        right = b2
      }
  in
  let a = Apply { kind = Inner; pred = true_; left = d; right = j } in
  let r_off = remove a in
  check_equiv "kept correlated still equivalent" a r_off;
  let r_on = remove ~class2:true a in
  Alcotest.(check bool) "identity 7 flattens" true (no_apply r_on);
  check_equiv "identity 7 equivalent" a r_on

(* --- one-sided correlated joins ---------------------------------------- *)

let test_one_sided_join_left_and_right () =
  let d, dcols = dept () in
  let did = List.hd dcols in
  (* correlated branch ⋈ uncorrelated branch, correlation on the left *)
  let e1, c1 = emp () in
  let corr = Select (Cmp (Eq, ColRef (List.nth c1 2), ColRef did), e1) in
  let e2, c2 = emp () in
  let j_left =
    Join
      { kind = Inner;
        pred = Cmp (Eq, ColRef (List.hd c1), ColRef (List.hd c2));
        left = corr;
        right = e2
      }
  in
  let a1 = Apply { kind = Inner; pred = true_; left = d; right = j_left } in
  let r1 = remove a1 in
  Alcotest.(check bool) "left-correlated join flattens" true (no_apply r1);
  check_equiv "left-correlated equivalent" a1 r1;
  (* correlation on the right side *)
  let e3, c3 = emp () in
  let e4, c4 = emp () in
  let corr4 = Select (Cmp (Eq, ColRef (List.nth c4 2), ColRef did), e4) in
  let j_right =
    Join
      { kind = Inner;
        pred = Cmp (Eq, ColRef (List.hd c3), ColRef (List.hd c4));
        left = e3;
        right = corr4
      }
  in
  let a2 = Apply { kind = Inner; pred = true_; left = d; right = j_right } in
  let r2 = remove a2 in
  Alcotest.(check bool) "right-correlated join flattens" true (no_apply r2);
  check_equiv "right-correlated equivalent" a2 r2

let test_outerjoin_left_correlated () =
  let d, dcols = dept () in
  let did = List.hd dcols in
  let e1, c1 = emp () in
  let corr = Select (Cmp (Eq, ColRef (List.nth c1 2), ColRef did), e1) in
  let e2, c2 = emp () in
  let j =
    Join
      { kind = LeftOuter;
        pred = Cmp (Lt, ColRef (List.nth c1 3), ColRef (List.nth c2 3));
        left = corr;
        right = e2
      }
  in
  let a = Apply { kind = Inner; pred = true_; left = d; right = j } in
  let r = remove a in
  Alcotest.(check bool) "outerjoin with correlated preserved side flattens" true (no_apply r);
  check_equiv "outerjoin equivalent" a r

(* --- Max1row ------------------------------------------------------------- *)

let test_max1row_handling () =
  let d, dcols = dept () in
  let did = List.hd dcols in
  (* provably single row (key equality): Max1row elided, flattens *)
  let e1, c1 = emp () in
  let single = Max1row (Select (Cmp (Eq, ColRef (List.hd c1), ColRef did), e1)) in
  let a1 = Apply { kind = LeftOuter; pred = true_; left = d; right = single } in
  let r1 = remove a1 in
  Alcotest.(check bool) "max1row elided on key" true (no_apply r1);
  check_equiv "elided equivalent" a1 r1;
  (* not provable: stays correlated *)
  let e2, c2 = emp () in
  let multi = Max1row (Select (Cmp (Eq, ColRef (List.nth c2 2), ColRef did), e2)) in
  let a2 = Apply { kind = LeftOuter; pred = true_; left = d; right = multi } in
  let r2 = remove a2 in
  Alcotest.(check bool) "max1row kept otherwise" false (no_apply r2)

(* --- Rownum key manufacturing ------------------------------------------- *)

let test_keyless_outer_gets_rownum () =
  (* the keyless bag table as the outer of a scalar-agg apply: identity
     (9) requires a key, which Rownum manufactures *)
  let b, bcols = fresh_scan "bag" in
  let bx = List.hd bcols in
  let e, ecols = emp () in
  let edept = List.nth ecols 2 and esal = List.nth ecols 3 in
  let inner =
    ScalarAgg
      { aggs = [ { fn = Sum (ColRef esal); out = Col.fresh "s" Value.TFloat } ];
        input = Select (Cmp (Eq, ColRef edept, ColRef bx), e)
      }
  in
  let a = Apply { kind = Inner; pred = true_; left = b; right = inner } in
  let r = remove a in
  Alcotest.(check bool) "flattens via rownum" true (no_apply r);
  Alcotest.(check bool) "rownum present" true
    (Op.exists_op (function Rownum _ -> true | _ -> false) r);
  (* bag duplicates must be preserved; the manufactured key is part of
     the decorrelated schema, so compare on the original columns only *)
  let visible = Op.schema a in
  let narrow o = Project (List.map (fun c -> { expr = ColRef c; out = c }) visible, o) in
  check_equiv "bag duplicates preserved" (narrow a) (narrow r)

let suite =
  [ Alcotest.test_case "identities (1)/(2)" `Quick test_identity_1_2;
    Alcotest.test_case "identity (3): select merge" `Quick test_select_merge;
    Alcotest.test_case "identity (4): project, cross" `Quick test_project_cross;
    Alcotest.test_case "identity (4): project, outer" `Quick test_project_outer_strict_and_guarded;
    Alcotest.test_case "identity (8)" `Quick test_identity_8;
    Alcotest.test_case "identity (9): count-star" `Quick test_identity_9_count_star;
    Alcotest.test_case "identity (9): all aggregates" `Quick test_identity_9_all_aggs;
    Alcotest.test_case "semi/anti over scalar agg" `Quick test_semi_anti_over_scalar_agg;
    Alcotest.test_case "semi generic fallback" `Quick test_semi_generic_fallback_over_groupby;
    Alcotest.test_case "class 2: identity (5)" `Quick test_class2_union_identity_5;
    Alcotest.test_case "class 2: agg over union" `Quick test_class2_scalar_agg_over_union;
    Alcotest.test_case "class 2: identity (6)" `Quick test_class2_except_identity_6;
    Alcotest.test_case "class 2: identity (7)" `Quick test_class2_join_identity_7;
    Alcotest.test_case "one-sided correlated joins" `Quick test_one_sided_join_left_and_right;
    Alcotest.test_case "outerjoin left-correlated" `Quick test_outerjoin_left_correlated;
    Alcotest.test_case "max1row elision/retention" `Quick test_max1row_handling;
    Alcotest.test_case "rownum key manufacturing" `Quick test_keyless_outer_gets_rownum
  ]
