(* Tests for the Section 3 transformation rules: each rule must fire
   exactly under its conditions and preserve semantics on the toy
   database. *)

open Relalg
open Relalg.Algebra

let db = lazy (Support.toy_db ())

let cat () = (Lazy.force db).Storage.Database.catalog
let env () = Catalog.props_env (cat ())

(* build: dept ⋈ (G_{dept}[sum salary] emp) on dept-col = did *)
let join_over_groupby () =
  let dcols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "dept")).columns in
  let ecols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "emp")).columns in
  let dept_scan = TableScan { table = "dept"; cols = dcols } in
  let emp_scan = TableScan { table = "emp"; cols = ecols } in
  let did = List.nth dcols 0 in
  let edept = List.nth ecols 2 and esal = List.nth ecols 3 in
  let s = { fn = Sum (ColRef esal); out = Col.fresh "s" Value.TFloat } in
  let g = GroupBy { keys = [ edept ]; aggs = [ s ]; input = emp_scan } in
  let j =
    Join { kind = Inner; pred = Cmp (Eq, ColRef did, ColRef edept); left = dept_scan; right = g }
  in
  (j, did, edept, s)

let check_equiv msg a b =
  Support.check_same_bag msg (Support.run_op (Lazy.force db) a) (Support.run_op (Lazy.force db) b)

let test_pull_groupby_above_join () =
  let j, _, _, _ = join_over_groupby () in
  match Rules.Groupby_reorder.pull_above_join ~env:(env ()) j with
  | None -> Alcotest.fail "pull should fire (dept has a key)"
  | Some pulled ->
      check_equiv "pull preserves semantics" j pulled;
      (* the pulled tree has GroupBy above the join *)
      (match pulled with
      | Project (_, GroupBy { input = Join _; _ }) -> ()
      | _ -> Alcotest.failf "unexpected shape:\n%s" (Pp.to_string pulled))

let test_pull_blocked_without_key () =
  (* joining with the keyless bag table blocks the pull *)
  let bcols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "bag")).columns in
  let ecols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "emp")).columns in
  let bag_scan = TableScan { table = "bag"; cols = bcols } in
  let emp_scan = TableScan { table = "emp"; cols = ecols } in
  let bx = List.nth bcols 0 and edept = List.nth ecols 2 in
  let s = { fn = Sum (ColRef (List.nth ecols 3)); out = Col.fresh "s" Value.TFloat } in
  let g = GroupBy { keys = [ edept ]; aggs = [ s ]; input = emp_scan } in
  let j = Join { kind = Inner; pred = Cmp (Eq, ColRef bx, ColRef edept); left = bag_scan; right = g } in
  Alcotest.(check bool) "no key, no pull" true
    (Rules.Groupby_reorder.pull_above_join ~env:(env ()) j = None)

let test_pull_blocked_on_agg_pred () =
  let j, did, edept, s = join_over_groupby () in
  ignore (did, edept);
  (* a predicate using the aggregate output blocks pulling *)
  let j' =
    match j with
    | Join jj -> Join { jj with pred = And (jj.pred, Cmp (Gt, ColRef s.out, Const (Value.Float 0.))) }
    | _ -> assert false
  in
  Alcotest.(check bool) "agg pred blocks" true
    (Rules.Groupby_reorder.pull_above_join ~env:(env ()) j' = None)

(* the push direction: GroupBy over a join *)
let groupby_over_join ?(agg_on_emp = true) () =
  let dcols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "dept")).columns in
  let ecols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "emp")).columns in
  let dept_scan = TableScan { table = "dept"; cols = dcols } in
  let emp_scan = TableScan { table = "emp"; cols = ecols } in
  let did = List.nth dcols 0 and dname = List.nth dcols 1 in
  let edept = List.nth ecols 2 and esal = List.nth ecols 3 in
  let agg_src = if agg_on_emp then esal else did in
  let s = { fn = Sum (ColRef agg_src); out = Col.fresh "s" Value.TFloat } in
  let j =
    Join { kind = Inner; pred = Cmp (Eq, ColRef did, ColRef edept); left = dept_scan; right = emp_scan }
  in
  (GroupBy { keys = [ did; dname ]; aggs = [ s ]; input = j }, did)

let test_push_groupby_below_join () =
  let g, _ = groupby_over_join () in
  match Rules.Groupby_reorder.push_below_join ~env:(env ()) g with
  | None -> Alcotest.fail "push should fire"
  | Some pushed ->
      check_equiv "push preserves semantics" g pushed;
      (match pushed with
      | Project (_, Join { right = GroupBy _; _ }) | Project (_, Join { left = GroupBy _; _ }) -> ()
      | _ -> Alcotest.failf "unexpected shape:\n%s" (Pp.to_string pushed))

let test_push_blocked_mixed_aggs () =
  (* aggregate over the wrong side blocks the push onto emp *)
  let g, _ = groupby_over_join ~agg_on_emp:false () in
  match Rules.Groupby_reorder.push_below_join ~env:(env ()) g with
  | None -> ()
  | Some pushed ->
      (* if it fired it must have pushed to the dept side; either way
         semantics must hold *)
      check_equiv "still equivalent" g pushed

let test_push_below_outerjoin_with_compensation () =
  (* count-star per department over a LEFT OUTER JOIN: pushing below must
     compensate the padded groups with constant 1 *)
  let dcols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "dept")).columns in
  let ecols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "emp")).columns in
  let dept_scan = TableScan { table = "dept"; cols = dcols } in
  let emp_scan = TableScan { table = "emp"; cols = ecols } in
  let did = List.nth dcols 0 in
  let edept = List.nth ecols 2 and esal = List.nth ecols 3 in
  let cnt = { fn = CountStar; out = Col.fresh "c" Value.TInt } in
  let s = { fn = Sum (ColRef esal); out = Col.fresh "s" Value.TFloat } in
  let j =
    Join { kind = LeftOuter; pred = Cmp (Eq, ColRef did, ColRef edept); left = dept_scan; right = emp_scan }
  in
  let g = GroupBy { keys = [ did ]; aggs = [ cnt; s ]; input = j } in
  match Rules.Groupby_reorder.push_below_outerjoin ~env:(env ()) g with
  | None -> Alcotest.fail "outerjoin push should fire"
  | Some pushed ->
      check_equiv "outerjoin push preserves semantics" g pushed;
      (* check the padded department (hr) yields count 1, sum NULL *)
      let rows = Engine.bag (Support.run_op (Lazy.force db) pushed) in
      Alcotest.(check bool) "hr group count 1 sum null" true
        (List.exists (fun r -> r = "3|1|NULL") rows)

let test_filter_groupby_commute () =
  let g, did = groupby_over_join () in
  let f = Select (Cmp (Eq, ColRef did, Const (Value.Int 1)), g) in
  (match Rules.Groupby_reorder.push_filter_below_groupby f with
  | None -> Alcotest.fail "filter push should fire (grouping col)"
  | Some pushed -> check_equiv "filter push ok" f pushed);
  (* filter on the aggregate cannot go below *)
  let s_out = match g with GroupBy { aggs = [ a ]; _ } -> a.out | _ -> assert false in
  let f2 = Select (Cmp (Gt, ColRef s_out, Const (Value.Float 0.)), g) in
  Alcotest.(check bool) "agg filter blocked" true
    (Rules.Groupby_reorder.push_filter_below_groupby f2 = None)

let test_semijoin_groupby_reorder () =
  let g, did = groupby_over_join () in
  let ucols = [ Col.fresh "x" Value.TInt ] in
  let u = ConstTable { cols = ucols; rows = [ [| Value.Int 1 |]; [| Value.Int 3 |] ] } in
  let semi =
    Join { kind = Semi; pred = Cmp (Eq, ColRef did, ColRef (List.hd ucols)); left = g; right = u }
  in
  (match Rules.Groupby_reorder.push_semijoin_below_groupby semi with
  | None -> Alcotest.fail "semijoin push should fire"
  | Some pushed ->
      check_equiv "semijoin push ok" semi pushed;
      (match pushed with
      | GroupBy { input = Join { kind = Semi; _ }; _ } -> ()
      | _ -> Alcotest.fail "unexpected shape"));
  (* and the reverse direction *)
  match Rules.Groupby_reorder.push_semijoin_below_groupby semi with
  | Some pushed -> (
      match Rules.Groupby_reorder.pull_semijoin_above_groupby pushed with
      | Some pulled -> check_equiv "roundtrip" semi pulled
      | None -> Alcotest.fail "pull back should fire")
  | None -> ()

(* ---- local aggregates ---- *)

let test_local_agg_split () =
  let g, _ = groupby_over_join () in
  match Rules.Local_agg.split g with
  | None -> Alcotest.fail "split should fire"
  | Some split ->
      check_equiv "split preserves semantics" g split;
      (match split with
      | Project (_, GroupBy { input = LocalGroupBy _; _ }) -> ()
      | _ -> Alcotest.failf "unexpected shape:\n%s" (Pp.to_string split))

let test_local_agg_split_all_functions () =
  (* sum/count/min/max/avg and count-star all split correctly *)
  let ecols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "emp")).columns in
  let emp_scan = TableScan { table = "emp"; cols = ecols } in
  let edept = List.nth ecols 2 and esal = List.nth ecols 3 in
  let mk fn name = { fn; out = Col.fresh name Value.TFloat } in
  let aggs =
    [ mk (Sum (ColRef esal)) "s"; mk CountStar "c"; mk (Count (ColRef esal)) "ce";
      mk (Min (ColRef esal)) "mn"; mk (Max (ColRef esal)) "mx"; mk (Avg (ColRef esal)) "av"
    ]
  in
  let g = GroupBy { keys = [ edept ]; aggs; input = emp_scan } in
  match Rules.Local_agg.split g with
  | None -> Alcotest.fail "split should fire"
  | Some split -> check_equiv "all aggregates split" g split

let test_eager_aggregation () =
  let g, _ = groupby_over_join () in
  match Rules.Local_agg.eager_aggregate g with
  | None -> Alcotest.fail "eager aggregation should fire"
  | Some eager ->
      check_equiv "eager preserves semantics" g eager;
      (* a LocalGroupBy must now sit below the join *)
      let rec has_local_below_join (o : op) =
        match o with
        | Join { left = LocalGroupBy _; _ } | Join { right = LocalGroupBy _; _ } -> true
        | _ -> List.exists has_local_below_join (Op.children o)
      in
      Alcotest.(check bool) "local below join" true (has_local_below_join eager)

let test_eager_aggregation_no_key_needed () =
  (* unlike the full pushdown, eager aggregation works when the
     preserved side has no key: group by bag.x after joining bag with
     emp *)
  let bcols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "bag")).columns in
  let ecols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "emp")).columns in
  let bag_scan = TableScan { table = "bag"; cols = bcols } in
  let emp_scan = TableScan { table = "emp"; cols = ecols } in
  let bx = List.nth bcols 0 in
  let eid = List.nth ecols 0 and esal = List.nth ecols 3 in
  let s = { fn = Sum (ColRef esal); out = Col.fresh "s" Value.TFloat } in
  let j = Join { kind = Inner; pred = Cmp (Eq, ColRef bx, ColRef eid); left = bag_scan; right = emp_scan } in
  let g = GroupBy { keys = [ bx ]; aggs = [ s ]; input = j } in
  (* duplicates in bag must be preserved by the global recombination *)
  match Rules.Local_agg.eager_aggregate g with
  | None -> Alcotest.fail "eager should fire without key"
  | Some eager -> check_equiv "bag duplicates preserved" g eager

(* ---- segment apply ---- *)

let self_join_with_agg () =
  (* emp ⋈ (select dept, avg(salary) from emp group by dept) on same dept *)
  let mk () = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "emp")).columns in
  let c1 = mk () and c2 = mk () in
  let e1 = TableScan { table = "emp"; cols = c1 } in
  let e2 = TableScan { table = "emp"; cols = c2 } in
  let d1 = List.nth c1 2 and d2 = List.nth c2 2 and s2 = List.nth c2 3 in
  let av = { fn = Avg (ColRef s2); out = Col.fresh "av" Value.TFloat } in
  let g = GroupBy { keys = [ d2 ]; aggs = [ av ]; input = e2 } in
  let sal1 = List.nth c1 3 in
  let j =
    Join
      { kind = Inner;
        pred = And (Cmp (Eq, ColRef d1, ColRef d2), Cmp (Lt, ColRef sal1, ColRef av.out));
        left = e1;
        right = g
      }
  in
  (j, d1)

let test_segment_apply_intro () =
  let j, d1 = self_join_with_agg () in
  match Rules.Segment_apply.introduce j with
  | None -> Alcotest.fail "SegmentApply intro should fire"
  | Some sa ->
      check_equiv "segment apply preserves semantics" j sa;
      let rec find_sa (o : op) =
        match o with
        | SegmentApply { seg_cols; _ } -> Some seg_cols
        | _ -> List.find_map find_sa (Op.children o)
      in
      (match find_sa sa with
      | Some [ c ] -> Alcotest.(check bool) "segments on dept" true (Col.equal c d1)
      | _ -> Alcotest.fail "expected one segmenting column")

let test_segment_apply_no_fire_on_different_tables () =
  (* dept ⋈ agg(emp): not two instances of the same expression *)
  let g, _ = groupby_over_join () in
  match g with
  | GroupBy { input = j; _ } ->
      Alcotest.(check bool) "no iso, no segment" true (Rules.Segment_apply.introduce j = None)
  | _ -> assert false

let test_segment_apply_join_pushdown () =
  let j, _ = self_join_with_agg () in
  match Rules.Segment_apply.introduce j with
  | None -> Alcotest.fail "intro should fire"
  | Some sa ->
      (* join the SegmentApply with dept on the segmenting column *)
      let dcols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
          (Option.get (Catalog.find_table (cat ()) "dept")).columns in
      let dept_scan = TableScan { table = "dept"; cols = dcols } in
      let did = List.nth dcols 0 in
      let seg_col =
        let rec find (o : op) =
          match o with
          | SegmentApply { seg_cols = [ c ]; _ } -> Some c
          | _ -> List.find_map find (Op.children o)
        in
        Option.get (find sa)
      in
      let outer_join =
        Join { kind = Inner; pred = Cmp (Eq, ColRef seg_col, ColRef did); left = sa; right = dept_scan }
      in
      (match Rules.Segment_apply.push_join_below outer_join with
      | None -> Alcotest.fail "join pushdown should fire"
      | Some pushed ->
          check_equiv "pushdown preserves semantics" outer_join pushed;
          (* the join must now be inside the SegmentApply's outer *)
          let rec sa_outer_has_join (o : op) =
            match o with
            | SegmentApply { outer = Join _; _ } -> true
            | _ -> List.exists sa_outer_has_join (Op.children o)
          in
          Alcotest.(check bool) "join below segment apply" true (sa_outer_has_join pushed))

let test_join_to_indexed_apply () =
  (* emp has an index on dept: the join can execute as index-lookup
     apply *)
  let dcols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "dept")).columns in
  let ecols = List.map (fun (c : Catalog.column) -> Col.fresh c.col_name c.col_ty)
      (Option.get (Catalog.find_table (cat ()) "emp")).columns in
  let dept_scan = TableScan { table = "dept"; cols = dcols } in
  let emp_scan = TableScan { table = "emp"; cols = ecols } in
  let did = List.nth dcols 0 and edept = List.nth ecols 2 in
  let j = Join { kind = Inner; pred = Cmp (Eq, ColRef edept, ColRef did); left = dept_scan; right = emp_scan } in
  (match Rules.Correlated.join_to_apply ~cat:(cat ()) j with
  | None -> Alcotest.fail "indexed apply should fire"
  | Some a ->
      check_equiv "apply equals join" j a;
      (match a with Apply _ -> () | _ -> Alcotest.fail "expected Apply"));
  (* no index on dept.dname: the rule must not fire *)
  let dname = List.nth dcols 1 in
  let ename = List.nth ecols 1 in
  let j2 =
    Join
      { kind = Inner; pred = Cmp (Eq, ColRef ename, ColRef dname); left = emp_scan;
        right = dept_scan
      }
  in
  Alcotest.(check bool) "no index, no apply" true
    (Rules.Correlated.join_to_apply ~cat:(cat ()) j2 = None)

let test_join_assoc_derives_equality () =
  (* (a ⋈ b) ⋈ c with a=b and b=c: associating (a,c) derives a=c *)
  let mk name = Col.fresh name Value.TInt in
  let xa = mk "xa" and xb = mk "xb" and xc = mk "xc" in
  let t v c = ConstTable { cols = [ c ]; rows = [ [| Value.Int v |]; [| Value.Int (v + 1) |] ] } in
  let inner = Join { kind = Inner; pred = Cmp (Eq, ColRef xa, ColRef xb); left = t 1 xa; right = t 1 xb } in
  let outer = Join { kind = Inner; pred = Cmp (Eq, ColRef xb, ColRef xc); left = inner; right = t 1 xc } in
  let variants = List.filter_map (fun x -> x) (Rules.Join_rules.associate outer) in
  Alcotest.(check bool) "some variant" true (variants <> []);
  List.iter (fun v -> check_equiv "assoc preserves semantics" outer v) variants

let test_join_commute () =
  let j, _, _, _ = join_over_groupby () in
  match Rules.Join_rules.commute j with
  | None -> Alcotest.fail "commute fires on inner joins"
  | Some c -> check_equiv "commute preserves semantics" j c

let suite =
  [ Alcotest.test_case "pull groupby above join" `Quick test_pull_groupby_above_join;
    Alcotest.test_case "pull blocked without key" `Quick test_pull_blocked_without_key;
    Alcotest.test_case "pull blocked on agg pred" `Quick test_pull_blocked_on_agg_pred;
    Alcotest.test_case "push groupby below join" `Quick test_push_groupby_below_join;
    Alcotest.test_case "push blocked mixed aggs" `Quick test_push_blocked_mixed_aggs;
    Alcotest.test_case "push below outerjoin + compensation" `Quick
      test_push_below_outerjoin_with_compensation;
    Alcotest.test_case "filter/groupby commute" `Quick test_filter_groupby_commute;
    Alcotest.test_case "semijoin/groupby reorder" `Quick test_semijoin_groupby_reorder;
    Alcotest.test_case "local agg split" `Quick test_local_agg_split;
    Alcotest.test_case "local agg all functions" `Quick test_local_agg_split_all_functions;
    Alcotest.test_case "eager aggregation" `Quick test_eager_aggregation;
    Alcotest.test_case "eager aggregation keyless" `Quick test_eager_aggregation_no_key_needed;
    Alcotest.test_case "segment apply intro" `Quick test_segment_apply_intro;
    Alcotest.test_case "segment apply negative" `Quick test_segment_apply_no_fire_on_different_tables;
    Alcotest.test_case "segment apply join pushdown" `Quick test_segment_apply_join_pushdown;
    Alcotest.test_case "join to indexed apply" `Quick test_join_to_indexed_apply;
    Alcotest.test_case "join assoc derives equality" `Quick test_join_assoc_derives_equality;
    Alcotest.test_case "join commute" `Quick test_join_commute
  ]
