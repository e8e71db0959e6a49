(* Vectorized-executor edge cases.  Every check runs the same plan on
   the row interpreter (the semantic oracle) and on the columnar
   engine and compares result bags: batch boundaries (size 1, counts
   that are exact multiples of the batch size), empty inputs, all-NULL
   aggregate columns, selection vectors that empty mid-pipeline, and
   the kernel fallbacks (mixed-type columns, multi-key grouping).
   Plan-level workload coverage lives in test/vexec_main.ml. *)

open Relalg
open Relalg.Algebra

let vec ?batch_size db o = Vexec.run ?batch_size (Exec.Executor.make_ctx db) o

let check_modes ?batch_size msg db o =
  Alcotest.(check (list string))
    msg
    (Engine.bag (Support.run_op db o))
    (Engine.bag (vec ?batch_size db o))

(* emp scan with fresh per-occurrence columns, as the binder would make *)
let emp_scan () =
  let eid = Col.fresh "eid" Value.TInt in
  let name = Col.fresh "name" Value.TStr in
  let dept = Col.fresh "dept" Value.TInt in
  let salary = Col.fresh "salary" Value.TFloat in
  (TableScan { table = "emp"; cols = [ eid; name; dept; salary ] }, eid, name, dept, salary)

let bag_scan () =
  let x = Col.fresh "x" Value.TInt in
  let y = Col.fresh "y" Value.TInt in
  (TableScan { table = "bag"; cols = [ x; y ] }, x, y)

(* filter + grouped count over emp: enough pipeline to cross batch
   boundaries in every operator *)
let emp_pipeline () =
  let scan, _, _, dept, salary = emp_scan () in
  let cnt = { fn = CountStar; out = Col.fresh "cnt" Value.TInt } in
  let total = { fn = Sum (ColRef salary); out = Col.fresh "total" Value.TFloat } in
  GroupBy
    { keys = [ dept ];
      aggs = [ cnt; total ];
      input = Select (Cmp (Gt, ColRef salary, Const (Value.Float 150.)), scan)
    }

let test_batch_boundaries () =
  let db = Support.toy_db () in
  (* emp has 4 rows: size 1 (one row per batch), 2 and 4 (exact
     multiples — the last batch is exactly full), 3 (ragged tail),
     1024 (everything in one batch) *)
  List.iter
    (fun bs ->
      check_modes ~batch_size:bs (Printf.sprintf "pipeline at batch size %d" bs) db
        (emp_pipeline ()))
    [ 1; 2; 3; 4; 1024 ]

let test_join_across_batches () =
  let db = Support.toy_db () in
  let scan, _, name, dept, _ = emp_scan () in
  let did = Col.fresh "did" Value.TInt in
  let dname = Col.fresh "dname" Value.TStr in
  let dscan = TableScan { table = "dept"; cols = [ did; dname ] } in
  let join kind =
    Project
      ( [ { expr = ColRef name; out = Col.clone name };
          { expr = ColRef dname; out = Col.clone dname }
        ],
        Join { kind; pred = Cmp (Eq, ColRef dept, ColRef did); left = scan; right = dscan }
      )
  in
  List.iter
    (fun bs ->
      check_modes ~batch_size:bs "inner join" db (join Inner);
      check_modes ~batch_size:bs "left outer join" db (join LeftOuter))
    [ 1; 2; 1024 ]

let test_empty_table () =
  let db = Support.toy_db () in
  Storage.Table.load (Storage.Database.table db "bag") [];
  let scan, x, _ = bag_scan () in
  (* grouped aggregation over no rows: no groups *)
  check_modes "groupby over empty table" db
    (GroupBy
       { keys = [ x ];
         aggs = [ { fn = CountStar; out = Col.fresh "cnt" Value.TInt } ];
         input = scan
       });
  (* scalar aggregation over no rows: exactly one row (count 0, sum NULL) *)
  let scan2, x2, _ = bag_scan () in
  check_modes "scalar agg over empty table" db
    (ScalarAgg
       { aggs =
           [ { fn = CountStar; out = Col.fresh "cnt" Value.TInt };
             { fn = Sum (ColRef x2); out = Col.fresh "s" Value.TInt }
           ];
         input = scan2
       })

let test_all_null_aggregates () =
  let db = Support.toy_db () in
  let x = Col.fresh "x" Value.TInt in
  let k = Col.fresh "k" Value.TInt in
  let tbl =
    ConstTable
      { cols = [ k; x ];
        rows =
          [ [| Value.Int 1; Value.Null |];
            [| Value.Int 1; Value.Null |];
            [| Value.Int 2; Value.Null |]
          ]
      }
  in
  let aggs () =
    [ { fn = Count (ColRef x); out = Col.fresh "c" Value.TInt };
      { fn = Sum (ColRef x); out = Col.fresh "s" Value.TInt };
      { fn = Min (ColRef x); out = Col.fresh "mn" Value.TInt };
      { fn = Max (ColRef x); out = Col.fresh "mx" Value.TInt };
      { fn = Avg (ColRef x); out = Col.fresh "av" Value.TFloat }
    ]
  in
  check_modes "scalar aggs over all-NULL column" db (ScalarAgg { aggs = aggs (); input = tbl });
  check_modes ~batch_size:2 "grouped aggs over all-NULL column" db
    (GroupBy { keys = [ k ]; aggs = aggs (); input = tbl })

let test_selection_empties_midpipeline () =
  let db = Support.toy_db () in
  let scan, _, _, dept, salary = emp_scan () in
  let dead = Select (Cmp (Lt, ColRef salary, Const (Value.Float 0.)), scan) in
  let did = Col.fresh "did" Value.TInt in
  let dname = Col.fresh "dname" Value.TStr in
  let dscan = TableScan { table = "dept"; cols = [ did; dname ] } in
  (* the probe side goes empty after the filter; join and aggregation
     above must still produce the oracle's answer at every batch size *)
  let o =
    GroupBy
      { keys = [ dname ];
        aggs = [ { fn = CountStar; out = Col.fresh "cnt" Value.TInt } ];
        input =
          Join
            { kind = Inner; pred = Cmp (Eq, ColRef dept, ColRef did); left = dead; right = dscan }
      }
  in
  List.iter (fun bs -> check_modes ~batch_size:bs "join+agg over emptied input" db o) [ 1; 2; 1024 ];
  (* scalar agg over the emptied input still emits its one row *)
  let scan2, _, _, _, salary2 = emp_scan () in
  check_modes "scalar agg over emptied input" db
    (ScalarAgg
       { aggs = [ { fn = Sum (ColRef salary2); out = Col.fresh "s" Value.TFloat } ];
         input = Select (Const (Value.Bool false), scan2)
       })

let test_mixed_type_columns () =
  let db = Support.toy_db () in
  (* grouping key mixes Int/Float/Str/NULL (defeats the int fast path),
     aggregate input mixes Int and Float (defeats the typed kernels) *)
  let k = Col.fresh "k" Value.TInt in
  let v = Col.fresh "v" Value.TFloat in
  let tbl =
    ConstTable
      { cols = [ k; v ];
        rows =
          [ [| Value.Int 1; Value.Int 10 |];
            [| Value.Float 1.5; Value.Float 0.5 |];
            [| Value.Str "a"; Value.Int 3 |];
            [| Value.Int 1; Value.Float 2.5 |];
            [| Value.Null; Value.Null |];
            [| Value.Null; Value.Int 7 |]
          ]
      }
  in
  check_modes ~batch_size:2 "mixed-type keys and agg inputs" db
    (GroupBy
       { keys = [ k ];
         aggs =
           [ { fn = Sum (ColRef v); out = Col.fresh "s" Value.TFloat };
             { fn = Min (ColRef v); out = Col.fresh "mn" Value.TFloat };
             { fn = Avg (ColRef v); out = Col.fresh "av" Value.TFloat }
           ];
         input = tbl
       })

let test_multi_key_groupby () =
  let db = Support.toy_db () in
  let scan, x, y = bag_scan () in
  check_modes ~batch_size:2 "multi-key groupby" db
    (GroupBy
       { keys = [ x; y ];
         aggs = [ { fn = CountStar; out = Col.fresh "cnt" Value.TInt } ];
         input = scan
       })

let test_bag_operators () =
  let db = Support.toy_db () in
  let s1, _, _ = bag_scan () in
  let s2, _, _ = bag_scan () in
  let s3, x3, _ = bag_scan () in
  check_modes ~batch_size:2 "union all keeps duplicates" db (UnionAll (s1, s2));
  let ones = Select (Cmp (Eq, ColRef x3, Const (Value.Int 1)), s3) in
  (* EXCEPT ALL: bag of 3 minus the two x=1 rows *)
  let s4, _, _ = bag_scan () in
  check_modes ~batch_size:1 "except all subtracts multiplicities" db (Except (s4, ones))

(* --- batched Apply / SegmentApply ----------------------------------- *)

(* a correlated Apply: for each outer row, filter dept on did = <param> *)
let dept_probe param =
  let did = Col.fresh "did" Value.TInt in
  let dname = Col.fresh "dname" Value.TStr in
  Select
    ( Cmp (Eq, ColRef did, ColRef param),
      TableScan { table = "dept"; cols = [ did; dname ] } )

let apply_kinds = [ ("inner", Inner); ("leftouter", LeftOuter); ("semi", Semi); ("anti", Anti) ]

let test_apply_empty_outer () =
  (* the outer side vanishes before the Apply: zero batches reach it,
     and every kind must still produce the oracle's (empty) answer *)
  let db = Support.toy_db () in
  List.iter
    (fun (kname, kind) ->
      let scan, _, _, dept, _ = emp_scan () in
      let left = Select (Const (Value.Bool false), scan) in
      let o = Apply { kind; pred = true_; left; right = dept_probe dept } in
      List.iter
        (fun bs ->
          check_modes ~batch_size:bs (Printf.sprintf "%s apply over empty outer" kname) db o)
        [ 1; 2; 1024 ])
    apply_kinds

let test_apply_all_null_params () =
  (* every correlation binding is NULL: the batched dedup must place
     them all in one class (NULL groups with NULL, per Value.equal) and
     the probe must come back empty — NULL = did is UNKNOWN *)
  let db = Support.toy_db () in
  let mk_outer () =
    let p = Col.fresh "p" Value.TInt in
    ( p,
      ConstTable
        { cols = [ p ];
          rows = [ [| Value.Null |]; [| Value.Null |]; [| Value.Null |] ]
        } )
  in
  List.iter
    (fun (kname, kind) ->
      let p, outer = mk_outer () in
      let o = Apply { kind; pred = true_; left = outer; right = dept_probe p } in
      check_modes ~batch_size:2 (Printf.sprintf "%s apply, all-NULL params" kname) db o)
    apply_kinds

let test_apply_duplicate_params_across_batches () =
  (* the same binding recurs inside a batch and again in later batches:
     per-batch dedup must reuse evaluations without dropping duplicate
     outer rows (bag semantics) or conflating the NULL class with 1 *)
  let db = Support.toy_db () in
  let mk_outer () =
    let p = Col.fresh "p" Value.TInt in
    let r v = [| v |] in
    ( p,
      ConstTable
        { cols = [ p ];
          rows =
            List.map r
              [ Value.Int 1; Value.Int 2; Value.Int 1; Value.Int 1; Value.Null;
                Value.Int 2; Value.Int 3; Value.Int 1 ]
        } )
  in
  List.iter
    (fun (kname, kind) ->
      let p, outer = mk_outer () in
      let o = Apply { kind; pred = true_; left = outer; right = dept_probe p } in
      List.iter
        (fun bs ->
          check_modes ~batch_size:bs
            (Printf.sprintf "%s apply, duplicate params at batch size %d" kname bs)
            db o)
        [ 1; 2; 3; 1024 ])
    apply_kinds

let test_outer_apply_null_padding () =
  (* LeftOuter Apply where some bindings find no inner row (dept 99
     does not exist): the scatter must emit the outer row padded with
     NULLs at the inner schema's width, including under a Project
     wrapper on the inner side *)
  let db = Support.toy_db () in
  let mk o =
    List.iter
      (fun bs -> check_modes ~batch_size:bs "outer apply NULL padding" db o)
      [ 1; 2; 1024 ]
  in
  let scan, _, _, dept, _ = emp_scan () in
  mk (Apply { kind = LeftOuter; pred = true_; left = scan; right = dept_probe dept });
  (* projected inner: the padded width is the projection's, not the scan's *)
  let scan2, _, _, dept2, _ = emp_scan () in
  let probe = dept_probe dept2 in
  let dname = List.nth (Op.schema probe) 1 in
  let projected =
    Project ([ { expr = ColRef dname; out = Col.clone dname } ], probe)
  in
  mk (Apply { kind = LeftOuter; pred = true_; left = scan2; right = projected })

let test_segment_apply_batch_boundaries () =
  (* segments larger than the batch: the vectorized SegmentApply must
     stitch a segment that starts in one batch and ends in another
     before running the inner over it *)
  let db = Support.toy_db () in
  let mk_plan () =
    let g = Col.fresh "g" Value.TInt in
    let v = Col.fresh "v" Value.TInt in
    let r a b = [| Value.Int a; Value.Int b |] in
    let outer =
      ConstTable
        { cols = [ g; v ];
          rows = [ r 1 10; r 1 11; r 1 12; r 2 20; r 2 21; r 3 30 ]
        }
    in
    let hole_cols = List.map Col.clone [ g; v ] in
    let hole = SegmentHole { cols = hole_cols; src = [ g; v ] } in
    let hv = List.nth hole_cols 1 in
    let inner =
      ScalarAgg
        { aggs =
            [ { fn = CountStar; out = Col.fresh "cnt" Value.TInt };
              { fn = Sum (ColRef hv); out = Col.fresh "s" Value.TInt }
            ];
          input = hole
        }
    in
    SegmentApply { seg_cols = [ g ]; outer; inner }
  in
  List.iter
    (fun bs ->
      check_modes ~batch_size:bs
        (Printf.sprintf "segment apply at batch size %d" bs)
        db (mk_plan ()))
    [ 1; 2; 3; 4; 1024 ]

(* --- Max1row, Rownum and subquery expressions ------------------------ *)

(* Hand-written SQL shapes that once sent subtrees to the row engine:
   each must give the row engine's bag in vector mode, or raise the
   row engine's runtime error, under every optimizer config. *)
let tpch = lazy (Datagen.Tpch_gen.database ~sf:0.002 ())

let configs =
  [ ("correlated", Optimizer.Config.correlated_only);
    ("decorrelated", Optimizer.Config.decorrelated_only);
    ("full", Optimizer.Config.full)
  ]

let outcome ~config ~mode sql =
  let eng = Engine.create (Lazy.force tpch) in
  match Engine.query ~config ~mode eng sql with
  | r -> Ok (Engine.bag r.Exec.Executor.rows)
  | exception Exec.Executor.Runtime_error m -> Error m

let check_sql_modes ?rows msg sql =
  List.iter
    (fun (cname, config) ->
      let row = outcome ~config ~mode:`Row sql and vec = outcome ~config ~mode:`Vector sql in
      let label = Printf.sprintf "%s under %s" msg cname in
      Alcotest.(check (result (list string) string)) label row vec;
      match (rows, row) with
      | Some n, Ok bag -> Alcotest.(check int) (label ^ ": rows") n (List.length bag)
      | Some _, Error m -> Alcotest.failf "%s: unexpected runtime error %s" label m
      | None, _ -> ())
    configs

let test_max1row_under_join () =
  check_sql_modes ~rows:5 "uncorrelated Max1row under a join"
    "select n_name from nation where n_regionkey = (select r_regionkey from region where \
     r_name = 'ASIA')"

let test_max1row_violation () =
  let sql =
    "select c_custkey from customer where c_acctbal > (select o_totalprice from orders \
     where o_custkey = c_custkey)"
  in
  List.iter
    (fun (cname, config) ->
      Alcotest.(check (result (list string) string))
        (Printf.sprintf "Max1row violation under %s" cname)
        (Error "subquery returned more than one row (Max1row)")
        (outcome ~config ~mode:`Vector sql))
    configs;
  check_sql_modes "Max1row violation" sql;
  (* plan level: a second row raises, a single row passes *)
  let db = Support.toy_db () in
  let x = Col.fresh "x" Value.TInt in
  let table rows = ConstTable { cols = [ x ]; rows = List.map (fun i -> [| Value.Int i |]) rows } in
  List.iter
    (fun bs ->
      Alcotest.check_raises
        (Printf.sprintf "two rows at batch size %d" bs)
        (Exec.Executor.Runtime_error "subquery returned more than one row (Max1row)")
        (fun () -> ignore (vec ~batch_size:bs db (Max1row (table [ 1; 2 ]))));
      check_modes ~batch_size:bs "one row passes" db (Max1row (table [ 7 ])))
    [ 1; 1024 ]

let test_guarded_case_subquery () =
  (* the guard is never true, so the subquery (which would raise
     Max1row for any customer with two orders) must never run *)
  check_sql_modes ~rows:30 "CASE-guarded scalar subquery"
    "select c_custkey, case when c_custkey < 0 then (select o_totalprice from orders where \
     o_custkey = c_custkey) else 0 end from customer where c_custkey <= 30"

let test_rownum_across_batches () =
  let db = Support.toy_db () in
  let x = Col.fresh "x" Value.TInt in
  let rn = Col.fresh "rn" Value.TInt in
  let vals = [ 7; 9; 7; 3; 5 ] in
  let o =
    Rownum
      { out = rn; input = ConstTable { cols = [ x ]; rows = List.map (fun i -> [| Value.Int i |]) vals } }
  in
  let expected = List.mapi (fun i v -> [ Value.Int v; Value.Int (i + 1) ]) vals in
  List.iter
    (fun bs ->
      Alcotest.(check (list (list string)))
        (Printf.sprintf "rownum numbered 1..n at batch size %d" bs)
        (List.map (List.map Value.to_string) expected)
        (List.map
           (fun r -> List.map Value.to_string (Array.to_list r))
           (vec ~batch_size:bs db o));
      check_modes ~batch_size:bs "rownum matches the row engine" db o)
    [ 1; 2; 1024 ]

(* Regression: NDV estimates must not survive a table reload.  The
   stats cache is tagged with the table's mutation generation, so a
   load (which bumps the generation) invalidates the cached count. *)
let test_ndv_tracks_table_generation () =
  let db = Support.toy_db () in
  let stats = Optimizer.Stats.create db in
  Alcotest.(check int) "ndv before reload" 2 (Optimizer.Stats.ndv stats "bag" "x");
  Storage.Table.load
    (Storage.Database.table db "bag")
    [ [| Value.Int 1; Value.Int 1 |];
      [| Value.Int 2; Value.Int 1 |];
      [| Value.Int 3; Value.Int 1 |];
      [| Value.Int 4; Value.Int 1 |]
    ];
  Alcotest.(check int) "ndv after reload" 4 (Optimizer.Stats.ndv stats "bag" "x");
  Alcotest.(check int) "row count after reload" 4 (Optimizer.Stats.row_count stats "bag")

let suite =
  [ Alcotest.test_case "batch boundaries" `Quick test_batch_boundaries;
    Alcotest.test_case "join across batches" `Quick test_join_across_batches;
    Alcotest.test_case "empty table" `Quick test_empty_table;
    Alcotest.test_case "all-NULL aggregates" `Quick test_all_null_aggregates;
    Alcotest.test_case "selection empties mid-pipeline" `Quick
      test_selection_empties_midpipeline;
    Alcotest.test_case "mixed-type columns" `Quick test_mixed_type_columns;
    Alcotest.test_case "multi-key groupby" `Quick test_multi_key_groupby;
    Alcotest.test_case "bag operators" `Quick test_bag_operators;
    Alcotest.test_case "apply: empty outer" `Quick test_apply_empty_outer;
    Alcotest.test_case "apply: all-NULL params" `Quick test_apply_all_null_params;
    Alcotest.test_case "apply: duplicate params across batches" `Quick
      test_apply_duplicate_params_across_batches;
    Alcotest.test_case "apply: outer NULL padding" `Quick test_outer_apply_null_padding;
    Alcotest.test_case "segment apply: batch boundaries" `Quick
      test_segment_apply_batch_boundaries;
    Alcotest.test_case "ndv tracks table generation" `Quick test_ndv_tracks_table_generation;
    Alcotest.test_case "max1row under a join" `Quick test_max1row_under_join;
    Alcotest.test_case "max1row violation" `Quick test_max1row_violation;
    Alcotest.test_case "guarded CASE subquery" `Quick test_guarded_case_subquery;
    Alcotest.test_case "rownum across batches" `Quick test_rownum_across_batches
  ]
