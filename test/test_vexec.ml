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

let test_subquery_residual_not_probed () =
  (* [eid = 1] alone would select one candidate, but the CASE subquery
     returns two rows on eid 2 (two employees in department 1): the
     filter runs row by row, so both engines raise, on the bound tree
     and under every config *)
  let db = Support.toy_db () in
  let sql =
    "select eid from emp where case when salary > 150 then (select e2.eid from emp e2 where \
     e2.dept = emp.dept) else 0 end >= 0 and eid = 1"
  in
  let outcome f =
    match f () with
    | rows -> Ok (Engine.bag rows)
    | exception Exec.Executor.Runtime_error m -> Error m
  in
  let check label row vec =
    Alcotest.(check bool) (label ^ ": raises") true (Result.is_error row);
    Alcotest.(check (result (list string) string)) (label ^ ": row = vector") row vec
  in
  let bound = (Sqlfront.Binder.bind_sql db.Storage.Database.catalog sql).op in
  check "bound tree" (outcome (fun () -> Support.run_op db bound)) (outcome (fun () -> vec db bound));
  List.iter
    (fun (cname, config) ->
      let run mode () = (Engine.query ~config ~mode (Engine.create db) sql).Exec.Executor.rows in
      check cname (outcome (run `Row)) (outcome (run `Vector)))
    configs

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

(* --- typed columns ------------------------------------------------------ *)

(* Differentials for the typed column kernels: every plan runs on both
   engines at several batch sizes (a batch boundary splits a column
   into chunks that must re-concatenate to one kind). *)
let check_sizes msg db mk =
  List.iter
    (fun bs -> check_modes ~batch_size:bs (Printf.sprintf "%s at batch size %d" msg bs) db (mk ()))
    [ 1; 2; 3; 1024 ]

let table (specs : (string * Value.ty) list) (rows : Value.t list list) =
  let cols = List.map (fun (n, ty) -> Col.fresh n ty) specs in
  (ConstTable { cols; rows = List.map Array.of_list rows }, cols)

let agg fn ty = { fn; out = Col.fresh "a" ty }

(* every aggregate, every comparison and every arithmetic operator over
   one column, grouped and ungrouped *)
let exercise_column msg db (mk : unit -> op * Col.t * Col.t) =
  let aggs c =
    [ agg CountStar Value.TInt; agg (Count (ColRef c)) Value.TInt; agg (Sum (ColRef c)) Value.TFloat;
      agg (Avg (ColRef c)) Value.TFloat; agg (Min (ColRef c)) Value.TFloat;
      agg (Max (ColRef c)) Value.TFloat ]
  in
  check_sizes (msg ^ ": grouped by the column") db (fun () ->
      let t, _, c = mk () in
      GroupBy { keys = [ c ]; aggs = aggs c; input = t });
  check_sizes (msg ^ ": aggregates over the column") db (fun () ->
      let t, k, c = mk () in
      GroupBy { keys = [ k ]; aggs = aggs c; input = t });
  check_sizes (msg ^ ": scalar aggregates") db (fun () ->
      let t, _, c = mk () in
      ScalarAgg { aggs = aggs c; input = t });
  List.iter
    (fun op ->
      check_sizes (msg ^ ": comparison") db (fun () ->
          let t, k, c = mk () in
          Project
            ( [ { expr = ColRef k; out = Col.clone k }; { expr = ColRef c; out = Col.clone c };
                { expr = Cmp (op, ColRef c, Const (Value.Int 2)); out = Col.fresh "f" Value.TBool }
              ],
              Select (Cmp (op, ColRef c, ColRef k), t) ));
      check_sizes (msg ^ ": comparison, filtered") db (fun () ->
          let t, k, c = mk () in
          Select (Or (Cmp (op, ColRef c, ColRef k), IsNull (ColRef c)), t)))
    [ Eq; Ne; Lt; Le; Gt; Ge ];
  List.iter
    (fun op ->
      check_sizes (msg ^ ": arithmetic") db (fun () ->
          let t, k, c = mk () in
          Project
            ( [ { expr = Arith (op, ColRef c, ColRef k); out = Col.fresh "x" Value.TFloat };
                { expr = Arith (op, Const (Value.Float 1.5), ColRef c); out = Col.fresh "y" Value.TFloat };
                { expr = Arith (op, ColRef c, Const (Value.Int 0)); out = Col.fresh "z" Value.TFloat }
              ],
              t )))
    [ Add; Sub; Mul; Div; Mod ]

let test_typed_nulls_every_kind () =
  let db = Support.toy_db () in
  let d x = Value.Date x and i x = Value.Int x and n = Value.Null in
  let kinds =
    [ ("int", Value.TInt, [ i 3; n; i (-2); i 3; n ]);
      ("float", Value.TFloat, [ Value.Float 2.5; n; Value.Float (-1.); Value.Float 2.5; n ]);
      ("string", Value.TStr, [ Value.Str "b"; n; Value.Str "a"; Value.Str "b"; n ]);
      ("date", Value.TDate, [ d 10; n; d 3; d 10; n ]);
      ("bool", Value.TBool, [ Value.Bool true; n; Value.Bool false; Value.Bool true; n ]) ]
  in
  List.iter
    (fun (name, ty, vals) ->
      exercise_column ("NULLs in a " ^ name ^ " column") db (fun () ->
          let t, cols =
            table [ ("k", Value.TInt); ("c", ty) ]
              (List.mapi (fun j v -> [ i (j mod 2); v ]) vals)
          in
          (t, List.nth cols 0, List.nth cols 1));
      (* the column as a join key on both sides: NULL never matches *)
      check_sizes ("NULL join keys, " ^ name) db (fun () ->
          let l, lc = table [ ("a", ty) ] (List.map (fun v -> [ v ]) vals) in
          let r, rc = table [ ("b", ty) ] (List.map (fun v -> [ v ]) vals) in
          Join
            { kind = LeftOuter;
              pred = Cmp (Eq, ColRef (List.hd lc), ColRef (List.hd rc));
              left = l;
              right = r
            }))
    kinds

let test_typed_mixed_int_float () =
  let db = Support.toy_db () in
  let i x = Value.Int x and f x = Value.Float x in
  (* one column mixing Int and Float: Int 1 and Float 1.0 group together *)
  exercise_column "a column mixing Int and Float" db (fun () ->
      let t, cols =
        table [ ("k", Value.TInt); ("c", Value.TFloat) ]
          [ [ i 1; i 1 ]; [ i 1; f 1. ]; [ i 2; f 2.5 ]; [ i 2; i 2 ]; [ i 1; Value.Null ];
            [ i 2; f 1. ] ]
      in
      (t, List.nth cols 0, List.nth cols 1));
  (* an Int key column against a Float one, single and two-column *)
  let ints () = table [ ("a", Value.TInt); ("b", Value.TInt) ] [ [ i 1; i 7 ]; [ i 2; i 8 ]; [ i 3; i 9 ]; [ i 2; i 8 ] ] in
  let floats () =
    table [ ("x", Value.TFloat); ("y", Value.TFloat) ]
      [ [ f 1.; f 7. ]; [ f 2.; f 8.5 ]; [ f 2.; f 8. ]; [ f 3.5; f 9. ] ]
  in
  List.iter
    (fun kind ->
      check_sizes "Int key against Float key" db (fun () ->
          let l, lc = ints () and r, rc = floats () in
          Join
            { kind;
              pred = Cmp (Eq, ColRef (List.hd lc), ColRef (List.hd rc));
              left = l;
              right = r
            });
      check_sizes "two-column Int/Float key" db (fun () ->
          let l, lc = ints () and r, rc = floats () in
          Join
            { kind;
              pred =
                And
                  ( Cmp (Eq, ColRef (List.hd lc), ColRef (List.hd rc)),
                    Cmp (Eq, ColRef (List.nth rc 1), ColRef (List.nth lc 1)) );
              left = l;
              right = r
            }))
    [ Inner; LeftOuter; Semi; Anti ];
  (* an Int-keyed index probed with a Float parameter *)
  check_sizes "Float parameter probing an Int index" db (fun () ->
      let x, xs = table [ ("p", Value.TFloat) ] [ [ f 1. ]; [ f 2. ]; [ f 1.5 ] ] in
      let scan, _, _, dept, _ = emp_scan () in
      Apply
        { kind = Inner;
          pred = true_;
          left = x;
          right = Select (Cmp (Eq, ColRef dept, ColRef (List.hd xs)), scan)
        })

let test_typed_date_vs_int () =
  let db = Support.toy_db () in
  (* Date 5 is not Int 5: no join match, two groups *)
  check_sizes "Date key against Int key" db (fun () ->
      let l, lc = table [ ("d", Value.TDate) ] [ [ Value.Date 5 ]; [ Value.Date 6 ] ] in
      let r, rc = table [ ("i", Value.TInt) ] [ [ Value.Int 5 ]; [ Value.Int 6 ] ] in
      Join { kind = Inner; pred = Cmp (Eq, ColRef (List.hd lc), ColRef (List.hd rc)); left = l; right = r });
  check_sizes "Date and Int in one grouping column" db (fun () ->
      let t, cols =
        table [ ("c", Value.TDate) ] [ [ Value.Date 5 ]; [ Value.Int 5 ]; [ Value.Date 5 ]; [ Value.Int 5 ] ]
      in
      GroupBy { keys = cols; aggs = [ agg CountStar Value.TInt ]; input = t });
  check_sizes "Date against Int comparison" db (fun () ->
      let t, cols = table [ ("d", Value.TDate) ] [ [ Value.Date 5 ]; [ Value.Null ] ] in
      Select (Cmp (Gt, ColRef (List.hd cols), Const (Value.Int 100)), t))

let test_typed_edge_values () =
  let db = Support.toy_db () in
  let f x = Value.Float x in
  (* min_int is a key like any other (no sentinel) *)
  let ints = [ min_int; 0; min_int; max_int; -1; min_int ] in
  exercise_column "min_int and max_int" db (fun () ->
      let t, cols =
        table [ ("k", Value.TInt); ("c", Value.TInt) ]
          (List.mapi (fun j v -> [ Value.Int (j mod 3); Value.Int v ]) ints)
      in
      (t, List.nth cols 0, List.nth cols 1));
  check_sizes "min_int join keys" db (fun () ->
      let l, lc = table [ ("a", Value.TInt) ] (List.map (fun v -> [ Value.Int v ]) ints) in
      let r, rc = table [ ("b", Value.TInt) ] [ [ Value.Int min_int ]; [ Value.Int 0 ] ] in
      Join { kind = Inner; pred = Cmp (Eq, ColRef (List.hd lc), ColRef (List.hd rc)); left = l; right = r });
  (* NaN equals NaN and -0.0 equals 0.0 as keys; a sum seeded with -0.0
     stays -0.0 *)
  let floats = [ f Float.nan; f (-0.); f 0.; f Float.nan; f 1.; f (-0.); f Float.infinity ] in
  exercise_column "NaN and -0.0" db (fun () ->
      let t, cols =
        table [ ("k", Value.TInt); ("c", Value.TFloat) ]
          (List.mapi (fun j v -> [ Value.Int (j mod 2); v ]) floats)
      in
      (t, List.nth cols 0, List.nth cols 1));
  check_sizes "NaN and -0.0 join keys" db (fun () ->
      let l, lc = table [ ("a", Value.TFloat) ] (List.map (fun v -> [ v ]) floats) in
      let r, rc = table [ ("b", Value.TFloat) ] [ [ f Float.nan ]; [ f 0. ] ] in
      Join { kind = Inner; pred = Cmp (Eq, ColRef (List.hd lc), ColRef (List.hd rc)); left = l; right = r });
  check_sizes "sum of -0.0" db (fun () ->
      let t, cols = table [ ("c", Value.TFloat) ] [ [ f (-0.) ]; [ f (-0.) ] ] in
      ScalarAgg { aggs = [ agg (Sum (ColRef (List.hd cols))) Value.TFloat ]; input = t })

let test_typed_empty_batches () =
  let db = Support.toy_db () in
  let empty () = table [ ("a", Value.TInt); ("b", Value.TStr) ] [] in
  List.iter
    (fun kind ->
      check_sizes "join of empty inputs" db (fun () ->
          let l, lc = empty () and r, rc = empty () in
          Join { kind; pred = Cmp (Eq, ColRef (List.hd lc), ColRef (List.hd rc)); left = l; right = r });
      check_sizes "apply over an empty outer, native inner" db (fun () ->
          let l, lc = empty () in
          let scan, _, _, dept, _ = emp_scan () in
          Apply
            { kind;
              pred = true_;
              left = l;
              right = Select (Cmp (Eq, ColRef dept, ColRef (List.hd lc)), scan)
            }))
    [ Inner; LeftOuter; Semi; Anti ];
  check_sizes "union of empty and non-empty" db (fun () ->
      let l, _ = empty () in
      let r, _ = table [ ("a", Value.TInt); ("b", Value.TStr) ] [ [ Value.Int 1; Value.Str "x" ] ] in
      GroupBy { keys = Op.schema (UnionAll (l, r)); aggs = []; input = UnionAll (l, r) })

(* The typed cache is per generation: an append that changes a
   column's kind (a Float into an Int column) rebuilds it as a boxed
   column, and a scan after the append sees the new row. *)
let test_typed_cache_generation () =
  let db = Support.toy_db () in
  let tb = Storage.Database.table db "bag" in
  let before = Storage.Table.columns tb in
  Alcotest.(check bool) "ints before" true
    (match before.(0) with Storage.Column.Ints _ -> true | _ -> false);
  Alcotest.(check bool) "cached while unchanged" true (before == Storage.Table.columns tb);
  Storage.Table.append tb [| Value.Float 2.; Value.Int 30 |];
  let after = Storage.Table.columns tb in
  Alcotest.(check int) "rebuilt with the appended row" 4 (Storage.Column.length after.(0));
  Alcotest.(check bool) "mixed kinds box" true
    (match after.(0) with Storage.Column.Boxed _ -> true | _ -> false);
  Alcotest.(check bool) "untouched kind stays typed" true
    (match after.(1) with Storage.Column.Ints _ -> true | _ -> false);
  check_sizes "scan and group after an append" db (fun () ->
      let scan, x, _ = bag_scan () in
      GroupBy { keys = [ x ]; aggs = [ agg CountStar Value.TInt ]; input = scan })

(* Batched Apply over a filtered-scan inner (possibly under
   a ScalarAgg), every kind, with the inner's residual reading a
   correlation parameter, through the emp.dept index (probe) and
   through dept.did (no index: hash pass), with and without a Project
   wrapper and an Apply predicate. *)
let test_apply_native_inner () =
  let db = Support.toy_db () in
  let indexed () =
    let outer, _, _, odept, osal = emp_scan () in
    let scan, _, iname, idept, isal = emp_scan () in
    ( outer,
      Select
        ( And (Cmp (Eq, ColRef idept, ColRef odept), Cmp (Ge, ColRef isal, ColRef osal)),
          scan ),
      iname,
      isal,
      osal )
  in
  let hashed () =
    let outer, oeid, _, odept, osal = emp_scan () in
    let did = Col.fresh "did" Value.TInt and dname = Col.fresh "dname" Value.TStr in
    ( outer,
      Select
        ( And (Cmp (Eq, ColRef odept, ColRef did), Cmp (Le, ColRef did, ColRef oeid)),
          TableScan { table = "dept"; cols = [ did; dname ] } ),
      dname,
      did,
      osal )
  in
  List.iter
    (fun (path, mk) ->
      List.iter
        (fun (kname, kind) ->
          let label = Printf.sprintf "%s apply, %s inner" kname path in
          check_sizes (label ^ ", residual reads a parameter") db (fun () ->
              let outer, inner, _, _, _ = mk () in
              Apply { kind; pred = true_; left = outer; right = inner });
          check_sizes (label ^ ", projected") db (fun () ->
              let outer, inner, a, b, osal = mk () in
              Apply
                { kind;
                  pred = true_;
                  left = outer;
                  right =
                    Project
                      ( [ { expr = ColRef a; out = Col.clone a };
                          { expr = Arith (Add, ColRef b, ColRef osal); out = Col.fresh "s" Value.TFloat }
                        ],
                        inner )
                });
          check_sizes (label ^ ", with an Apply predicate") db (fun () ->
              let outer, inner, _, b, osal = mk () in
              Apply
                { kind;
                  pred = Cmp (Ne, ColRef b, Arith (Mul, ColRef osal, Const (Value.Int 0)));
                  left = outer;
                  right = inner
                }))
        apply_kinds)
    [ ("indexed", indexed); ("hashed", hashed) ];
  (* an aggregating inner: one row per binding, aggregated over the
     binding's filtered rows — an empty run gives COUNT 0 and NULL
     elsewhere, as ScalarAgg over no rows does *)
  List.iter
    (fun (path, mk) ->
      List.iter
        (fun (kname, kind) ->
          check_sizes (Printf.sprintf "%s apply, aggregating %s inner" kname path) db (fun () ->
              let outer, inner, a, b, osal = mk () in
              let aggs =
                [ agg CountStar Value.TInt; agg (Count (ColRef a)) Value.TInt;
                  agg (Sum (Arith (Add, ColRef b, ColRef osal))) Value.TFloat;
                  agg (Avg (ColRef b)) Value.TFloat; agg (Min (ColRef a)) Value.TStr;
                  agg (Max (ColRef b)) Value.TFloat ]
              in
              let projs =
                List.map (fun (x : agg) -> { expr = ColRef x.out; out = Col.clone x.out }) aggs
                @ [ { expr = Arith (Mul, ColRef osal, Const (Value.Float 0.5));
                      out = Col.fresh "half" Value.TFloat } ]
              in
              Apply
                { kind;
                  pred = Cmp (Gt, ColRef (List.hd projs).out, Const (Value.Int 0));
                  left = outer;
                  right = Project (projs, ScalarAgg { aggs; input = inner })
                });
          check_sizes (Printf.sprintf "%s apply, bare aggregating %s inner" kname path) db (fun () ->
              let outer, inner, _, b, _ = mk () in
              Apply
                { kind;
                  pred = true_;
                  left = outer;
                  right = ScalarAgg { aggs = [ agg (Sum (ColRef b)) Value.TFloat ]; input = inner }
                }))
        apply_kinds)
    [ ("indexed", indexed); ("hashed", hashed) ];
  (* a nested Apply that reads the outermost parameter: the inner
     Apply's filter reads the outer Apply's parameter, so its bindings
     take that parameter with its own *)
  List.iter
    (fun (kname, kind) ->
      check_sizes (kname ^ " apply, free column from an enclosing scope") db (fun () ->
          let o1, _, _, d1, _ = emp_scan () in
          let did = Col.fresh "did" Value.TInt and dname = Col.fresh "dname" Value.TStr in
          let scan, _, _, d3, _ = emp_scan () in
          Apply
            { kind;
              pred = true_;
              left = o1;
              right =
                Apply
                  { kind = Inner;
                    pred = true_;
                    left = TableScan { table = "dept"; cols = [ did; dname ] };
                    right =
                      Select
                        ( And (Cmp (Eq, ColRef d3, ColRef did), Cmp (Eq, ColRef d3, ColRef d1)),
                          scan )
                  }
            }))
    apply_kinds

(* The corners of the set-oriented Apply: every inner runs once for
   all the bindings of an outer batch.  Inner access paths: the index
   probe (emp.dept is indexed), one hash pass (dept has no index) and
   no equality at all (each binding sees every row). *)
let test_apply_set_oriented () =
  let db = Support.toy_db () in
  let outer () =
    (* NULL bindings, a binding with no department (99), one with no
       employees (3), and repeats *)
    let p, _ = (Col.fresh "p" Value.TInt, ()) in
    let r v = [| v |] in
    ( p,
      ConstTable
        { cols = [ p ];
          rows =
            List.map r
              Value.[ Int 1; Null; Int 2; Int 99; Null; Int 3; Int 1 ]
        } )
  in
  let inners =
    [ ("probed", fun p -> let scan, _, name, dept, sal = emp_scan () in (Select (Cmp (Eq, ColRef dept, ColRef p), scan), name, sal));
      ( "hashed",
        fun p ->
          let did = Col.fresh "did" Value.TInt and dname = Col.fresh "dname" Value.TStr in
          ( Select (Cmp (Eq, ColRef p, ColRef did), TableScan { table = "dept"; cols = [ did; dname ] }),
            dname,
            did ) );
      ("unkeyed", fun p -> let scan, _, name, dept, sal = emp_scan () in (Select (Cmp (Ge, ColRef dept, ColRef p), scan), name, sal))
    ]
  in
  List.iter
    (fun (path, inner) ->
      List.iter
        (fun (kname, kind) ->
          check_sizes (Printf.sprintf "%s apply, %s inner, NULL bindings" kname path) db (fun () ->
              let p, o = outer () in
              let i, _, _ = inner p in
              Apply { kind; pred = true_; left = o; right = i });
          (* an empty binding under COUNT, SUM and AVG: the grouped
             aggregate fills its row in *)
          check_sizes (Printf.sprintf "%s apply, %s inner, empty bindings aggregated" kname path) db
            (fun () ->
              let p, o = outer () in
              let i, a, b = inner p in
              let aggs =
                [ agg CountStar Value.TInt; agg (Count (ColRef a)) Value.TInt;
                  agg (Sum (ColRef b)) Value.TFloat; agg (Avg (ColRef b)) Value.TFloat ]
              in
              Apply { kind; pred = true_; left = o; right = ScalarAgg { aggs; input = i } });
          (* Rownum and GroupBy count per binding *)
          check_sizes (Printf.sprintf "%s apply, %s inner under Rownum" kname path) db (fun () ->
              let p, o = outer () in
              let i, _, _ = inner p in
              Apply { kind; pred = true_; left = o; right = Rownum { out = Col.fresh "rn" Value.TInt; input = i } });
          check_sizes (Printf.sprintf "%s apply, %s inner under GroupBy" kname path) db (fun () ->
              let p, o = outer () in
              let i, a, b = inner p in
              Apply
                { kind;
                  pred = true_;
                  left = o;
                  right =
                    GroupBy
                      { keys = [ a ];
                        aggs = [ agg CountStar Value.TInt; agg (Sum (ColRef b)) Value.TFloat ];
                        input = i
                      }
                }))
        apply_kinds)
    inners;
  (* the Apply's own predicate joins the inner: over an inner that reads
     no outer column (one hash pass on its equality), and over one that
     does; an outer slot with no match is padded, kept or dropped *)
  List.iter
    (fun (kname, kind) ->
      check_sizes (Printf.sprintf "%s apply, predicate over a parameter-free inner" kname) db (fun () ->
          let p, o = outer () in
          let scan, _, _, dept, sal = emp_scan () in
          let pred = And (Cmp (Eq, ColRef dept, ColRef p), Cmp (Gt, ColRef sal, Const (Value.Float 100.))) in
          Apply { kind; pred; left = o; right = scan });
      check_sizes (Printf.sprintf "%s apply, predicate over a correlated inner" kname) db (fun () ->
          let p, o = outer () in
          let scan, eid, _, dept, _ = emp_scan () in
          let right = Select (Cmp (Ge, ColRef dept, ColRef p), scan) in
          Apply { kind; pred = Cmp (Gt, ColRef eid, ColRef p); left = o; right }))
    apply_kinds;
  (* a Max1row whose inner has two rows for binding 1 (two employees in
     department 1): both engines raise; under a CASE or an AND guard
     that never holds it never runs *)
  let max1row p =
    let scan, eid, _, dept, _ = emp_scan () in
    Max1row (Project ([ { expr = ColRef eid; out = Col.clone eid } ], Select (Cmp (Eq, ColRef dept, ColRef p), scan)))
  in
  let raises f = match f () with _ -> None | exception Exec.Executor.Runtime_error m -> Some m in
  List.iter
    (fun bs ->
      let p, o = outer () in
      let plan = Apply { kind = Inner; pred = true_; left = o; right = max1row p } in
      let label = Printf.sprintf "Max1row violation at batch size %d" bs in
      Alcotest.(check (option string)) (label ^ ": row engine") (Some "subquery returned more than one row (Max1row)")
        (raises (fun () -> Support.run_op db plan));
      Alcotest.(check (option string)) (label ^ ": vector engine") (Some "subquery returned more than one row (Max1row)")
        (raises (fun () -> vec ~batch_size:bs db plan)))
    [ 1; 2; 3; 1024 ];
  let guard p = Cmp (Lt, ColRef p, Const (Value.Int 0)) in
  check_sizes "Max1row under a CASE guard" db (fun () ->
      let p, o = outer () in
      Project
        ( [ { expr = Case ([ (guard p, Subquery (max1row p)) ], Some (Const (Value.Int 0))); out = Col.fresh "c" Value.TInt } ],
          o ));
  check_sizes "Max1row under an AND guard" db (fun () ->
      let p, o = outer () in
      Select (And (guard p, Cmp (Gt, Subquery (max1row p), Const (Value.Int 0))), o));
  (* a nested Apply that reads no parameter is shared by every binding:
     the same bag, and one evaluation of it *)
  let shared () =
    let o, _, _, odept, _ = emp_scan () in
    let did = Col.fresh "did" Value.TInt and dname = Col.fresh "dname" Value.TStr in
    let scan, _, _, edept, _ = emp_scan () in
    let nested =
      Apply
        { kind = Semi;
          pred = true_;
          left = TableScan { table = "dept"; cols = [ did; dname ] };
          right = Select (Cmp (Eq, ColRef edept, ColRef did), scan)
        }
    in
    (Apply { kind = Inner; pred = true_; left = o; right = Select (Cmp (Eq, ColRef did, ColRef odept), nested) }, nested)
  in
  check_sizes "shared parameter-free nested Apply" db (fun () -> fst (shared ()));
  (* one row per batch: four outer batches, yet one pass of the nested
     Apply over its three departments *)
  let plan, nested = shared () in
  let m = Exec.Metrics.create plan in
  ignore (Vexec.run ~batch_size:1 (Exec.Executor.make_ctx ~metrics:m db) plan);
  let nd = Option.get (Exec.Metrics.find m nested) in
  Alcotest.(check int) "the nested Apply ran once" 3 nd.Exec.Metrics.apply_batches

let test_apply_set_oriented_sql () =
  (* an empty binding under COUNT, SUM and AVG (customers without
     orders), and NULL bindings from a derived table *)
  check_sql_modes "empty bindings aggregated"
    "select c_custkey, (select count(*) from orders where o_custkey = c_custkey), (select \
     count(o_orderdate) from orders where o_custkey = c_custkey), (select sum(o_totalprice) from \
     orders where o_custkey = c_custkey), (select avg(o_totalprice) from orders where o_custkey \
     = c_custkey) from customer where c_custkey <= 30";
  check_sql_modes "NULL bindings"
    "select x.n, (select count(*) from region where r_regionkey = x.k) from (select n_name as \
     n, case when n_nationkey < 10 then null else n_regionkey end as k from nation) x";
  check_sql_modes "AND-guarded scalar subquery"
    "select c_custkey from customer where c_custkey < 0 and c_acctbal > (select o_totalprice \
     from orders where o_custkey = c_custkey)"

(* Key-less Semi/Anti joins build no pair set: TRUE decides once on
   the right side's emptiness, a residual stops at each left row's
   first match.  Both engines, R empty and not. *)
let test_keyless_semi_anti () =
  let db = Support.toy_db () in
  List.iter
    (fun (kname, kind) ->
      List.iter
        (fun (rname, right_rows) ->
          List.iter
            (fun (pname, pred_of) ->
              let mk () =
                let scan, _, _, _, sal = emp_scan () in
                let r, rc = table [ ("v", Value.TFloat) ] right_rows in
                Join { kind; pred = pred_of sal (List.hd rc); left = scan; right = r }
              in
              check_sizes (Printf.sprintf "key-less %s join, %s, %s" kname pname rname) db mk;
              let expected =
                let nonempty = right_rows <> [] in
                match (pname, kind) with
                | "true", Semi -> if nonempty then 4 else 0
                | "true", _ -> if nonempty then 0 else 4
                | _, Semi -> if nonempty then 2 else 0
                | _ -> if nonempty then 2 else 4
              in
              Alcotest.(check int)
                (Printf.sprintf "key-less %s join, %s, %s: rows" kname pname rname)
                expected
                (List.length (Support.run_op db (mk ()))))
            [ ("true", fun _ _ -> true_); ("residual", fun sal v -> Cmp (Gt, ColRef sal, ColRef v)) ])
        [ ("empty R", []); ("non-empty R", [ [ Value.Float 250. ]; [ Value.Float 1000. ] ]) ])
    [ ("semi", Semi); ("anti", Anti) ]

(* One consistent table view per probe: while one domain appends to
   orders, another runs the report queries that probe o_custkey (q0)
   and scan orders (q6) in vector mode.  Index positions and the typed
   columns they index are read under the table's lock from one
   generation, and a scan's row count is its columns' own, so nothing
   reads past the columns it gathers from; after the appends stop, the
   vector bags equal the row engine's. *)
let test_probe_during_appends () =
  let db = Datagen.Tpch_gen.database ~sf:0.002 () in
  let eng = Engine.create db in
  let queries =
    List.map (Engine.prepare eng)
      [ "select c_custkey from customer where 300000 < (select sum(o_totalprice) from orders \
         where o_custkey = c_custkey)";
        "select o_orderkey, o_totalprice from orders where o_totalprice > (select 1.5 * \
         avg(o2.o_totalprice) from orders o2 where o2.o_custkey = orders.o_custkey)" ]
  in
  let orders = Storage.Database.table db "orders" in
  let pos name = Option.get (Storage.Table.column_position orders name) in
  let rows, n = Storage.Table.rows_view orders in
  let template = Array.init n (fun i -> rows.(i)) in
  let appending = Atomic.make true in
  let appender =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set appending false)
          (fun () ->
            for i = 0 to 19_999 do
              let r = Array.copy template.(i mod n) in
              r.(pos "o_orderkey") <- Value.Int (10_000_000 + i);
              r.(pos "o_totalprice") <- Value.Float 150_000.;
              Storage.Table.append orders r
            done))
  in
  let runs = ref 0 and failure = ref None in
  while Atomic.get appending || !runs = 0 do
    (match List.iter (fun p -> ignore (Engine.execute ~mode:`Vector eng p)) queries with
    | () -> ()
    | exception e -> if !failure = None then failure := Some (Printexc.to_string e));
    incr runs
  done;
  Domain.join appender;
  Alcotest.(check (option string)) "no exception while appending" None !failure;
  Alcotest.(check int) "every append landed" (n + 20_000) (Storage.Table.row_count orders);
  List.iter
    (fun p ->
      Support.check_same_bag "vector bag = row bag after the appends"
        (Engine.execute ~mode:`Row eng p).result.rows
        (Engine.execute ~mode:`Vector eng p).result.rows)
    queries

(* Qgen seed 7 case 265 at SF 0.05: an uncorrelated NOT EXISTS that
   normalizes to Join(anti)[true] over lineitem.  Building every pair
   took 3.3 GB; deciding once on the right side's emptiness needs none. *)
let test_keyless_anti_heap () =
  let db = Datagen.Tpch_gen.database ~sf:0.05 () in
  let eng = Engine.create db in
  let p = Engine.prepare ~use_cache:false eng (Testgen.Qgen.sql_of ~seed:7 ~case:265) in
  let peak = ref 0 in
  let alarm = Gc.create_alarm (fun () -> peak := max !peak (Gc.quick_stat ()).heap_words) in
  let vec = Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) (fun () ->
      (Engine.execute ~mode:`Vector eng p).result.rows)
  in
  peak := max !peak (Gc.quick_stat ()).heap_words;
  Support.check_same_bag "vector bag = row bag" (Engine.execute ~mode:`Row eng p).result.rows vec;
  Alcotest.(check bool)
    (Printf.sprintf "heap stays under 512 MB (peak %d MB)" (!peak * 8 / 1_000_000))
    true
    (!peak * (Sys.word_size / 8) < 512_000_000 / 8)

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

(* An index-probing Apply charges each probe candidate to the row
   budget once, whether the filter is the inner itself or sits under a
   Project.  The outer's 3 rows bind 1, 1, 2: each of the 2 distinct
   bindings is charged as it is bound and probes emp's dept index, for
   2 + 1 candidates, a Project above them produces those 3, and the
   Apply joins 2 + 2 + 1 rows.  A budget one row above the single
   count would trip on a double one. *)
let test_apply_probe_rows_counted_once () =
  let db = Support.toy_db () in
  let p = Col.fresh "p" Value.TInt in
  let outer =
    ConstTable { cols = [ p ]; rows = List.map (fun k -> [| Value.Int k |]) [ 1; 1; 2 ] }
  in
  let probe () =
    let scan, _, name, dept, _ = emp_scan () in
    (Select (Cmp (Eq, ColRef dept, ColRef p), scan), name)
  in
  let plain = fst (probe ()) in
  let projected =
    let sel, name = probe () in
    Project ([ { expr = ColRef name; out = Col.clone name } ], sel)
  in
  List.iter
    (fun (label, right, above) ->
      let single = 3 + 2 + 3 + 5 + above in
      let budget = Exec.Budget.make ~max_rows:(single + 1) () in
      let ctx = Exec.Executor.make_ctx ~budget db in
      let o = Apply { kind = Inner; pred = true_; left = outer; right } in
      (match Vexec.run ctx o with
      | rows -> Alcotest.(check int) (label ^ ": joined rows") 5 (List.length rows)
      | exception Exec.Budget.Exceeded _ -> Alcotest.failf "%s: the row budget tripped" label);
      Alcotest.(check int) (label ^ ": rows processed") single ctx.Exec.Executor.rows_processed)
    [ ("probed inner", plain, 0); ("projected probed inner", projected, 3) ]

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
    Alcotest.test_case "subquery residual not probed" `Quick test_subquery_residual_not_probed;
    Alcotest.test_case "rownum across batches" `Quick test_rownum_across_batches;
    Alcotest.test_case "typed: NULLs in every kind" `Quick test_typed_nulls_every_kind;
    Alcotest.test_case "typed: Int and Float mixed" `Quick test_typed_mixed_int_float;
    Alcotest.test_case "typed: Date key against Int key" `Quick test_typed_date_vs_int;
    Alcotest.test_case "typed: min_int, NaN and -0.0" `Quick test_typed_edge_values;
    Alcotest.test_case "typed: empty batches" `Quick test_typed_empty_batches;
    Alcotest.test_case "typed: cache follows the generation" `Quick test_typed_cache_generation;
    Alcotest.test_case "apply: native inner, every kind" `Quick test_apply_native_inner;
    Alcotest.test_case "apply: set-oriented inners" `Quick test_apply_set_oriented;
    Alcotest.test_case "apply: set-oriented inners, SQL" `Quick test_apply_set_oriented_sql;
    Alcotest.test_case "key-less semi/anti joins" `Quick test_keyless_semi_anti;
    Alcotest.test_case "key-less anti join: s7 c265 at SF 0.05" `Quick test_keyless_anti_heap;
    Alcotest.test_case "apply: probes during appends" `Quick test_probe_during_appends;
    Alcotest.test_case "apply: probe candidates counted once" `Quick
      test_apply_probe_rows_counted_once
  ]
