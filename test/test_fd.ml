(* Unit tests for the symbolic plan-property engine (Relalg.Fd):
   closure corner cases — NULL introduction under LeftOuter padding,
   UnionAll weakening, Except preservation, correlation parameters as
   invocation constants — plus interval arithmetic, the runtime
   cross-check, and a golden asserting which bench workloads lose an
   operator under the property-proven rewrites. *)

open Relalg
open Relalg.Algebra

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* two keyed tables: s(sa PK, sb) and r(rc PK, rd) *)
let sa = Col.fresh "sa" Value.TInt
let sb = Col.fresh "sb" Value.TInt
let rc = Col.fresh "rc" Value.TInt
let rd = Col.fresh "rd" Value.TInt

let scan_s = TableScan { table = "s"; cols = [ sa; sb ] }
let scan_r = TableScan { table = "r"; cols = [ rc; rd ] }

(* sb and rd may be NULL; the keys may not *)
let env =
  { Props.table_key = (function "s" -> [ "sa" ] | "r" -> [ "rc" ] | _ -> []);
    table_nullable = (function "s" -> [ "sb" ] | "r" -> [ "rd" ] | _ -> []);
  }

(* r with a NULLABLE key: the TableScan still reports the uniqueness
   fact, but the key columns drop out of nonnull *)
let env_nullable_key =
  { env with
    Props.table_nullable = (function "r" -> [ "rc"; "rd" ] | t -> env.Props.table_nullable t);
  }

let analyze ?(env = env) o = Fd.analyze ~env o

let eq a b = Cmp (Eq, ColRef a, ColRef b)
let s1 c = Col.Set.singleton c
let const_table cols rows = ConstTable { cols; rows }

let t_int i = Value.Int i

(* --- closure and key derivation ---------------------------------------- *)

let test_scan_key () =
  let t = analyze scan_s in
  check "sa is a key" true (Fd.covers_key t (s1 sa));
  check "sb is not" false (Fd.covers_key t (s1 sb));
  let cl = Fd.closure t (s1 sa) in
  check "closure of the key covers the row" true (Col.Set.mem sb cl);
  check "key is non-null" true (Col.Set.mem sa t.Fd.nonnull);
  check "nullable column is not" false (Col.Set.mem sb t.Fd.nonnull)

let test_select_equality_closure () =
  (* sb = sa makes sb a derived key through the FD closure, even though
     sb is not a superset of any declared key *)
  let t = analyze (Select (eq sb sa, scan_s)) in
  check "sb reaches the key through sb=sa" true (Fd.covers_key t (s1 sb));
  (match Fd.cover_chain t (s1 sb) with
  | Some (u, chain) ->
      check "the covered unique is {sa}" true (Col.Set.equal u (s1 sa));
      check "the proof chain is non-empty" true (chain <> [])
  | None -> Alcotest.fail "cover_chain returned None");
  (* the predicate also proves sb non-null on surviving rows *)
  check "sb null-rejected by the equality" true (Col.Set.mem sb t.Fd.nonnull)

let test_select_const_on_key () =
  let t = analyze (Select (Cmp (Eq, ColRef sa, Const (t_int 7)), scan_s)) in
  check "equality on the key pins at most one row" true (Fd.max_one t);
  check "no contradiction" false (Fd.contradiction t)

(* --- equality orientation ------------------------------------------------ *)

(* a correlation parameter equated to the key pins at most one row,
   whichever side of the [=] it is written on *)
let test_select_param_orientation () =
  let o = Col.fresh "outer" Value.TInt in
  List.iter
    (fun (label, p) -> check label true (Fd.max_one (analyze (Select (p, scan_s)))))
    [ ("key = outer", eq sa o); ("outer = key", eq o sa) ]

(* a join predicate pinning the right key to a correlation parameter:
   each left row matches at most one right row, so the left key stays a
   key of the join, in either orientation *)
let test_join_param_orientation () =
  let o = Col.fresh "outer" Value.TInt in
  List.iter
    (fun (label, p) ->
      let t = analyze (Join { kind = Inner; pred = p; left = scan_s; right = scan_r }) in
      check label true (Fd.covers_key t (s1 sa)))
    [ ("rc = outer", eq rc o); ("outer = rc", eq o rc) ]

(* --- LeftOuter padding -------------------------------------------------- *)

let test_leftouter_nulls_right () =
  (* join on the NON-key right column: right rows may repeat, padded
     rows NULL the right side — every right fact must be dropped *)
  let t = analyze (Join { kind = LeftOuter; pred = eq sb rd; left = scan_s; right = scan_r }) in
  check "right key no longer unique" false (Fd.covers_key t (s1 rc));
  check "left key lost too (left rows may multiply)" false (Fd.covers_key t (s1 sa));
  check "right non-null column may now be NULL" false (Col.Set.mem rc t.Fd.nonnull);
  check "left non-null survives" true (Col.Set.mem sa t.Fd.nonnull)

let test_leftouter_pinned_key () =
  (* join pinning the right key: each left row matches at most one
     right row, so the left key survives *)
  let t = analyze (Join { kind = LeftOuter; pred = eq sb rc; left = scan_s; right = scan_r }) in
  check "left key survives a key-pinned LOJ" true (Fd.covers_key t (s1 sa));
  check "right columns still nullable (padding)" false (Col.Set.mem rc t.Fd.nonnull)

let test_leftouter_nullable_right_key () =
  (* the right key is declared nullable: grouping-sense uniqueness of
     the padded output cannot ride on it (NULL ≡ NULL would alias a
     padded row with a NULL-keyed matched row), so the key product is
     dropped even though the scan itself is unique on rc *)
  let t =
    analyze ~env:env_nullable_key
      (Join { kind = LeftOuter; pred = eq sb rd; left = scan_s; right = scan_r })
  in
  check "no product key through a nullable right key" false
    (Fd.covers_key t (Col.Set.of_list [ sa; rc ]))

(* --- UnionAll weakening ------------------------------------------------- *)

let test_unionall_weakens () =
  let x = Col.fresh "x" Value.TInt and y = Col.fresh "y" Value.TInt in
  let l = const_table [ x ] [ [| t_int 1 |]; [| t_int 2 |] ] in
  let r = const_table [ y ] [ [| t_int 3 |]; [| Value.Null |] ] in
  let t = analyze (UnionAll (l, r)) in
  check_int "interval lo adds" 4 t.Fd.card.Fd.lo;
  check "interval hi adds" true (t.Fd.card.Fd.hi = Some 4);
  check "uniqueness does not survive the union" true (t.Fd.uniques = []);
  check "FDs do not survive the union" true (t.Fd.fds = []);
  check "nonnull is positional: a NULL branch poisons it" false
    (Col.Set.mem x t.Fd.nonnull);
  (* both branches non-null => the (left-named) output column is *)
  let r' = const_table [ y ] [ [| t_int 3 |] ] in
  let t' = analyze (UnionAll (l, r')) in
  check "nonnull survives when both branches are" true (Col.Set.mem x t'.Fd.nonnull)

(* --- Except preservation ------------------------------------------------ *)

let test_except_preserves_left () =
  let scan_s2 = TableScan { table = "s"; cols = [ Col.fresh "sa" Value.TInt; Col.fresh "sb" Value.TInt ] } in
  let t = analyze (Except (scan_s, scan_s2)) in
  check "left key survives bag difference" true (Fd.covers_key t (s1 sa));
  check "left nonnull survives" true (Col.Set.mem sa t.Fd.nonnull);
  check_int "lower bound drops to zero" 0 t.Fd.card.Fd.lo

let test_except_interval () =
  let x = Col.fresh "x" Value.TInt in
  let l = const_table [ x ] [ [| t_int 1 |]; [| t_int 2 |]; [| t_int 3 |] ] in
  let r = const_table [ Col.fresh "x" Value.TInt ] [ [| t_int 2 |] ] in
  let t = analyze (Except (l, r)) in
  check_int "lo = left lo - right hi" 2 t.Fd.card.Fd.lo;
  check "hi = left hi" true (t.Fd.card.Fd.hi = Some 3)

(* --- Apply correlation parameters --------------------------------------- *)

let test_apply_correlation_param () =
  (* inside the Apply's right side, rc = sa equates rc to a correlation
     parameter — an invocation constant, pinning one row per binding;
     the left key then survives the Apply *)
  let right = Select (eq rc sa, scan_r) in
  let t = analyze (Apply { kind = Inner; pred = true_; left = scan_s; right }) in
  check "left key survives key-pinned Apply" true (Fd.covers_key t (s1 sa));
  (* the inner's per-invocation FDs must NOT be exported across
     bindings: rc is constant per invocation, not across the output *)
  check "no cross-binding constant for rc" false
    (List.exists
       (fun f -> Col.Set.is_empty f.Fd.det && Col.Set.mem rc f.Fd.dep)
       t.Fd.fds)

(* --- interval arithmetic ------------------------------------------------ *)

let test_max1row_contradiction () =
  let x = Col.fresh "x" Value.TInt in
  let two = const_table [ x ] [ [| t_int 1 |]; [| t_int 2 |] ] in
  let t = analyze (Max1row two) in
  check "Max1row over 2 rows is contradictory" true (Fd.contradiction t);
  let one = const_table [ Col.fresh "x" Value.TInt ] [ [| t_int 1 |] ] in
  let t1 = analyze (Max1row one) in
  check "Max1row over 1 row is fine" false (Fd.contradiction t1);
  check "and provably single-row" true (Fd.max_one t1)

let test_groupby_on_key_interval () =
  let x = Col.fresh "x" Value.TInt in
  let rn = Col.fresh "rn" Value.TInt in
  let three = const_table [ x ] [ [| t_int 1 |]; [| t_int 1 |]; [| t_int 2 |] ] in
  let keyed = Rownum { out = rn; input = three } in
  (* grouping by a key: every row is its own group, interval unchanged *)
  let t = analyze (GroupBy { keys = [ rn ]; aggs = []; input = keyed }) in
  check "card [3,3] preserved when grouping by a key" true
    (t.Fd.card.Fd.lo = 3 && t.Fd.card.Fd.hi = Some 3);
  (* grouping by a non-key: anywhere between 1 group and all rows *)
  let t' = analyze (GroupBy { keys = [ x ]; aggs = []; input = keyed }) in
  check "card [1,3] when grouping by a non-key" true
    (t'.Fd.card.Fd.lo = 1 && t'.Fd.card.Fd.hi = Some 3);
  check "grouping columns become a key" true (Fd.covers_key t' (s1 x))

let test_scalar_agg_interval () =
  let out = Col.fresh "cnt" Value.TInt in
  let t = analyze (ScalarAgg { aggs = [ { fn = CountStar; out } ]; input = scan_s }) in
  check "ScalarAgg is exactly one row" true
    (t.Fd.card.Fd.lo = 1 && t.Fd.card.Fd.hi = Some 1);
  check "COUNT(*) is non-null" true (Col.Set.mem out t.Fd.nonnull)

let test_rownum_manufactures_key () =
  let x = Col.fresh "x" Value.TInt in
  let rn = Col.fresh "rn" Value.TInt in
  let t = analyze (Rownum { out = rn; input = const_table [ x ] [ [| Value.Null |]; [| Value.Null |] ] }) in
  check "rownum column is a key" true (Fd.covers_key t (s1 rn));
  check "rownum column is non-null" true (Col.Set.mem rn t.Fd.nonnull)

(* --- runtime cross-check ------------------------------------------------ *)

let test_check_rows () =
  let t = analyze scan_s in
  let schema = [ sa; sb ] in
  let ok = [ [| t_int 1; t_int 10 |]; [| t_int 2; Value.Null |] ] in
  check "conforming bag passes" true (Fd.check_rows t ~schema ok = []);
  let dup_key = [ [| t_int 1; t_int 10 |]; [| t_int 1; t_int 20 |] ] in
  check "duplicate key caught" true (Fd.check_rows t ~schema dup_key <> []);
  let null_key = [ [| Value.Null; t_int 10 |] ] in
  check "NULL in a non-null column caught" true (Fd.check_rows t ~schema null_key <> []);
  (* interval: a ConstTable's [n,n] bound *)
  let x = Col.fresh "x" Value.TInt in
  let t2 = analyze (const_table [ x ] [ [| t_int 1 |]; [| t_int 2 |] ]) in
  check "cardinality below the interval caught" true
    (Fd.check_rows t2 ~schema:[ x ] [ [| t_int 1 |] ] <> [])

(* --- golden: bench workloads that lose an operator ---------------------- *)

let db = lazy (Datagen.Tpch_gen.database ~sf:0.002 ())

let census o =
  let groupbys = ref 0 and outerjoins = ref 0 in
  let rec walk o =
    (match o with
    | GroupBy _ -> incr groupbys
    | Join { kind = LeftOuter; _ } | Apply { kind = LeftOuter; _ } -> incr outerjoins
    | _ -> ());
    List.iter walk (Op.children o)
  in
  walk o;
  (!groupbys, !outerjoins)

let rewrite_delta sql =
  let eng = Engine.create (Lazy.force db) in
  let before_cfg = { Optimizer.Config.full with property_rewrites = false } in
  let pb = Engine.prepare ~config:before_cfg eng sql in
  let pa = Engine.prepare ~config:Optimizer.Config.full eng sql in
  let eb = Engine.execute eng pb and ea = Engine.execute eng pa in
  Alcotest.(check (list string)) "bags agree across the rewrite"
    (Engine.bag eb.Engine.result.rows) (Engine.bag ea.Engine.result.rows);
  (census pb.Engine.plan, census pa.Engine.plan)

let test_workload_groupby_on_key () =
  (* bench workload "groupby-key": GroupBy on the orders PK collapses *)
  let (gb0, _), (gb1, _) =
    rewrite_delta
      "select o_orderkey, sum(o_totalprice) as t from orders group by o_orderkey \
       order by t desc limit 5"
  in
  check_int "GroupBy present without property rewrites" 1 gb0;
  check_int "GroupBy eliminated by the derived-key rewrite" 0 gb1

let test_workload_unused_lookup_join () =
  (* bench workload "lookup-join": an unreferenced key-unique LEFT
     OUTER JOIN against nation is dropped whole *)
  let (_, oj0), (_, oj1) =
    rewrite_delta
      "select c_custkey, c_name from customer left outer join nation on \
       n_nationkey = c_nationkey order by c_custkey limit 10"
  in
  check_int "outer join present without property rewrites" 1 oj0;
  check_int "outer join pruned by the property rewrite" 0 oj1

let suite =
  [ Alcotest.test_case "scan key and closure" `Quick test_scan_key;
    Alcotest.test_case "select equality extends the closure" `Quick
      test_select_equality_closure;
    Alcotest.test_case "constant on a key pins one row" `Quick test_select_const_on_key;
    Alcotest.test_case "select equality orientation" `Quick test_select_param_orientation;
    Alcotest.test_case "join equality orientation" `Quick test_join_param_orientation;
    Alcotest.test_case "leftouter NULLs the right side" `Quick test_leftouter_nulls_right;
    Alcotest.test_case "leftouter with pinned right key" `Quick test_leftouter_pinned_key;
    Alcotest.test_case "leftouter with nullable right key" `Quick
      test_leftouter_nullable_right_key;
    Alcotest.test_case "unionall weakens facts, adds intervals" `Quick
      test_unionall_weakens;
    Alcotest.test_case "except preserves left facts" `Quick test_except_preserves_left;
    Alcotest.test_case "except interval arithmetic" `Quick test_except_interval;
    Alcotest.test_case "apply correlation params pin per-invocation" `Quick
      test_apply_correlation_param;
    Alcotest.test_case "max1row interval and contradiction" `Quick
      test_max1row_contradiction;
    Alcotest.test_case "groupby-on-key interval" `Quick test_groupby_on_key_interval;
    Alcotest.test_case "scalar agg interval" `Quick test_scalar_agg_interval;
    Alcotest.test_case "rownum manufactures a key" `Quick test_rownum_manufactures_key;
    Alcotest.test_case "check_rows catches violations" `Quick test_check_rows;
    Alcotest.test_case "workload: groupby-on-key loses its GroupBy" `Quick
      test_workload_groupby_on_key;
    Alcotest.test_case "workload: unused lookup join is pruned" `Quick
      test_workload_unused_lookup_join
  ]
