(* Tests for the algebra: schemas, free references, keys, cardinality
   bounds, non-nullability, strictness, cloning, isomorphism. *)

open Relalg
open Relalg.Algebra

let mkcol name = Col.fresh name Value.TInt

let scan name cols = TableScan { table = name; cols }

let test_schema_shapes () =
  let a = mkcol "a" and b = mkcol "b" and c = mkcol "c" in
  let t1 = scan "t1" [ a; b ] and t2 = scan "t2" [ c ] in
  let j = Join { kind = Inner; pred = true_; left = t1; right = t2 } in
  Alcotest.(check int) "join schema width" 3 (List.length (Op.schema j));
  let semi = Join { kind = Semi; pred = true_; left = t1; right = t2 } in
  Alcotest.(check int) "semijoin keeps left only" 2 (List.length (Op.schema semi));
  let g = GroupBy { keys = [ a ]; aggs = [ { fn = Sum (ColRef b); out = mkcol "s" } ]; input = t1 } in
  Alcotest.(check int) "groupby schema" 2 (List.length (Op.schema g));
  let sa = ScalarAgg { aggs = [ { fn = CountStar; out = mkcol "n" } ]; input = t1 } in
  Alcotest.(check int) "scalaragg schema" 1 (List.length (Op.schema sa));
  let rn = Rownum { out = mkcol "rn"; input = t1 } in
  Alcotest.(check int) "rownum appends" 3 (List.length (Op.schema rn))

let test_free_cols_correlation () =
  let a = mkcol "a" and b = mkcol "b" and x = mkcol "x" in
  let outer = scan "outer" [ a; b ] in
  let inner = Select (Cmp (Eq, ColRef x, ColRef a), scan "inner" [ x ]) in
  Alcotest.(check bool) "inner references a" true (Op.correlated_with inner outer);
  let uncorr = Select (Cmp (Eq, ColRef x, Const (Value.Int 1)), scan "inner2" [ Col.fresh "x" Value.TInt ]) in
  Alcotest.(check bool) "no correlation" false (Op.correlated_with uncorr outer);
  (* free refs inside a subquery scalar child count too *)
  let e = Subquery inner in
  let sel = Select (Cmp (Lt, Const (Value.Int 0), e), scan "t" [ mkcol "z" ]) in
  Alcotest.(check bool) "free through scalar child" true
    (Col.Set.mem a (Op.free_cols sel))

let env_with_key table key : Props.env =
  { Props.default_env with table_key = (fun t -> if t = table then key else []) }

(* the key/one-row/non-null facts all come from the one property
   engine, [Fd] *)
let covers ?env o cols = Fd.covers_key (Fd.analyze ?env o) cols
let max_one ?env o = Fd.max_one (Fd.analyze ?env o)
let nonnull ?env o = (Fd.analyze ?env o).Fd.nonnull

let test_keys () =
  let a = mkcol "a" and b = mkcol "b" in
  let t = scan "t" [ a; b ] in
  let env = env_with_key "t" [ "a" ] in
  Alcotest.(check bool) "pk is key" true (covers ~env t (Col.Set.singleton a));
  Alcotest.(check bool) "b is not key" false (covers ~env t (Col.Set.singleton b));
  (* groupby keys are a key of its output *)
  let g = GroupBy { keys = [ b ]; aggs = []; input = t } in
  Alcotest.(check bool) "grouping cols key" true (covers ~env g (Col.Set.singleton b));
  (* join multiplies keys *)
  let c = mkcol "c" in
  let u = scan "u" [ c ] in
  let env2 : Props.env =
    { Props.default_env with
      table_key = (function "t" -> [ "a" ] | "u" -> [ "c" ] | _ -> [])
    }
  in
  let j = Join { kind = Inner; pred = true_; left = t; right = u } in
  Alcotest.(check bool) "join key = union" true
    (covers ~env:env2 j (Col.Set.of_list [ a; c ]));
  Alcotest.(check bool) "half not key" false
    (covers ~env:env2 j (Col.Set.singleton a));
  (* rownum manufactures a key *)
  let rn_col = Col.fresh "rn" Value.TInt in
  let rn = Rownum { out = rn_col; input = scan "nokey" [ mkcol "z" ] } in
  Alcotest.(check bool) "rownum key" true (covers rn (Col.Set.singleton rn_col))

let test_max_one_row () =
  let a = mkcol "a" and b = mkcol "b" in
  let t = scan "t" [ a; b ] in
  let env = env_with_key "t" [ "a" ] in
  Alcotest.(check bool) "scan not single" false (max_one ~env t);
  Alcotest.(check bool) "scalar agg single" true
    (max_one ~env (ScalarAgg { aggs = []; input = t }));
  (* equality on the full key with an outer value pins one row *)
  let outer_col = mkcol "o" in
  let sel = Select (Cmp (Eq, ColRef a, ColRef outer_col), t) in
  Alcotest.(check bool) "key equality single" true (max_one ~env sel);
  let sel2 = Select (Cmp (Eq, ColRef b, ColRef outer_col), t) in
  Alcotest.(check bool) "non-key equality not single" false (max_one ~env sel2)

let test_nonnullable () =
  let a = mkcol "a" in
  let t = scan "t" [ a ] in
  Alcotest.(check bool) "base col non-null" true (Col.Set.mem a (nonnull t));
  let b = mkcol "b" in
  let u = scan "u" [ b ] in
  let loj = Join { kind = LeftOuter; pred = true_; left = t; right = u } in
  Alcotest.(check bool) "outerjoin inner side nullable" false
    (Col.Set.mem b (nonnull loj));
  Alcotest.(check bool) "outerjoin outer side non-null" true
    (Col.Set.mem a (nonnull loj));
  let cnt = { fn = CountStar; out = mkcol "n" } in
  let sagg = ScalarAgg { aggs = [ cnt ]; input = t } in
  Alcotest.(check bool) "count non-null" true (Col.Set.mem cnt.out (nonnull sagg));
  let s = { fn = Sum (ColRef a); out = mkcol "s" } in
  let sagg2 = ScalarAgg { aggs = [ s ]; input = t } in
  Alcotest.(check bool) "scalar sum nullable (empty input)" false
    (Col.Set.mem s.out (nonnull sagg2))

(* A SegmentHole's columns are whatever its source columns hold, NULLs
   included: nothing makes them non-null by construction.  (The engine
   that used to answer this question claimed every hole column
   non-null.) *)
let test_segment_hole_nullable () =
  let src = mkcol "src" in
  let h = mkcol "h" in
  let hole = SegmentHole { cols = [ h ]; src = [ src ] } in
  Alcotest.(check bool) "hole column not claimed non-null" false
    (Col.Set.mem h (nonnull hole))

(* SegmentApply pads every non-segment column of its outer input with
   NULL, and the inner side varies by segment: a key of the outer scan
   determines nothing in the output.  (A tree walk that collected
   dependencies from every scan used to derive [okey -> cust] here.) *)
let test_segment_apply_closure () =
  let okey = mkcol "o_orderkey" and cust = mkcol "o_custkey" in
  let orders = scan "orders" [ okey; cust ] in
  let env = env_with_key "orders" [ "o_orderkey" ] in
  let hc = mkcol "hole_cust" in
  let inner =
    ScalarAgg
      { aggs = [ { fn = CountStar; out = mkcol "n" } ];
        input = SegmentHole { cols = [ hc ]; src = [ cust ] }
      }
  in
  let sa = SegmentApply { seg_cols = [ cust ]; outer = orders; inner } in
  Alcotest.(check bool) "outer key does not determine the segment column" false
    (Col.Set.mem cust (Fd.closure (Fd.analyze ~env sa) (Col.Set.singleton okey)))

let test_strictness () =
  let a = mkcol "a" in
  Alcotest.(check bool) "col strict" true (Expr.strict (ColRef a));
  Alcotest.(check bool) "const not strict" false (Expr.strict (Const (Value.Int 1)));
  Alcotest.(check bool) "scaled col strict" true
    (Expr.strict (Arith (Mul, Const (Value.Float 0.2), ColRef a)));
  Alcotest.(check bool) "case not strict" false
    (Expr.strict (Case ([ (IsNull (ColRef a), Const (Value.Int 0)) ], None)));
  Alcotest.(check bool) "is-null not strict" false (Expr.strict (IsNull (ColRef a)));
  let sc = Expr.strict_cols (Arith (Add, ColRef a, Const (Value.Int 1))) in
  Alcotest.(check bool) "strict cols" true (Col.Set.mem a sc)

let test_null_rejection () =
  let a = mkcol "a" and b = mkcol "b" in
  let r p = Expr.null_rejected_cols p in
  Alcotest.(check bool) "comparison rejects" true
    (Col.Set.mem a (r (Cmp (Lt, Const (Value.Int 0), ColRef a))));
  Alcotest.(check bool) "and unions" true
    (let s = r (And (Cmp (Eq, ColRef a, Const (Value.Int 1)), Cmp (Eq, ColRef b, Const (Value.Int 2)))) in
     Col.Set.mem a s && Col.Set.mem b s);
  Alcotest.(check bool) "or intersects" false
    (Col.Set.mem a
       (r (Or (Cmp (Eq, ColRef a, Const (Value.Int 1)), Cmp (Eq, ColRef b, Const (Value.Int 2))))));
  Alcotest.(check bool) "or same col kept" true
    (Col.Set.mem a
       (r (Or (Cmp (Eq, ColRef a, Const (Value.Int 1)), Cmp (Eq, ColRef a, Const (Value.Int 2))))));
  Alcotest.(check bool) "is null does not reject" false
    (Col.Set.mem a (r (IsNull (ColRef a))))

let test_clone_fresh () =
  let a = mkcol "a" in
  let outer_ref = mkcol "outer" in
  let t = Select (Cmp (Eq, ColRef a, ColRef outer_ref), scan "t" [ a ]) in
  let t', m = Op.clone_fresh t in
  (* produced column renamed *)
  let a' = Col.IdMap.find a.Col.id m in
  Alcotest.(check bool) "fresh id" true (a'.Col.id <> a.Col.id);
  Alcotest.(check bool) "clone schema renamed" true
    (List.for_all (fun (c : Col.t) -> c.Col.id <> a.Col.id) (Op.schema t'));
  (* outer reference untouched *)
  Alcotest.(check bool) "outer ref kept" true (Col.Set.mem outer_ref (Op.free_cols t'))

let test_iso () =
  let a = mkcol "a" in
  let t1 = Select (Cmp (Gt, ColRef a, Const (Value.Int 5)), scan "t" [ a ]) in
  let b = mkcol "a2" in
  let t2 = Select (Cmp (Gt, ColRef b, Const (Value.Int 5)), scan "t" [ b ]) in
  (match Op.iso t1 t2 with
  | Some m -> Alcotest.(check bool) "maps a->b" true (Col.equal (Col.IdMap.find a.Col.id m) b)
  | None -> Alcotest.fail "expected isomorphic");
  let t3 = Select (Cmp (Gt, ColRef b, Const (Value.Int 6)), scan "t" [ b ]) in
  Alcotest.(check bool) "different constant" true (Op.iso t1 t3 = None);
  let c = mkcol "c" in
  let t4 = Select (Cmp (Gt, ColRef c, Const (Value.Int 5)), scan "u" [ c ]) in
  Alcotest.(check bool) "different table" true (Op.iso t1 t4 = None)

let test_conjuncts () =
  let a = mkcol "a" in
  let p1 = Cmp (Eq, ColRef a, Const (Value.Int 1)) in
  let p2 = Cmp (Gt, ColRef a, Const (Value.Int 0)) in
  Alcotest.(check int) "split" 2 (List.length (conjuncts (And (p1, p2))));
  Alcotest.(check bool) "conj absorbs true" true (conj true_ p1 = p1);
  Alcotest.(check bool) "conj_list empty" true (is_true_const (conj_list []))

(* [Col.Set] and [Col.IdMap] spell out the standard library's balanced
   trees for column ids: on random ids (duplicates included, lists long
   enough to take [of_list]'s sorted path) every operation must answer
   as [Set.Make (Int)] / [Map.Make (Int)] do on the same ids. *)
module ISet = Set.Make (Int)
module IMap = Map.Make (Int)

let col_of id = { Col.id; name = "c"; ty = Value.TInt }
let ids s = List.map (fun (c : Col.t) -> c.Col.id) (Col.Set.elements s)
let sign n = compare n 0

let prop_col_set_agrees =
  QCheck.Test.make ~count:500 ~name:"Col.Set agrees with Stdlib.Set"
    QCheck.(triple (list_of_size Gen.(0 -- 40) (int_range (-3) 60)) (list_of_size Gen.(0 -- 40) (int_range (-3) 60)) (int_range (-3) 60))
    (fun (xs, ys, k) ->
      let a = Col.Set.of_list (List.map col_of xs) in
      let b = List.fold_left (fun s y -> Col.Set.add (col_of y) s) Col.Set.empty ys in
      let b = Col.Set.remove (col_of k) b in
      let sa = ISet.of_list xs and sb = ISet.remove k (ISet.of_list ys) in
      let c = col_of k in
      ids a = ISet.elements sa
      && ids b = ISet.elements sb
      && ids (Col.Set.union a b) = ISet.elements (ISet.union sa sb)
      && ids (Col.Set.inter a b) = ISet.elements (ISet.inter sa sb)
      && ids (Col.Set.diff a b) = ISet.elements (ISet.diff sa sb)
      && ids (Col.Set.filter (fun (c : Col.t) -> c.Col.id mod 2 = 0) a)
         = ISet.elements (ISet.filter (fun i -> i mod 2 = 0) sa)
      && Col.Set.subset a b = ISet.subset sa sb
      && Col.Set.subset (Col.Set.inter a b) a
      && Col.Set.disjoint a b = ISet.disjoint sa sb
      && Col.Set.equal a b = ISet.equal sa sb
      && Col.Set.equal (Col.Set.union a b) (Col.Set.union b a)
      && sign (Col.Set.compare a b) = sign (ISet.compare sa sb)
      && Col.Set.mem c a = ISet.mem k sa
      && Col.Set.cardinal a = ISet.cardinal sa
      && Col.Set.is_empty a = ISet.is_empty sa
      && Option.map (fun (c : Col.t) -> c.Col.id) (Col.Set.choose_opt a) = ISet.min_elt_opt sa
      && Col.Set.fold (fun (c : Col.t) acc -> c.Col.id :: acc) a [] = ISet.fold List.cons sa []
      && Col.Set.exists (fun (c : Col.t) -> c.Col.id = k) a = ISet.exists (( = ) k) sa
      && Col.Set.for_all (fun (c : Col.t) -> c.Col.id > k) a = ISet.for_all (fun i -> i > k) sa)

let prop_id_map_agrees =
  QCheck.Test.make ~count:500 ~name:"Col.IdMap agrees with Stdlib.Map"
    QCheck.(pair (list_of_size Gen.(0 -- 40) (pair (int_range 0 50) small_int)) (list_of_size Gen.(0 -- 40) (pair (int_range 0 50) small_int)))
    (fun (xs, ys) ->
      let build add empty = List.fold_left (fun m (k, v) -> add k v m) empty in
      let a = build Col.IdMap.add Col.IdMap.empty xs and b = build Col.IdMap.add Col.IdMap.empty ys in
      let ma = build IMap.add IMap.empty xs and mb = build IMap.add IMap.empty ys in
      let bindings m = Col.IdMap.fold (fun k v acc -> (k, v) :: acc) m [] in
      let sbindings m = IMap.fold (fun k v acc -> (k, v) :: acc) m [] in
      let last _ _ y = Some y and drop_odd _ x y = if (x + y) mod 2 = 0 then Some (x - y) else None in
      bindings a = sbindings ma
      && bindings (Col.IdMap.union last a b) = sbindings (IMap.union last ma mb)
      && bindings (Col.IdMap.union drop_odd a b) = sbindings (IMap.union drop_odd ma mb)
      && bindings (Col.IdMap.filter (fun k v -> (k + v) mod 3 = 0) a)
         = sbindings (IMap.filter (fun k v -> (k + v) mod 3 = 0) ma)
      && List.for_all
           (fun k ->
             Col.IdMap.find_opt k a = IMap.find_opt k ma
             && Col.IdMap.mem k a = IMap.mem k ma
             && (match Col.IdMap.find k a with v -> Some v | exception Not_found -> None)
                = IMap.find_opt k ma)
           (List.init 52 Fun.id)
      && Col.IdMap.is_empty a = IMap.is_empty ma)

let suite =
  [ Alcotest.test_case "schema shapes" `Quick test_schema_shapes;
    Alcotest.test_case "free cols / correlation" `Quick test_free_cols_correlation;
    Alcotest.test_case "key derivation" `Quick test_keys;
    Alcotest.test_case "max one row" `Quick test_max_one_row;
    Alcotest.test_case "nonnullable" `Quick test_nonnullable;
    Alcotest.test_case "segment hole nullable" `Quick test_segment_hole_nullable;
    Alcotest.test_case "segment apply closure" `Quick test_segment_apply_closure;
    Alcotest.test_case "strictness" `Quick test_strictness;
    Alcotest.test_case "null rejection" `Quick test_null_rejection;
    Alcotest.test_case "clone fresh" `Quick test_clone_fresh;
    Alcotest.test_case "isomorphism" `Quick test_iso;
    Alcotest.test_case "conjuncts" `Quick test_conjuncts;
    Support.qtest prop_col_set_agrees;
    Support.qtest prop_id_map_agrees
  ]
