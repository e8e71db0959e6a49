(* Property tests for the static analyses on scalar expressions: the
   soundness of strictness, null-rejection, constant folding and
   conjunct deduplication is what makes outerjoin simplification and
   identity (9) correct, so these analyses get adversarial random
   testing against the actual evaluator. *)

open QCheck
open Relalg
open Relalg.Algebra

(* three integer columns with fixed ids for the whole suite *)
let c1 = Col.fresh "p1" Value.TInt
let c2 = Col.fresh "p2" Value.TInt
let c3 = Col.fresh "p3" Value.TInt
let all_cols = [ c1; c2; c3 ]

(* type-directed random expressions *)
let rec gen_num depth st : expr =
  if depth = 0 then
    match Gen.int_range 0 4 st with
    | 0 -> ColRef c1
    | 1 -> ColRef c2
    | 2 -> ColRef c3
    | 3 -> Const (Value.Int (Gen.int_range (-5) 5 st))
    | _ -> Const Value.Null
  else
    match Gen.int_range 0 3 st with
    | 0 ->
        let op = Gen.oneofl [ Add; Sub; Mul ] st in
        Arith (op, gen_num (depth - 1) st, gen_num (depth - 1) st)
    | 1 ->
        Case
          ( [ (gen_bool (depth - 1) st, gen_num (depth - 1) st) ],
            if Gen.bool st then Some (gen_num (depth - 1) st) else None )
    | _ -> gen_num 0 st

and gen_bool depth st : expr =
  if depth = 0 then
    match Gen.int_range 0 2 st with
    | 0 -> Cmp (Gen.oneofl [ Eq; Ne; Lt; Le; Gt; Ge ] st, gen_num 0 st, gen_num 0 st)
    | 1 -> IsNull (gen_num 0 st)
    | _ -> Const (Value.Bool (Gen.bool st))
  else
    match Gen.int_range 0 4 st with
    | 0 -> And (gen_bool (depth - 1) st, gen_bool (depth - 1) st)
    | 1 -> Or (gen_bool (depth - 1) st, gen_bool (depth - 1) st)
    | 2 -> Not (gen_bool (depth - 1) st)
    | 3 ->
        Cmp
          ( Gen.oneofl [ Eq; Ne; Lt; Le; Gt; Ge ] st,
            gen_num (depth - 1) st,
            gen_num (depth - 1) st )
    | _ -> IsNull (gen_num (depth - 1) st)

(* a random assignment: each column independently NULL or a small int *)
let gen_assignment st : Value.t array =
  Array.init 3 (fun _ ->
      if Gen.int_range 0 3 st = 0 then Value.Null
      else Value.Int (Gen.int_range (-5) 5 st))

let lookup (a : Value.t array) : Exec.Executor.lookup =
 fun id ->
  if id = c1.Col.id then Some a.(0)
  else if id = c2.Col.id then Some a.(1)
  else if id = c3.Col.id then Some a.(2)
  else None

let dummy_ctx = lazy (Exec.Executor.make_ctx (Support.toy_db ()))

let eval a e = Exec.Executor.eval (Lazy.force dummy_ctx) (lookup a) e

let arb_num = make (fun st -> (gen_num 3 st, gen_assignment st))
let arb_bool = make (fun st -> (gen_bool 3 st, gen_assignment st))

(* 1. strictness: a strict expression on an all-NULL assignment is NULL *)
let prop_strict_sound =
  Test.make ~name:"strict => NULL on all-NULL columns" ~count:800 arb_num
    (fun (e, _) ->
      let all_null = [| Value.Null; Value.Null; Value.Null |] in
      (not (Expr.strict e)) || Value.is_null (eval all_null e))

(* 2. per-column strictness: c in strict_cols e and c NULL => e NULL *)
let prop_strict_cols_sound =
  Test.make ~name:"strict_cols: column NULL => expr NULL" ~count:800 arb_num
    (fun (e, a) ->
      let sc = Expr.strict_cols e in
      List.for_all
        (fun (i, c) ->
          (not (Col.Set.mem c sc))
          || (not (Value.is_null a.(i)))
          || Value.is_null (eval a e))
        [ (0, c1); (1, c2); (2, c3) ])

(* 3. null rejection: a rejected column NULL means the filter is not
   satisfied *)
let prop_null_rejection_sound =
  Test.make ~name:"null_rejected_cols: column NULL => pred not true" ~count:800 arb_bool
    (fun (p, a) ->
      let rejected = Expr.null_rejected_cols p in
      List.for_all
        (fun (i, c) ->
          (not (Col.Set.mem c rejected))
          || (not (Value.is_null a.(i)))
          || eval a p <> Value.Bool true)
        [ (0, c1); (1, c2); (2, c3) ])

(* 4. constant folding preserves evaluation *)
let prop_const_fold_sound =
  Test.make ~name:"const_fold preserves evaluation" ~count:800 arb_bool
    (fun (p, a) ->
      Value.equal (eval a p) (eval a (Normalize.Simplify.const_fold p))
      || (Value.is_null (eval a p) && Value.is_null (eval a (Normalize.Simplify.const_fold p))))

(* 5. conjunct dedup preserves filter semantics (true-ness) *)
let prop_dedup_sound =
  Test.make ~name:"dedup_conjuncts preserves filter truth" ~count:800
    (make (fun st ->
         let n = Gen.int_range 1 4 st in
         let cs = List.init n (fun _ -> gen_bool 2 st) in
         (conj_list (cs @ cs), gen_assignment st)))
    (fun (p, a) ->
      let dd = Normalize.Simplify.dedup_conjuncts p in
      (eval a p = Value.Bool true) = (eval a dd = Value.Bool true))

(* 6. Expr.subst respects evaluation: substituting a column by a
   constant equals evaluating with that binding *)
let prop_subst_sound =
  Test.make ~name:"subst col->const = bind col" ~count:800 arb_num
    (fun (e, a) ->
      let v = a.(0) in
      let substituted = Expr.subst (Col.IdMap.singleton c1.Col.id (Const v)) e in
      let r1 = eval a e in
      let r2 = eval a substituted in
      Value.equal r1 r2 || (Value.is_null r1 && Value.is_null r2))

(* 7. canonicalization: structurally identical trees modulo ids share a
   canonical form; different constants do not *)
let prop_canonical =
  Test.make ~name:"canonical is id-insensitive" ~count:200
    (make (fun st -> gen_bool 2 st))
    (fun p ->
      let mk () =
        let c = Col.fresh "k" Value.TInt in
        Select (Cmp (Gt, ColRef c, Const (Value.Int 0)), Select (p, TableScan { table = "t"; cols = [ c ] }))
      in
      Fingerprint.of_op (mk ()) = Fingerprint.of_op (mk ()))

(* 8. cost estimation folds the property analysis ([Fd.step]) into its
   one bottom-up walk ([Card.fold]); the facts it carries to each node
   must be exactly [Fd.analyze] of that node -- dependencies, keys,
   non-nullable columns, cardinality interval and output columns (which
   must be the node's schema).  Checked on every
   node of the normalized and the chosen plan of the adhoc statements
   (Qgen seed 1, cases 0-47) and of a plan forced to use SegmentApply,
   whose inner the fold walks with its own segment estimate. *)
let fd_equal (a : Fd.t) (b : Fd.t) =
  List.equal
    (fun (x : Fd.fd) (y : Fd.fd) -> Col.Set.equal x.det y.det && Col.Set.equal x.dep y.dep)
    a.fds b.fds
  && List.equal Col.Set.equal a.uniques b.uniques
  && Col.Set.equal a.nonnull b.nonnull
  && a.card = b.card
  && Col.Set.equal a.cols b.cols

let check_fold_props stats (what : string) (plan : op) =
  let env = Optimizer.Card.make_env stats plan in
  let visited = ref 0 in
  ignore
    (Optimizer.Card.fold env
       (fun o _ fd _ ->
         incr visited;
         if not (Col.Set.equal fd.cols (Op.schema_set o)) then
           Alcotest.failf "%s: output columns differ from the schema at %s" what (Pp.label o);
         if not (fd_equal fd (Fd.analyze ~env:env.props o)) then
           Alcotest.failf "%s: fold's properties differ from Fd.analyze at %s:\n  %s\n  %s"
             what (Pp.label o)
             (Fd.summary fd ~schema:(Op.schema o))
             (Fd.summary (Fd.analyze ~env:env.props o) ~schema:(Op.schema o)))
       plan);
  Alcotest.(check int) (what ^ ": every node visited") (Op.count_ops plan) !visited

let test_fold_props_match_analyze () =
  let db = Lazy.force Support.tpch_sf001 in
  let eng = Engine.create db in
  let stats = Optimizer.Stats.create db in
  for case = 0 to 47 do
    let p = Engine.prepare ~use_cache:false eng (Testgen.Qgen.sql_of ~seed:1 ~case) in
    check_fold_props stats (Printf.sprintf "case %d normalized" case) p.stages.normalized;
    check_fold_props stats (Printf.sprintf "case %d chosen" case) p.plan
  done;
  let has_sa = Op.exists_op (function SegmentApply _ -> true | _ -> false) in
  let p =
    Engine.prepare ~use_cache:false ~must:has_sa eng
      "select sum(l_extendedprice) as s from lineitem, part \
       where p_partkey = l_partkey and l_quantity < (select 0.5 * avg(l_quantity) \
       from lineitem l2 where l2.l_partkey = part.p_partkey)"
  in
  Alcotest.(check bool) "segment apply chosen" true (has_sa p.plan);
  check_fold_props stats "segment apply" p.plan

let suite =
  [ Support.qtest prop_strict_sound;
    Support.qtest prop_strict_cols_sound;
    Support.qtest prop_null_rejection_sound;
    Support.qtest prop_const_fold_sound;
    Support.qtest prop_dedup_sound;
    Support.qtest prop_subst_sound;
    Support.qtest prop_canonical;
    Alcotest.test_case "Card.fold carries Fd.analyze" `Quick test_fold_props_match_analyze
  ]
