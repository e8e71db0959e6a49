(* Removal of mutual recursion between scalar and relational operators
   (paper Section 2.2).

   The binder's tree contains scalar nodes with relational children
   (Subquery, Exists, QuantCmp).  This pass introduces Apply operators
   below the consuming operator so that every subquery is evaluated
   explicitly, and scalar expressions only reference columns:

       e(Q) R   ~~>   e(q) (R A⊗ Q)

   Special cases from Section 2.4:
   - a relational select whose conjunct is an existential subquery
     becomes Apply-semijoin (exists) or Apply-antisemijoin (not
     exists); quantified comparisons likewise, with the comparison as
     the Apply predicate;
   - other subquery utilizations (inside projections, disjunctions,
     CASE...) get a value-producing form: scalar subqueries via
     Apply-outerjoin (+ Max1row when more than one row is possible),
     boolean subqueries via scalar count aggregates;
   - Max1row is elided when keys prove the subquery returns at most one
     row. *)

open Relalg
open Relalg.Algebra

let fresh_agg name fn = { fn; out = Col.fresh name Value.TFloat }

(* Wrap a scalar subquery body in Max1row unless provably <= 1 row. *)
let guard_max1row env (q : op) : op =
  if Fd.max_one (Fd.analyze ~env q) then q else Max1row q

let single_output_col (q : op) : Col.t =
  match Op.schema q with
  | [ c ] -> c
  | _ -> invalid_arg "subquery must produce exactly one column"

(* 3VL helper: [cmp_value op a b] as a value-producing expression. *)
let quant_result_expr op quant (lhs : expr) (qcol : Col.t) rel (transform : op -> op) :
    expr * (op -> op) =
  (* Rewrite e op ANY/ALL (Q) in a value context via two scalar counts
     over the subquery: matches and unknowns. *)
  let cmp = Cmp (op, lhs, ColRef qcol) in
  let cnt_t =
    fresh_agg "cnt_t" (Count (Case ([ (cmp, Const (Value.Int 1)) ], None)))
  in
  let cnt_u =
    fresh_agg "cnt_u" (Count (Case ([ (IsNull cmp, Const (Value.Int 1)) ], None)))
  in
  let agg_op = ScalarAgg { aggs = [ cnt_t; cnt_u ]; input = transform rel } in
  let attach r = Apply { kind = Inner; pred = true_; left = r; right = agg_op } in
  let gt0 c = Cmp (Gt, ColRef c, Const (Value.Int 0)) in
  match quant with
  | Any ->
      ( Case
          ( [ (gt0 cnt_t.out, Const (Value.Bool true));
              (gt0 cnt_u.out, Const Value.Null)
            ],
            Some (Const (Value.Bool false)) ),
        attach )
  | All ->
      (* e op ALL Q: false if a counterexample exists, unknown if any
         comparison is unknown, else true *)
      let ncmp =
        Cmp
          ( (match op with Eq -> Ne | Ne -> Eq | Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt),
            lhs, ColRef qcol )
      in
      let cnt_f =
        fresh_agg "cnt_f" (Count (Case ([ (ncmp, Const (Value.Int 1)) ], None)))
      in
      let agg_op = ScalarAgg { aggs = [ cnt_f; cnt_u ]; input = transform rel } in
      let attach r = Apply { kind = Inner; pred = true_; left = r; right = agg_op } in
      ( Case
          ( [ (gt0 cnt_f.out, Const (Value.Bool false));
              (gt0 cnt_u.out, Const Value.Null)
            ],
            Some (Const (Value.Bool true)) ),
        attach )

(* Does this CASE contain a scalar subquery that could raise (Max1row
   not provably unnecessary)?  If so its evaluation must stay lazy. *)
let case_needs_conditional_execution env (e : expr) : bool =
  let exception Found in
  (* only Subquery nodes can raise Max1row errors (Exists/IN/quantified
     rewrite through counts, which never raise) *)
  let rec visit e =
    match e with
    | Subquery q -> if not (Fd.max_one (Fd.analyze ~env q)) then raise Found
    | Exists q | InSub (_, q) | QuantCmp (_, _, _, q) -> ignore q
    | Arith (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) ->
        visit a;
        visit b
    | Not a | IsNull a | Like (a, _) -> visit a
    | Case (bs, els) ->
        List.iter
          (fun (c, v) ->
            visit c;
            visit v)
          bs;
        Option.iter visit els
    | ColRef _ | Const _ -> ()
  in
  try
    visit e;
    false
  with Found -> true

(* Replace every relational child inside expression [e], attaching the
   needed Apply operators around [rel].  Returns the rewritten
   expression and the new relation. *)
let rec extract_from_expr env (transform : op -> op) (rel : op) (e : expr) : op * expr =
  let recurse = extract_from_expr env transform in
  match e with
  | ColRef _ | Const _ -> (rel, e)
  | Arith (o, a, b) ->
      let rel, a = recurse rel a in
      let rel, b = recurse rel b in
      (rel, Arith (o, a, b))
  | Cmp (o, a, b) ->
      let rel, a = recurse rel a in
      let rel, b = recurse rel b in
      (rel, Cmp (o, a, b))
  | And (a, b) ->
      let rel, a = recurse rel a in
      let rel, b = recurse rel b in
      (rel, And (a, b))
  | Or (a, b) ->
      let rel, a = recurse rel a in
      let rel, b = recurse rel b in
      (rel, Or (a, b))
  | Not a ->
      let rel, a = recurse rel a in
      (rel, Not a)
  | IsNull a ->
      let rel, a = recurse rel a in
      (rel, IsNull a)
  | Like (a, p) ->
      let rel, a = recurse rel a in
      (rel, Like (a, p))
  | Case (_, _) when case_needs_conditional_execution env e ->
      (* Conditional scalar execution (paper Section 2.4): a CASE branch
         containing a subquery that may raise at runtime (Max1row not
         elidable) must not be evaluated eagerly — the branch may be
         guarded by the condition precisely to avoid the error.  We keep
         the mutual recursion for the whole CASE; the executor evaluates
         it lazily, branch by branch.  (The paper uses a "modified
         version of Apply with conditional execution"; lazy scalar
         evaluation is the equivalent in an interpreter, and the paper
         notes this scenario "is very rare in practice".) *)
      (rel, e)
  | Case (branches, els) ->
      (* subqueries in CASE branches that cannot raise are evaluated
         eagerly like any other value context *)
      let rel, branches =
        List.fold_left
          (fun (rel, acc) (c, v) ->
            let rel, c = recurse rel c in
            let rel, v = recurse rel v in
            (rel, (c, v) :: acc))
          (rel, []) branches
      in
      let rel, els =
        match els with
        | None -> (rel, None)
        | Some x ->
            let rel, x = recurse rel x in
            (rel, Some x)
      in
      (rel, Case (List.rev branches, els))
  | Subquery q ->
      let q = transform q in
      let qcol = single_output_col q in
      let guarded = guard_max1row env q in
      ( Apply { kind = LeftOuter; pred = true_; left = rel; right = guarded },
        ColRef qcol )
  | Exists q ->
      (* value context: rewrite through a scalar count (Section 2.4) *)
      let q = transform q in
      let cnt = fresh_agg "cnt" CountStar in
      let agg_op = ScalarAgg { aggs = [ cnt ]; input = q } in
      ( Apply { kind = Inner; pred = true_; left = rel; right = agg_op },
        Cmp (Gt, ColRef cnt.out, Const (Value.Int 0)) )
  | InSub (a, q) -> recurse rel (QuantCmp (Eq, Any, a, q))
  | QuantCmp (op, quant, a, q) ->
      let rel, a = recurse rel a in
      let qcol = single_output_col q in
      let e, attach = quant_result_expr op quant a qcol q transform in
      (attach rel, e)

(* Is this conjunct a direct existential / quantified predicate that can
   become an Apply join variant? *)
type conjunct_form =
  | Plain of expr
  | SemiJoin of op * expr  (** subquery, predicate on (outer, subquery) *)
  | AntiJoin of op * expr

let classify_conjunct (c : expr) : conjunct_form =
  match c with
  | Exists q -> SemiJoin (q, true_)
  | Not (Exists q) -> AntiJoin (q, true_)
  | QuantCmp (op, Any, a, q) when not (Expr.has_subquery a) ->
      SemiJoin (q, Cmp (op, a, ColRef (single_output_col q)))
  | QuantCmp (op, All, a, q) when not (Expr.has_subquery a) ->
      (* e op ALL Q passes iff no row of Q makes the comparison false or
         unknown *)
      let qcol = single_output_col q in
      let ncmp =
        Cmp
          ( (match op with Eq -> Ne | Ne -> Eq | Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt),
            a, ColRef qcol )
      in
      AntiJoin (q, Or (ncmp, Or (IsNull a, IsNull (ColRef qcol))))
  | c -> Plain c

(* The pass. *)
let rec transform env (o : op) : op =
  match o with
  | Select (p, input) ->
      let input = transform env input in
      let conjs = conjuncts p in
      (* fold conjuncts left to right, threading the relation *)
      let rel, plains =
        List.fold_left
          (fun (rel, plains) c ->
            match classify_conjunct c with
            | SemiJoin (q, pred) ->
                (Apply { kind = Semi; pred; left = rel; right = transform env q }, plains)
            | AntiJoin (q, pred) ->
                (Apply { kind = Anti; pred; left = rel; right = transform env q }, plains)
            | Plain c ->
                if Expr.has_subquery c then
                  let rel, c = extract_from_expr env (transform env) rel c in
                  (rel, c :: plains)
                else (rel, c :: plains))
          (input, []) conjs
      in
      (match List.rev plains with
      | [] -> rel
      | ps -> Select (conj_list ps, rel))
  | Project (projs, input) ->
      let input = transform env input in
      let rel, projs =
        List.fold_left
          (fun (rel, acc) pr ->
            if Expr.has_subquery pr.expr then
              let rel, e = extract_from_expr env (transform env) rel pr.expr in
              (rel, { pr with expr = e } :: acc)
            else (rel, pr :: acc))
          (input, []) projs
      in
      Project (List.rev projs, rel)
  | Join { kind = Inner; pred; left; right } when Expr.has_subquery pred ->
      (* evaluate the subquery above the join *)
      transform env (Select (pred, Join { kind = Inner; pred = true_; left; right }))
  | Join { kind; pred; left; right } when Expr.has_subquery pred ->
      (* subquery in an outer/semi/anti join ON clause: evaluate the
         subquery against the join's combined input is not expressible
         without changing join semantics; keep the mutual recursion for
         this rare case (executed by the interpreter directly) *)
      Join { kind; pred; left = transform env left; right = transform env right }
  | GroupBy { keys; aggs; input }
    when List.exists (fun a -> match agg_input_expr a.fn with Some e -> Expr.has_subquery e | None -> false) aggs ->
      (* subquery inside an aggregate argument: evaluate below *)
      let input = transform env input in
      let rel, aggs =
        List.fold_left
          (fun (rel, acc) a ->
            match agg_input_expr a.fn with
            | Some e when Expr.has_subquery e ->
                let rel, e = extract_from_expr env (transform env) rel e in
                (rel, { a with fn = agg_with_input a.fn e } :: acc)
            | _ -> (rel, a :: acc))
          (input, []) aggs
      in
      GroupBy { keys; aggs = List.rev aggs; input = rel }
  | o -> Op.with_children o (List.map (transform env) (Op.children o))
