(* Tree cleanup and heuristic predicate pushdown.

   Part of query normalization (Section 4, "Query normalization"):
   simplifications that are always beneficial and need no costing —
   removing trivial operators, merging selects, pushing filter
   conjuncts towards the tables they constrain, and detecting empty
   subexpressions. *)

open Relalg
open Relalg.Algebra

(* --- single-node simplifications ------------------------------------ *)

(* The input's schema is built only for a projection that passes
   columns through unrenamed. *)
let is_identity_project projs input =
  List.for_all (fun p -> match p.expr with ColRef c -> Col.equal p.out c | _ -> false) projs
  &&
  let sch = Op.schema input in
  List.length projs = List.length sch
  && List.for_all2
       (fun p c -> match p.expr with ColRef c' -> Col.equal c' c && Col.equal p.out c | _ -> false)
       projs sch

(* Rebuilds only what folding changed: an expression with nothing to
   fold comes back physically. *)
let rec const_fold (e : expr) : expr =
  match e with
  | And (a, b) -> (
      match const_fold a, const_fold b with
      | Const (Value.Bool true), x | x, Const (Value.Bool true) -> x
      | (Const (Value.Bool false) as f), _ | _, (Const (Value.Bool false) as f) -> f
      | a', b' -> if a' == a && b' == b then e else And (a', b'))
  | Or (a, b) -> (
      match const_fold a, const_fold b with
      | (Const (Value.Bool true) as t), _ | _, (Const (Value.Bool true) as t) -> t
      | Const (Value.Bool false), x | x, Const (Value.Bool false) -> x
      | a', b' -> if a' == a && b' == b then e else Or (a', b'))
  | Not a -> (
      match const_fold a with
      | Const (Value.Bool b) -> Const (Value.Bool (not b))
      | a' -> if a' == a then e else Not a')
  | Cmp (op, a, b) -> (
      match const_fold a, const_fold b with
      | Const x, Const y when not (Value.is_null x || Value.is_null y) ->
          Const (Value.Bool (cmp_holds op (Value.compare x y)))
      | a', b' -> if a' == a && b' == b then e else Cmp (op, a', b'))
  | e -> e

(* Deduplicate conjuncts modulo the symmetry of equality (a=b vs b=a),
   so that redundant derived predicates (from the equality-closure join
   rules) do not double-count in selectivity estimation.  Conjuncts are
   compared by exact structure (column ids, constants bit for bit), with
   [a = b] oriented by [compare]; the first of equal conjuncts is kept.
   The rebuild is left-associated, and when it equals the input the
   input itself is returned. *)
let dedup_conjuncts (p : expr) : expr =
  let norm c =
    match c with
    | Cmp (Eq, a, b) when Stdlib.compare a b > 0 -> Cmp (Eq, b, a)
    | c -> c
  in
  let rec keep seen = function
    | [] -> []
    | c :: rest ->
        let k = norm c in
        if List.exists (fun k' -> Stdlib.compare k k' = 0) seen then keep seen rest
        else c :: keep (k :: seen) rest
  in
  match p with
  | And _ ->
      let rebuilt = conj_list (keep [] (conjuncts p)) in
      if Stdlib.compare rebuilt p = 0 then p else rebuilt
  | _ -> p (* one conjunct: nothing to drop *)

(* Does the projection pass every column aggregation [o] reads (its
   grouping keys, its arguments' columns) through under its own id, and
   compute nothing?  Then the aggregation can read its input directly. *)
let passes_through projs (o : op) =
  let keys, aggs =
    match o with
    | GroupBy { keys; aggs; _ } | LocalGroupBy { keys; aggs; _ } -> (keys, aggs)
    | ScalarAgg { aggs; _ } -> ([], aggs)
    | _ -> ([], [])
  in
  let args = List.filter_map (fun (a : agg) -> agg_input_expr a.fn) aggs in
  List.for_all (fun p -> match p.expr with ColRef _ -> true | _ -> false) projs
  && (not (List.exists Expr.has_subquery args))
  && Col.Set.for_all
       (fun c -> List.exists (fun p -> Col.equal p.out c && p.expr = ColRef c) projs)
       (List.fold_left (fun s e -> Col.Set.union (Expr.cols e) s) (Col.Set.of_list keys) args)

let simplify_node (o : op) : op =
  match o with
  | Select (p, i) -> (
      match const_fold (dedup_conjuncts p) with
      | Const (Value.Bool true) -> i
      | p' -> (
          match i with
          | Select (q, i') -> Select (conj p' q, i')
          | _ -> if p' == p then o else Select (p', i)))
  | Join j when not (is_true_const j.pred) ->
      let pred = dedup_conjuncts j.pred in
      if pred == j.pred then o else Join { j with pred }
  | Apply a when not (is_true_const a.pred) ->
      let pred = dedup_conjuncts a.pred in
      if pred == a.pred then o else Apply { a with pred }
  | Project (projs, i) when is_identity_project projs i -> i
  | ( GroupBy { input = Project (projs, i); _ }
    | LocalGroupBy { input = Project (projs, i); _ }
    | ScalarAgg { input = Project (projs, i); _ } )
    when passes_through projs o ->
      Op.with_children o [ i ]
  | Project (projs, Project (inner, i)) ->
      (* merge project-over-project by substitution *)
      let sub = Expr.subst_of_projs inner in
      Project (List.map (fun p -> { p with expr = Expr.subst sub p.expr }) projs, i)
  | o -> o

(* --- predicate pushdown --------------------------------------------- *)

(* Push the conjuncts of selects down through projects, joins and
   group-bys, as far as their column requirements allow.  Only inner
   join variants accept pushes into the right side; the left (preserved)
   side of an outerjoin accepts pushes. *)
let rec push_select (o : op) : op =
  match o with
  | Select (p, input) ->
      let conjs = List.map const_fold (conjuncts p) in
      push_conjuncts conjs input
  | o -> Op.with_children o (List.map push_select (Op.children o))

and push_conjuncts (conjs : expr list) (input : op) : op =
  match input with
  | Select (q, i) -> push_conjuncts (conjs @ conjuncts q) i
  | Join { kind; pred; left; right } ->
      let lcols = Op.schema_set left and rcols = Op.schema_set right in
      (* split the join's own predicate: side-only conjuncts move into
         the children where the join variant permits —
         Inner: both sides; LeftOuter/Semi: right side always, left side
         only for Semi (an Anti's or LeftOuter's left rows survive a
         false predicate, a filter would drop them) *)
      let jconjs = conjuncts pred in
      let left_only c = Col.Set.subset (Expr.cols c) lcols in
      let right_only c = Col.Set.subset (Expr.cols c) rcols in
      let jp_left, jconjs =
        match kind with
        | Inner | Semi -> List.partition left_only jconjs
        | LeftOuter | Anti -> ([], jconjs)
      in
      let jp_right, jconjs =
        match kind with
        | Inner | LeftOuter | Semi | Anti -> List.partition right_only jconjs
      in
      (* now route the incoming filter conjuncts *)
      let to_left, rest = List.partition left_only conjs in
      let can_push_right = kind = Inner in
      let to_right, stay =
        if can_push_right then List.partition right_only rest else ([], rest)
      in
      let into_pred, stay =
        (* conjuncts spanning both sides fold into an inner join's
           predicate *)
        if kind = Inner then (stay, []) else ([], stay)
      in
      let left = push_conjuncts (to_left @ jp_left) left in
      let right = push_conjuncts (to_right @ jp_right) right in
      let j = Join { kind; pred = conj_list (jconjs @ into_pred); left; right } in
      reselect stay j
  | Project (projs, i) ->
      (* substitute and push through when every referenced output is a
         simple column or the conjunct only uses pass-through columns *)
      let sub = Expr.subst_of_projs projs in
      let pushable, stay =
        List.partition
          (fun c ->
            let c' = Expr.subst sub c in
            Col.Set.subset (Expr.cols c') (Op.schema_set i) && not (Expr.has_subquery c'))
          conjs
      in
      let pushed = List.map (Expr.subst sub) pushable in
      reselect stay (Project (projs, push_conjuncts pushed i))
  | GroupBy { keys; aggs; input = i } ->
      (* a conjunct over grouping columns only filters whole groups:
         push it below *)
      let keyset = Col.Set.of_list keys in
      let pushable, stay =
        List.partition (fun c -> Col.Set.subset (Expr.cols c) keyset) conjs
      in
      reselect stay (GroupBy { keys; aggs; input = push_conjuncts pushable i })
  | Apply { kind; pred; left; right } ->
      (* conjuncts over the left side's columns filter outer rows *)
      let lcols = Op.schema_set left in
      let to_left, stay =
        List.partition (fun c -> Col.Set.subset (Expr.cols c) lcols) conjs
      in
      reselect stay
        (Apply { kind; pred; left = push_conjuncts to_left left; right = push_select right })
  | i -> reselect conjs (Op.with_children i (List.map push_select (Op.children i)))

and reselect conjs o =
  match List.filter (fun c -> not (is_true_const c)) conjs with
  | [] -> o
  | cs -> Select (conj_list cs, o)

(* --- fixpoint driver -------------------------------------------------- *)

let cleanup (o : op) : op = Op.map_bottom_up simplify_node o

let simplify (o : op) : op =
  let o = cleanup o in
  let o = push_select o in
  cleanup o
