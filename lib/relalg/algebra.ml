(* The logical algebra: scalar expressions and relational operators.

   The two syntactic categories are mutually recursive, exactly as in the
   paper's Section 2.1: the binder's output contains scalar operators
   with relational children ([Subquery], [Exists], ...).  Normalization
   (lib/normalize) removes this mutual recursion by introducing [Apply],
   and then removes [Apply] itself where possible.

   All operators are bag-oriented; UNION is UNION ALL and duplicate
   removal is an explicit no-aggregate [GroupBy] (paper, Section 1.1,
   footnote 1). *)

type cmpop = Eq | Ne | Lt | Le | Gt | Ge
type arithop = Add | Sub | Mul | Div | Mod

(* [Value.arith]'s operator for an [arithop]. *)
let arith_op = function Add -> `Add | Sub -> `Sub | Mul -> `Mul | Div -> `Div | Mod -> `Mod

(* Does comparison outcome [n] (negative, zero, positive, as returned by
   [Value.compare]/[Value.cmp_sql]) satisfy [op]? *)
let cmp_holds op n =
  match op with
  | Eq -> n = 0
  | Ne -> n <> 0
  | Lt -> n < 0
  | Le -> n <= 0
  | Gt -> n > 0
  | Ge -> n >= 0

type quant = Any | All

(* Join variants.  [Semi]/[Anti] are the left semijoin / antijoin of the
   paper; [FullOuter] is not needed by any technique in the paper and is
   deliberately omitted. *)
type join_kind = Inner | LeftOuter | Semi | Anti

type agg_fn =
  | CountStar
  | Count of expr  (** count of non-null values *)
  | Sum of expr
  | Min of expr
  | Max of expr
  | Avg of expr

and agg = { fn : agg_fn; out : Col.t }

and expr =
  | ColRef of Col.t
  | Const of Value.t
  | Arith of arithop * expr * expr
  | Cmp of cmpop * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | IsNull of expr
  | Like of expr * string  (** SQL LIKE with %% and _ wildcards *)
  | Case of (expr * expr) list * expr option
      (** CASE WHEN c1 THEN v1 ... [ELSE e] END *)
  (* --- scalar operators with relational children (binder output only,
     removed by Normalize.Apply_intro) --- *)
  | Subquery of op  (** scalar-valued subquery: one column, at most one row *)
  | Exists of op
  | InSub of expr * op
  | QuantCmp of cmpop * quant * expr * op  (** e op ANY/ALL (subquery) *)

and proj = { expr : expr; out : Col.t }

and op =
  | TableScan of { table : string; cols : Col.t list }
      (** one occurrence of a base table; [cols] are fresh per occurrence *)
  | ConstTable of { cols : Col.t list; rows : Value.t array list }
  | Select of expr * op
  | Project of proj list * op
  | Join of { kind : join_kind; pred : expr; left : op; right : op }
  | Apply of { kind : join_kind; pred : expr; left : op; right : op }
      (** [R A⊗(σ_pred E)]: evaluate [right] for each row of [left]
          (free references into [left]'s columns are the correlation),
          filter with [pred], combine per [kind].  [Inner] is the
          paper's A× (cross apply). *)
  | SegmentApply of
      { seg_cols : Col.t list;  (** segmenting columns from [outer] *)
        outer : op;
        inner : op  (** uses [SegmentHole] leaves as the table parameter *)
      }
  | SegmentHole of { cols : Col.t list; src : Col.t list }
      (** placeholder for the table-valued parameter S of SegmentApply;
          [cols] are this occurrence's fresh ids, [src] the outer
          columns they mirror, positionally *)
  | GroupBy of { keys : Col.t list; aggs : agg list; input : op }
      (** vector aggregate G_{A,F}; empty input => empty output *)
  | ScalarAgg of { aggs : agg list; input : op }
      (** scalar aggregate G^1_F; always exactly one output row *)
  | LocalGroupBy of { keys : Col.t list; aggs : agg list; input : op }
      (** partial (local) aggregation; same runtime behaviour as
          GroupBy, distinct operator so that only the LocalGroupBy
          reorderings of Section 3.3 apply to it *)
  | UnionAll of op * op
  | Except of op * op  (** bag difference (EXCEPT ALL) *)
  | Max1row of op
      (** passes rows through; runtime error if input has more than one *)
  | Rownum of { out : Col.t; input : op }
      (** appends a unique integer column: manufactures a key *)
  | CseScan of { id : string; cols : Col.t list; rows_hint : int }
      (** scan of a materialized common subexpression: [id] names an
          entry in the engine's CSE store, [cols] are this occurrence's
          output columns (positionally the store entry's schema),
          [rows_hint] the materialization's estimated cardinality *)

let true_ = Const (Value.Bool true)

let is_true_const = function Const (Value.Bool true) -> true | _ -> false

(* Conjunction that absorbs TRUE, used pervasively by rewrites. *)
let conj a b =
  if is_true_const a then b else if is_true_const b then a else And (a, b)

let conj_list = function
  | [] -> true_
  | e :: rest -> List.fold_left conj e rest

(* Split a predicate into its top-level conjuncts. *)
let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let agg_input_expr = function
  | CountStar -> None
  | Count e | Sum e | Min e | Max e | Avg e -> Some e

let agg_with_input fn e =
  match fn with
  | CountStar -> CountStar
  | Count _ -> Count e
  | Sum _ -> Sum e
  | Min _ -> Min e
  | Max _ -> Max e
  | Avg _ -> Avg e

let agg_name = function
  | CountStar -> "count(*)"
  | Count _ -> "count"
  | Sum _ -> "sum"
  | Min _ -> "min"
  | Max _ -> "max"
  | Avg _ -> "avg"

(* agg(∅): the value a scalar aggregate yields on empty input
   (paper, Section 1.1). *)
let agg_on_empty = function
  | CountStar | Count _ -> Value.Int 0
  | Sum _ | Min _ | Max _ | Avg _ -> Value.Null

let join_kind_name = function
  | Inner -> "inner"
  | LeftOuter -> "leftouter"
  | Semi -> "semi"
  | Anti -> "anti"
