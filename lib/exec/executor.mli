(** The execution engine: a materializing interpreter over logical
    operator trees.

    It executes every stage of the compilation pipeline — the binder's
    output (scalar/relational mutual recursion, paper Section 2.1),
    Apply trees (correlated nested loops with an index-probe fast path
    when the inner is a filtered indexed scan), and fully decorrelated
    trees (hash joins on equi-conjuncts, hash aggregation,
    SegmentApply).  Being able to run the unoptimized tree makes the
    interpreter the semantic ground truth for every rewrite. *)

open Relalg
open Relalg.Algebra

exception Runtime_error of string

type row = Value.t array

(** Correlation environment: column id -> value. *)
type lookup = int -> Value.t option

val empty_lookup : lookup

type ctx = {
  db : Storage.Database.t;
  mutable seg : (Col.t list * row list) option;
      (** current SegmentApply segment (outer layout, rows) *)
  mutable apply_invocations : int;  (** statistics for benches/tests *)
  mutable rows_processed : int;
  mutable apply_batches : int;  (** vector mode: batched-Apply outer batches *)
  mutable apply_bindings : int;  (** vector mode: distinct parameter sets evaluated *)
  mutable apply_dedup_hits : int;
      (** vector mode: outer rows that reused an evaluated binding *)
  budget : Budget.t option;  (** cooperative resource limits *)
  faults : Faults.t option;  (** fault-injection plan (tests/harness) *)
  started : float;  (** Unix time at context creation, for timeouts *)
  metrics : Metrics.t option;  (** per-operator metrics tree (EXPLAIN ANALYZE) *)
  mutable mnode : Metrics.node option;
      (** metrics node of the operator currently being evaluated *)
  pos_cache : (int, int) Hashtbl.t Metrics.PhysTbl.t;
      (** schema position tables, memoized per plan node *)
  probe_cache : (lookup -> row list) option Metrics.PhysTbl.t;
      (** Apply index fast paths, memoized per inner tree *)
  mutable cse : (string -> row list) option;
      (** resolver for [CseScan] ids, installed by the engine when a
          CSE store is active; plans containing [CseScan] fail without
          one *)
}

(** [make_ctx ?budget ?faults ?metrics db] — a budget makes the
    executor raise {!Budget.Exceeded} mid-query when a limit trips; a
    fault plan makes it raise {!Faults.Injected} per the plan's
    schedule; a metrics tree (built with {!Metrics.create} from the
    plan about to run) makes every operator evaluation attribute
    invocations, rows and wall time to its node. *)
val make_ctx :
  ?budget:Budget.t -> ?faults:Faults.t -> ?metrics:Metrics.t -> Storage.Database.t -> ctx

(** Cooperative budget check against the context's running counters.
    @raise Budget.Exceeded when a limit trips. *)
val check_budget : ctx -> unit

(** Account [n] rows processed and re-check the budget. *)
val account_rows : ctx -> int -> unit

(** Raise Max1row's {!Runtime_error}: its input held more than one row.
    Both engines raise through this one function. *)
val max1row_violation : unit -> 'a

(** The fault-injection kind an operator evaluation ticks. *)
val op_fault_kind : Relalg.Algebra.op -> Faults.op_kind

(** Hashtable over grouping keys (value lists), shared with the
    vectorized engine so both modes group and join identically. *)
module VTbl : Hashtbl.S with type key = Value.t list

(** Aggregate accumulation, shared with the vectorized engine. *)
type acc = {
  mutable count : int;
  mutable sum : Value.t;
  mutable min_ : Value.t;
  mutable max_ : Value.t;
}

val fresh_acc : unit -> acc
val acc_add : acc -> Value.t -> unit
val acc_result : agg_fn -> acc -> Value.t

(** Partition a join predicate into equi-conjuncts (left expr, right
    expr) across the given column sets, plus the residual conjuncts. *)
val split_equi_conjuncts :
  expr -> Col.Set.t -> Col.Set.t -> (expr * expr) list * expr list

(** Scalar evaluation under 3-valued logic; UNKNOWN is [Value.Null].
    Subquery expression nodes recurse into {!run} (mutual recursion). *)
val eval : ctx -> lookup -> expr -> Value.t

(** [true] iff the predicate evaluates to TRUE (not FALSE/UNKNOWN). *)
val eval_pred : ctx -> lookup -> expr -> bool

(** Execute a tree; rows are positional per {!Op.schema}. *)
val run : ctx -> lookup -> op -> row list

(** One evaluation of an Apply inner tree under a binding of its
    correlation parameters (the environment).  Shared with the
    vectorized engine's batched Apply, which calls it once per distinct
    parameter set; accounts budget/counters like one row-mode Apply
    iteration.  Returns the inner rows and whether the memoized index
    fast path served them. *)
val run_inner : ctx -> lookup -> op -> row list * bool

(** The memoized index fast path for an Apply inner tree, when one
    exists: [Some f] probes the index under a binding instead of
    interpreting the tree.  Exposed so the vectorized engine can hoist
    the (hash-consed but still per-call) cache lookup out of its
    per-binding loop, as [exec_apply] does for its per-row loop; callers
    taking this path must account budget/counters per invocation
    themselves. *)
val probe_path : ctx -> op -> (lookup -> row list) option

(** Existence variant of the index fast path, for Semi/Anti Apply under
    a constant-true predicate: [Some f] tests whether any inner row
    matches a binding, stopping at the first candidate that passes the
    residual filter.  Only offered when the residual (and any Project
    wrapper) is subquery-free, so early exit cannot skip a
    data-dependent error the materializing path would raise. *)
val probe_exists_path : ctx -> op -> (lookup -> bool) option

type result = { col_names : string list; rows : row list }

val sort_rows : Col.t list -> (Col.t * bool) list -> row list -> row list
val truncate : int option -> row list -> row list

(** Run, sort, limit and project away hidden order-by columns. *)
val run_query :
  ?budget:Budget.t ->
  ?faults:Faults.t ->
  ?metrics:Metrics.t ->
  Storage.Database.t ->
  op:op ->
  outputs:(string * Col.t) list ->
  order:(Col.t * bool) list ->
  limit:int option ->
  result
