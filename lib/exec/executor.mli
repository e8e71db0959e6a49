(** The execution engine: a materializing interpreter over logical
    operator trees.

    It executes every stage of the compilation pipeline — the binder's
    output (scalar/relational mutual recursion, paper Section 2.1),
    Apply trees (correlated nested loops; wherever it sits, a filter
    over a base-table scan whose subquery-free predicate equates an
    indexed column with an expression the scan does not read probes the
    index instead), and fully decorrelated trees (hash joins on
    equi-conjuncts, hash aggregation, SegmentApply).  Being able to run
    the unoptimized tree makes the interpreter the semantic ground truth
    for every rewrite. *)

open Relalg
open Relalg.Algebra

exception Runtime_error of string

type row = Value.t array

(** Correlation environment: column id -> value. *)
type lookup = int -> Value.t option

val empty_lookup : lookup

(** The index-lookup access path of a filtered scan node. *)
type probe

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
  pos_cache : int Col.IdTbl.t Metrics.PhysTbl.t;
      (** schema position tables, memoized per plan node *)
  probe_cache : probe option Metrics.PhysTbl.t;
      (** index-lookup access paths, memoized per filtered-scan node *)
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

(** Execute a tree; rows are positional per {!Op.schema}. *)
val run : ctx -> op -> row list

(** One Apply iteration's accounting (an invocation, a processed row,
    a budget check): the row engine ticks it per outer row, the
    vectorized engine's batched Apply per distinct binding before it
    runs the inner for all of them at once.
    @raise Budget.Exceeded when a limit trips. *)
val tick_binding : ctx -> unit

type result = { col_names : string list; rows : row list }

val sort_rows : Col.t list -> (Col.t * bool) list -> row list -> row list
val truncate : int option -> row list -> row list

