(** Batch-at-a-time columnar executor over optimized plans.

    Operators pull {!Batch.t} values (full columns plus a selection
    vector) through compiled pipelines, and every operator runs
    natively on typed columns ({!Storage.Column}; a value is boxed only
    at the result boundary and on the boxed fallback), with the row
    interpreter's exact semantics and runtime errors.  Apply and
    SegmentApply run as batched nested iteration: per outer batch the
    distinct correlation-parameter tuples are the bindings, and the
    inner plan runs once for all of them, set-oriented (an index probe
    for all their keys, a hash pass, per-binding grouping and
    aggregation); a subquery inside an expression is an Apply over the
    rows that reach it, as lazy under CASE, AND and OR as the row
    engine.  Every plan returns the row engine's bag — the row engine
    remains the semantic oracle.

    Budget accounting and fault injection tick per batch per operator;
    metrics record batches produced alongside the row-mode counters, so
    EXPLAIN ANALYZE covers both modes. *)

module Batch = Batch

val default_batch_size : int

(** Execute a plan, returning rows positionally per [Op.schema] —
    interchangeable with [Exec.Executor.run ctx]. *)
val run :
  ?batch_size:int -> Exec.Executor.ctx -> Relalg.Algebra.op -> Exec.Executor.row list
