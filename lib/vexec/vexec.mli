(** Batch-at-a-time columnar executor over optimized plans.

    Operators pull {!Batch.t} values (full columns plus a selection
    vector) through compiled pipelines, and every operator runs
    natively.  Scalar expressions evaluate column-wise with the row
    interpreter's exact semantics; an operator expression with a
    relational child (scalar subquery, EXISTS, IN, quantified
    comparison) is evaluated row by row through the row interpreter's
    [eval], so its laziness and runtime errors match row mode.  Max1row
    raises the row engine's error on a second row; Rownum numbers rows
    in emission order.  Columns are typed ({!Storage.Column}); a value
    is boxed only at the result boundary and on the boxed fallback.
    Apply and SegmentApply run as batched nested iteration: the outer
    batch's correlation-parameter tuples are deduplicated and the inner
    plan is evaluated once per distinct binding.  A filtered-scan inner
    ([Project] [ScalarAgg] Select(p, Scan t) with an equality probe)
    runs on typed columns — candidate rows from the probe column's
    index, or one hash-probe pass over the table, then the residual,
    aggregates and projections as column kernels — and any other inner
    through the row engine's parameterized entry point; the inner rows
    are paired back with the outer rows under each variant's bag
    semantics.  Every plan returns the row engine's bag — the row
    engine remains the semantic oracle.

    Budget accounting and fault injection tick per batch per operator;
    metrics record batches produced alongside the row-mode counters, so
    EXPLAIN ANALYZE covers both modes. *)

module Batch = Batch

val default_batch_size : int

(** Execute a plan, returning rows positionally per [Op.schema] —
    interchangeable with [Exec.Executor.run ctx empty_lookup]. *)
val run :
  ?batch_size:int -> Exec.Executor.ctx -> Relalg.Algebra.op -> Exec.Executor.row list
