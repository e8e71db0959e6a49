(** Batch-at-a-time columnar executor over optimized plans.

    Operators pull {!Batch.t} values (full columns plus a selection
    vector) through compiled pipelines, and every operator runs
    natively.  Scalar expressions evaluate column-wise with the row
    interpreter's exact semantics; an operator expression with a
    relational child (scalar subquery, EXISTS, IN, quantified
    comparison) is evaluated row by row through the row interpreter's
    [eval], so its laziness and runtime errors match row mode.  Max1row
    raises the row engine's error on a second row; Rownum numbers rows
    in emission order.  Apply and SegmentApply run as batched nested
    iteration: the outer batch's correlation-parameter tuples are
    deduplicated and the inner plan is evaluated once per distinct
    binding (or rewritten at exec time into one hash-probe pass when
    the inner is a non-indexed filtered scan), then the results are
    scattered back under each variant's bag semantics.  Every plan
    returns the row engine's bag — the row engine remains the semantic
    oracle.

    Budget accounting and fault injection tick per batch per operator;
    metrics record batches produced alongside the row-mode counters, so
    EXPLAIN ANALYZE covers both modes. *)

module Batch = Batch

val default_batch_size : int

(** Execute a plan, returning rows positionally per [Op.schema] —
    interchangeable with [Exec.Executor.run ctx empty_lookup]. *)
val run :
  ?batch_size:int -> Exec.Executor.ctx -> Relalg.Algebra.op -> Exec.Executor.row list
