(** Cost model, in abstract work units (roughly: rows touched).

    Mirrors the executor's strategy selection: joins with equi-conjuncts
    run as hash joins, other joins as nested loops; Apply runs the inner
    expression once per outer row, except when the inner is a filtered
    base-table scan with an index on an equality column — then it
    costs an index probe per outer row. *)

open Relalg
open Relalg.Algebra

(** Per-row work-unit constants used by the formulas. *)

val touch : float
val hash_build : float
val probe_cost : float

(** Does the predicate contain an equi conjunct usable by a hash join
    between the two column sets? *)
val has_equi : expr -> Col.Set.t -> Col.Set.t -> bool

(** The root's (rows, properties, cost) triple, computed in the same
    bottom-up walk ({!Card.fold}) as the cardinalities the cost uses. *)
val fold : Card.env -> Catalog.t -> op -> float * Fd.t * float

(** One node of {!fold}, from its children's triples ({!Card.step}). *)
val step :
  Card.env -> Catalog.t -> op -> (float * Fd.t * float) list -> float * Fd.t * float

(** The cost component of {!fold}. *)
val cost : Card.env -> Catalog.t -> op -> float

(** Convenience: build the environment from statistics and cost. *)
val of_plan : Stats.t -> op -> float
