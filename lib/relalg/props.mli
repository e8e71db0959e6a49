(** Catalog environment and predicate analyses — sound
    under-approximations.

    Keys, non-nullable columns, at-most-one-row and FD closure — the
    facts behind identities (7)-(9), the Section 3.2 compensation,
    Max1row elision and column pruning — are derived by {!Fd} alone.
    This module keeps what {!Fd} builds on: the catalog [env] and the
    predicate analyses (verdicts, equalities, constant bindings). *)

open Algebra

(** Base-table keys and nullability come from the environment
    (catalog).  [table_nullable] lists the columns that may contain
    NULL; every other base column is treated as NOT NULL. *)
type env = {
  table_key : string -> string list;
  table_nullable : string -> string list;
}

val default_env : env

(** Column equivalence classes (size ≥ 2): columns pairwise equal on
    every output row in the grouping sense (NULL ≡ NULL), sourced from
    inner-join/select equality conjuncts and pass-through projections.
    The grouping notion matches [Fd.covers_key], so a class may
    soundly extend a grouping set for key-coverage tests. *)
val equiv_classes : op -> Col.Set.t list

(** Extend a column set with every column equivalent to a member. *)
val equate : Col.Set.t list -> Col.Set.t -> Col.Set.t

(** Columns bound to a single non-NULL constant on every output row. *)
val const_bindings : op -> Value.t Col.IdMap.t

(** Verdict of a filter predicate: [Contradiction] = provably never
    satisfied (false or NULL on every row), [Tautology] = provably true
    on every row.  Sound; [Unknown] is the default. *)
type verdict = Contradiction | Tautology | Unknown

(** Conjunct-level analysis with constant folding, three-valued logic,
    IS NULL against provably non-null columns, and numeric interval
    bounds ([x > 5 AND x < 3]).  [consts] supplies column values proven
    constant by the input (see {!const_bindings}). *)
val pred_verdict : ?nonnull:Col.Set.t -> ?consts:Value.t Col.IdMap.t -> expr -> verdict
