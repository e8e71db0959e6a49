(** Catalog environment and the predicate verdict — a sound
    under-approximation.

    Keys, non-nullable columns, at-most-one-row and FD closure — the
    facts behind identities (7)-(9), the Section 3.2 compensation,
    Max1row elision and column pruning — and the row-local equalities
    and constants the linter reads are derived by {!Fd} alone.  This
    module keeps what {!Fd} builds on: the catalog [env] and the
    predicate verdict. *)

open Algebra

(** Base-table keys and nullability come from the environment
    (catalog).  [table_nullable] lists the columns that may contain
    NULL; every other base column is treated as NOT NULL. *)
type env = {
  table_key : string -> string list;
  table_nullable : string -> string list;
}

val default_env : env

(** Verdict of a filter predicate: [Contradiction] = provably never
    satisfied (false or NULL on every row), [Tautology] = provably true
    on every row.  Sound; [Unknown] is the default. *)
type verdict = Contradiction | Tautology | Unknown

(** Conjunct-level analysis with constant folding, three-valued logic,
    IS NULL against provably non-null columns, and numeric interval
    bounds ([x > 5 AND x < 3]).  [consts] supplies column values proven
    constant by the input (see {!Fd.eqs}). *)
val pred_verdict : ?nonnull:Col.Set.t -> ?consts:Value.t Col.IdMap.t -> expr -> verdict
