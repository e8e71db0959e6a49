(** Column pruning.

    Decorrelation (identities (8)/(9)) groups by ALL columns of the
    outer relation; only a key plus the referenced columns are needed.
    Walks top-down with the set of columns the context requires,
    narrowing grouping keys (a grouping column drops when the kept ones
    functionally determine it) and unreferenced aggregates/projections.
    Does not cross UnionAll/Except (positional operators). *)

open Relalg
open Relalg.Algebra

(** [demand o required]: the columns each child of [o] must produce,
    in {!Op.children} order, when the context reads [required] of
    [o]'s output.  Items of [o] whose output is not required read
    nothing.  The sets may name columns a child does not produce. *)
val demand : op -> Col.Set.t -> Col.Set.t list

val prune : env:Props.env -> Col.Set.t -> op -> op
