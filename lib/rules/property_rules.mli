(** Property-proven rewrites: side conditions derived by the symbolic
    property engine ({!Relalg.Fd}) — FD closure, derived candidate
    keys, and cardinality intervals — rather than syntactic patterns.

    Each rule is a partial function matching at the root of a tree; the
    optimizer applies rules at every node, the verifier re-derives each
    side condition, and the smallscope prover checks bag equivalence.
    A rule reads the properties of the tree it matched through [props]
    ({!Relalg.Fd.analyze} under the catalog's keys, or the same facts
    derived once for the whole plan the search is expanding). *)

open Relalg
open Relalg.Algebra

(** The single-row value of an aggregate, mirroring the executor's
    semantics exactly (including avg's Int-to-Float promotion). *)
val single_row_agg : agg_fn -> expr

(** G_{A,F}(R) = π_{A, F(single row)}(R) when A covers a derived key of
    R: every group is a singleton.  Also eliminates DISTINCT. *)
val eliminate_groupby_on_key : props:(op -> Fd.t) -> op -> op option

(** Max1row(R) = R when R is proven to yield at most one row. *)
val elide_max1row : props:(op -> Fd.t) -> op -> op option

(** R ⋉p S = π_{cols(R)}(R ⋈p S) when p pins a derived key of S. *)
val semijoin_to_inner : props:(op -> Fd.t) -> op -> op option

(** π(R ⟕p S) = π(R) when the projection uses no column of S and S is
    key-unique on the pinned join columns. *)
val prune_unused_outerjoin : props:(op -> Fd.t) -> op -> op option
