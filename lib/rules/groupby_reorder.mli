(** Reordering GroupBy around joins, outerjoins, semijoins and filters
    (paper Sections 3.1 and 3.2).

    Each rule is a partial function matching at the root of a tree; the
    optimizer applies rules at every node.  All rules preserve bag
    semantics; preconditions follow the paper's three-condition test
    (predicate columns / keys / aggregate inputs). *)

open Relalg
open Relalg.Algebra

(** S ⋈p (G_{A,F} R)  =  G_{A ∪ cols(S), F} (S ⋈p R), requiring a key
    on S and no aggregate outputs in p.  Fires for either join input. *)
val pull_above_join : props:(op -> Fd.t) -> op -> op option

(** G_{A,F}(S ⋈p R) = π(S ⋈p (G_{A',F} R)): push the aggregate onto one
    join input.  An R-side predicate column not in A is admitted when
    equated with an S-side expression (it joins the pushed grouping
    keys). *)
val push_below_join : props:(op -> Fd.t) -> op -> op option

(** The Section 3.2 variant for left outerjoins, adding the
    compensating project for count aggregates on padded groups. *)
val push_below_outerjoin : props:(op -> Fd.t) -> op -> op option

(** (G_{A,F} R) ⋉p S = G_{A,F}(R ⋉p S) when p avoids aggregate outputs
    and p's non-S columns are grouping columns; also antijoins. *)
val push_semijoin_below_groupby : op -> op option

val pull_semijoin_above_groupby : op -> op option

(** σp (G_{A,F} R) = G_{A,F} (σp R) when cols(p) ⊆ A. *)
val push_filter_below_groupby : op -> op option

val pull_filter_above_groupby : op -> op option
