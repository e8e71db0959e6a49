(** Tree cleanup and heuristic predicate pushdown — the always-beneficial
    part of query normalization (paper Section 4). *)

open Relalg.Algebra

(** Fold comparisons/connectives over constants (NULL operands are left
    alone — their 3VL behaviour is not a constant).  Returns the input
    physically when nothing folds. *)
val const_fold : expr -> expr

(** Drop duplicate conjuncts modulo equality symmetry (derived
    predicates must not double-count in selectivity estimation).
    Conjuncts are equal when their structure is, column ids and
    constants exactly; the rest are rebuilt left-associated, and the
    input is returned physically when the rebuild equals it. *)
val dedup_conjuncts : expr -> expr

(** One node of {!cleanup}: the node simplified over its children as
    they stand; the node itself, physically, when nothing applies. *)
val simplify_node : op -> op

(** Single-pass bottom-up cleanup: elide trivial selects/projections,
    merge stacked selects and projections, dedup conjuncts.  Subtrees
    with nothing to clean come back physically unchanged. *)
val cleanup : op -> op

(** Push filter conjuncts towards the tables they constrain (through
    projects, group-bys on grouping columns, and into the join-variant
    sides where the variant permits), then clean up. *)
val simplify : op -> op
