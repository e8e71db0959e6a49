(** Join ordering over an isolated join graph (Join Graph Isolation,
    Grust et al.; DPccp, Moerkotte and Neumann).

    At the root of a block of inner joins, selections and projections,
    the block is lifted out as a graph (vertices: the maximal subtrees
    that are not block operators; edges: the conjuncts over two
    vertices and the column-equality closure) and its orders are
    enumerated by dynamic programming over connected subgraphs, costed
    with the search's own cost model.  The search registers {!rule} as
    [join-enumerate]. *)

open Relalg.Algebra

(** [index_apply ~cat kind pred left right]: the join as an Apply whose
    inner is the (filtered, projected) base table [right] with [pred]
    moved in, when an equality conjunct binds an indexed column of the
    table to an expression over [left] — an index probe per outer row
    (paper Section 4). *)
val index_apply : cat:Catalog.t -> join_kind -> expr -> op -> op -> op option

(** The joins of a plan that lie inside a block rooted at another join
    above them, physically. *)
val interior_joins : op -> op list

(** The [join-enumerate] rule.  At the root join of a block, when
    [reorder]: the block's cheapest plan, the plans that estimate fewer
    rows at a higher cost, and, when a vertex is an aggregate, the
    cheapest plan of every top-level split; each keeps the block's
    output columns.  A block already enumerated in this instance's
    lifetime (one search) yields only its cheapest plan, none when the
    site is a plan it yielded.  At any other join, when [with_apply],
    the join as an index-lookup Apply ({!index_apply}).  [interior]
    tells the joins inside a block apart (they yield nothing);
    [card_env] gives the cardinality environment a block is costed
    under.  Each application of the labelled arguments makes a rule
    with its own memo: make one per search. *)
val rule :
  cat:Catalog.t ->
  reorder:bool ->
  with_apply:bool ->
  card_env:(op -> Card.env) ->
  interior:(op -> bool) ->
  op ->
  op list
