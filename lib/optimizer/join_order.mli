(** Join ordering over an isolated join graph (Join Graph Isolation,
    Grust et al.; DPccp, Moerkotte and Neumann).

    At the root of a block of inner joins, selections and projections,
    the block is lifted out as a graph (vertices: the maximal subtrees
    that are not block operators; edges: the conjuncts over two
    vertices and the column-equality closure).  The plan search
    ({!Search}) fills one memo group per connected vertex set from the
    graph's csg-cmp pairs and registers the whole as [join-enumerate]. *)

open Relalg
open Relalg.Algebra

(** [index_apply ~cat kind pred left right]: the join as an Apply whose
    inner is the (filtered, projected) base table [right] with [pred]
    moved in, when an equality conjunct binds an indexed column of the
    table to an expression over [left] — an index probe per outer row
    (paper Section 4). *)
val index_apply : cat:Catalog.t -> join_kind -> expr -> op -> op -> op option

(** A join of a block: an inner join, or the index-lookup Apply
    {!index_apply} makes (identity (2)). *)
val is_join : op -> bool

type graph = {
  vertices : op array;  (** the subtrees, in canonical order *)
  locals : expr list array;  (** each vertex's single-vertex conjuncts *)
  classes : (int * Col.t) list array;
      (** equality classes: (vertex, column) members, by column id *)
  multi : (int * int * expr) list;
      (** conjuncts over two or more vertices: vertex mask, the class of
          a column equality (-1 for any other conjunct), conjunct *)
  nbr : int array;  (** adjacency bitmasks *)
  outs : proj list;  (** the block's output columns over vertex columns *)
}

(** The block rooted at a join, as a graph.  [view] may replace each
    node below the root by an equivalent one before it is classified:
    a plan search passes the member of the node's group that continues
    the block, if any. *)
val isolate : ?view:(op -> op) -> op -> graph

(** Does the node reach an inner join through selections and
    projections of a block? *)
val has_join : op -> bool

(** The predicate joining vertex sets [l] and [r] (bitmasks): every
    conjunct that needs both, and the equalities the closure implies
    between them. *)
val pred_between : graph -> int -> int -> expr

(** Every csg-cmp pair of the graph, each unordered pair once. *)
val ccp_pairs : int array -> (int * int) list

(** What a vertex set applies besides its vertices' own filters: its
    other multi-vertex conjuncts, and its equality classes by column
    id.  Equal for two graphs' sets that denote the same join. *)
val within : graph -> int -> expr list * int list list

val popcount : int -> int

(** Blocks beyond this many vertices keep their written order. *)
val max_vertices : int
