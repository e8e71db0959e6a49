(** Operations over relational operator trees. *)

open Algebra

(** Output schema: the ordered list of columns the operator produces.
    Join/Apply with [Semi]/[Anti] keep the left schema only;
    [SegmentApply] produces outer ++ inner. *)
val schema : op -> Col.t list

val schema_set : op -> Col.Set.t

(** [project_restore cols o]: a pass-through projection of [o] onto
    [cols], in that order.  A rewrite that reorders or widens a
    subtree's columns wraps its result in one to keep the site's
    schema. *)
val project_restore : Col.t list -> op -> op

(** Relational children, left to right. *)
val children : op -> op list

(** Rebuild an operator with new children (same arity).
    @raise Invalid_argument on arity mismatch. *)
val with_children : op -> op list -> op

(** The scalar expressions attached directly to the operator (not those
    of its children): select/join/apply predicates, projections,
    aggregate arguments. *)
val local_exprs : op -> expr list

(** Free (outer) references: columns used by the subtree but not
    produced by it — the paper's correlation.  Scalar subquery children
    contribute their own free references. *)
val free_cols : op -> Col.Set.t

(** [correlated_with inner left]: does [inner] reference columns
    produced by [left]?  The test of identities (1)/(2). *)
val correlated_with : op -> op -> bool

val uses_cols : op -> Col.Set.t -> bool

(** Rename columns throughout the tree (produced and referenced). *)
val rename : Col.t Col.IdMap.t -> op -> op

(** Deep copy with fresh ids for every column produced inside the
    subtree; free references are untouched.  Returns the mapping
    old-column-id -> fresh column.  Needed by the identities that
    duplicate a subexpression — (5), (6), (7) — and by SegmentApply
    introduction. *)
val clone_fresh : op -> op * Col.t Col.IdMap.t

(** Structural isomorphism up to column renaming; on success returns
    the column bijection (first tree's columns -> second's).  Used by
    SegmentApply introduction (paper Section 3.4.1) to detect two
    instances of the same expression. *)
val iso : op -> op -> Col.t Col.IdMap.t option

(** Bottom-up rewrite: [f] sees each node after its children were
    rewritten.  A node whose children all came back physically
    unchanged reaches [f] as the same node, so a rewrite that changes
    nothing returns its input physically. *)
val map_bottom_up : (op -> op) -> op -> op
val exists_op : (op -> bool) -> op -> bool
val count_ops : op -> int

(** The base tables [o] scans, sorted, each once. *)
val tables : op -> string list

(** The index-lookup access path of [Select (pred, TableScan {cols})]
    (paper Section 4; identity (2)'s [R ⋈p T]): the first conjunct of
    [pred] that equates a scan column [c] with a key expression, either
    side, where [key_ok key] holds (default: the key reads no scan
    column) and [indexed c] returns an index.  Returns the index, the
    key and the residual (the other conjuncts).  None when [pred] has a
    subquery: the engines evaluate such a filter row by row. *)
val index_eq :
  cols:Col.t list ->
  indexed:(Col.t -> 'ix option) ->
  ?key_ok:(expr -> bool) ->
  expr ->
  ('ix * expr * expr) option
