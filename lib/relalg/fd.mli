(** Symbolic plan-property engine.

    Bottom-up inference of functional dependencies (with transitive
    closure), derived candidate keys, non-nullable columns, and
    per-node cardinality intervals over an operator tree.  It is the
    only engine for these facts: every consumer of keys,
    non-nullability, at-most-one-row or FD closure asks it.  All facts
    are sound under-approximations in the grouping sense of equality
    (NULL ≡ NULL), the notion the executor's hash tables use — so
    every inferred property can be asserted against an actual result
    bag with {!check_rows}. *)

open Algebra

(** Cardinality interval; [hi = None] means unbounded. *)
type interval = { lo : int; hi : int option }

(** A functional dependency [det -> dep] over output rows.  An empty
    determinant encodes columns constant across the output.  [key] is a
    hash of the two sets' ids, equal for equal FDs. *)
type fd = private { det : Col.Set.t; dep : Col.Set.t; key : int }

(** [fd det dep] is [det -> dep]. *)
val fd : Col.Set.t -> Col.Set.t -> fd

type t = {
  fds : fd list;  (** dependencies, possibly through ghost columns *)
  uniques : Col.Set.t list;
      (** strict uniqueness facts; [Col.Set.empty] = at most one row *)
  nonnull : Col.Set.t;  (** columns never NULL in the output *)
  card : interval;
  cols : Col.Set.t;
      (** the output columns, built from the children's, so the
          analysis never re-walks a subtree for its schema *)
}

(** [step ~env o kids]: the properties of [o]'s output from its
    children's, [kids] in {!Op.children} order.  [env] supplies
    base-table keys and nullability (see {!Props.env}).  A consumer
    that walks a whole plan bottom-up (cost estimation's [Card.fold],
    the linter, EXPLAIN) folds [step] in that walk, so each node is
    analysed once.
    @raise Invalid_argument when [kids] does not match [o]'s arity. *)
val step : env:Props.env -> op -> t list -> t

(** Infer the properties of an operator's output: the bottom-up fold
    of {!step} over the subtree, each node analysed once. *)
val analyze : ?env:Props.env -> op -> t

(** The properties of every node of the tree, from one fold: pairs of
    a node (physically, as it occurs in the tree) and what {!analyze}
    gives for it; the root comes first. *)
val analyze_nodes : env:Props.env -> op -> (op * t) list

(** FD closure of a column set. *)
val closure : t -> Col.Set.t -> Col.Set.t

(** Is [cols] a derived key — does its FD closure cover some
    uniqueness fact?  [cols] need not contain a key: a set that
    determines one suffices. *)
val covers_key : t -> Col.Set.t -> bool

(** The uniqueness fact covered by [cols] plus the FD chain proving
    it, for rendering diagnostics. *)
val cover_chain : t -> Col.Set.t -> (Col.Set.t * fd list) option

(** Provably at most one output row. *)
val max_one : t -> bool

(** [lo > hi]: the plan cannot execute successfully. *)
val contradiction : t -> bool

(** Minimal derived candidate keys restricted to [schema], smallest
    first (display; capped). *)
val derived_keys : t -> schema:Col.t list -> Col.Set.t list

(** Row-local facts, folded apart from {!step} so that the search never
    builds them: column pairs equal on every output row in the grouping
    sense (NULL ≡ NULL), and columns bound to one non-NULL constant.
    Sourced from equality conjuncts of inner join/apply/select
    predicates, pass-through projections and constant items.  Unlike
    the FDs, they hold through an Apply's inner side.  A pair or
    binding may name columns no longer in the schema. *)
type eqs = { equal : (Col.t * Col.t) list; consts : Value.t Col.IdMap.t }

(** [eq_step o kids]: [o]'s row-local facts from its children's, [kids]
    in {!Op.children} order.
    @raise Invalid_argument when [kids] does not match [o]'s arity. *)
val eq_step : op -> eqs list -> eqs

(** Assert the inferred properties against an actual result bag of
    full-width rows in [schema] order.  Returns human-readable
    violations; empty = all checkable properties held. *)
val check_rows : t -> schema:Col.t list -> Value.t array list -> string list

(** {!check_rows} for the row-local equalities and constants. *)
val check_eqs : eqs -> schema:Col.t list -> Value.t array list -> string list

(** [pinned_right lset rset conjs]: the columns of [rset] pinned by an
    equality conjunct — equated to a column of [lset] or to an
    expression free of both sides (a constant).  If these cover a key
    of the right input, each left row matches at most one right
    row. *)
val pinned_right : Col.Set.t -> Col.Set.t -> expr list -> Col.Set.t

(** One-line rendering for EXPLAIN. *)
val summary : t -> schema:Col.t list -> string

val interval_to_string : interval -> string
val cols_to_string : Col.Set.t -> string
val fd_to_string : fd -> string
