(** Plan integrity verifier: machine-checked invariants over operator
    trees, so the optimizer can reject an invalid candidate the moment
    a rule emits it instead of shipping wrong answers. *)

open Algebra

type kind =
  | Unresolved_column of Col.t
      (** a reference no child schema nor enclosing binding produces *)
  | Type_clash of Col.t * Col.t
      (** reference vs producing site disagree on type *)
  | Duplicate_column of Col.t  (** one operator outputs an id twice *)
  | Correlated_join of Col.t list
      (** a Join side references the sibling's columns — must be Apply *)
  | Illegal_apply of string
      (** flavor/payload mismatch, e.g. the left side referencing the right *)
  | Union_mismatch of string  (** branch arity or positional type disagreement *)
  | Orphan_hole  (** SegmentHole outside any SegmentApply inner tree *)
  | Hole_src_unbound of Col.t
      (** hole src column not produced by the enclosing SegmentApply's outer *)
  | Segment_col_unbound of Col.t  (** seg_col not in the outer child's schema *)
  | Malformed of string  (** shape errors: const-row arity, hole arity, ... *)
  | Schema_mismatch of string  (** root schema differs from the expected one *)
  | Unsound_rewrite of string
      (** a rule firing whose re-derived precondition does not hold *)

type violation = { kind : kind; node : op }

val kind_to_string : kind -> string

(** One-line summary, for search traces. *)
val violation_summary : violation -> string

(** Full rendering including the offending subtree, for diagnostics. *)
val violation_to_string : violation -> string

(** Structural/semantic invariant check of a whole tree.  With
    [expect_schema], additionally require the root to produce exactly
    that column list (id and type, positionally) — rules must preserve
    the plan's output schema because the executor slices result rows
    positionally.  Returns all violations found, outermost first. *)
val check : ?expect_schema:Col.t list -> op -> violation list

(** The invariants of one node, given its children's output schemas
    and free references in {!Op.children} order, as {!check}'s walk
    derives them; returns the node's own violations, its schema and
    its free references.  A reference no child produces counts as free
    rather than unresolved, and a SegmentHole as bound: only the caller
    knows what encloses the node.  Lets a plan search verify a new
    expression over already-verified inputs without walking them. *)
val check_node :
  op -> (Col.t list * Col.Set.t) list -> violation list * Col.t list * Col.Set.t

(** Re-derive the semantic preconditions of a named rewrite rule on the
    (before, after) pair of one firing — the paper's Section 3.1
    three-condition push test, the Section 3.2 outerjoin compensation,
    and the semijoin/filter commute conditions.  Rules without a
    registered re-check (and shapes a rule does not emit) pass
    vacuously. *)
val check_rewrite : env:Props.env -> rule:string -> before:op -> after:op -> violation list

(** Replay outerjoin→join simplifications: walk the structurally
    identical before/after trees in lockstep, recompute the
    null-rejection context from scratch, and demand every
    LeftOuter→Inner flip be justified by a rejected column of the
    nullable side. *)
val check_oj_simplification : before:op -> after:op -> violation list
