(** Cardinality estimation over logical trees.

    Column provenance: a map from column id to (table, column) built by
    walking the tree once (through scans, pass-through projections and
    grouping keys).  Distinct counts come from {!Stats}; selectivities
    use the classic System-R defaults. *)

open Relalg
open Relalg.Algebra

type env = {
  stats : Stats.t;
  origins : (int, string * string) Hashtbl.t;
  mutable hole_card : float;  (** estimated rows of the current segment *)
  props : Props.env;  (** base-table keys/nullability for the property engine *)
  fd_memo : Fd.memo;  (** per-plan memo so interval clamping stays linear *)
}

(** Column provenance of a tree (two passes, so SegmentHole source
    columns defined by a later sibling still resolve). *)
val build_origins : op -> (int, string * string) Hashtbl.t

val make_env : Stats.t -> op -> env

(** Distinct count of a column, when its base-table origin is known. *)
val ndv_of : env -> Col.t -> float option

(** Selectivity of a predicate used as a filter, in [0, 1]. *)
val selectivity : env -> expr -> float

(** Expected group count for grouping columns over [n] input rows. *)
val group_card : env -> Col.t list -> float -> float

(** [fold env f o] walks [o] bottom-up once, estimating each node's
    output rows exactly once, and derives a value per node with
    [f node rows kids], where [kids] are the children's (rows, value)
    pairs in {!Relalg.Op.children} order.  Returns the root's pair.
    The cost model is computed this way, in the same walk as the
    cardinalities it consumes. *)
val fold : env -> (op -> float -> (float * 'a) list -> 'a) -> op -> float * 'a

(** Estimated output rows of a tree ([fold] without a per-node value),
    clamped to the cardinality interval proven by the symbolic property
    engine ({!Relalg.Fd}): the interval is a hard bound, the selectivity
    arithmetic only an estimate. *)
val estimate : env -> op -> float
