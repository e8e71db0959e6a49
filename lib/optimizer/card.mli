(** Cardinality estimation over logical trees.

    Column provenance: a map from column id to (table, column) built by
    walking the tree once (through scans, pass-through projections and
    grouping keys).  Distinct counts come from {!Stats}; selectivities
    use the classic System-R defaults. *)

open Relalg
open Relalg.Algebra

type env = {
  stats : Stats.t;
  origins : (string * string) Col.IdTbl.t;
  ndvs : float option Col.IdTbl.t;  (** [ndv_of]'s answers for this plan *)
  mutable hole_card : float;  (** estimated rows of the current segment *)
  props : Props.env;  (** base-table keys/nullability for the property engine *)
  known : (op * Fd.t) list;
      (** properties already derived under [props] for some nodes, found
          by physical identity: {!fold} takes them instead of analysing
          those nodes.  Empty from {!make_env}. *)
}

(** Column provenance of a tree (two passes, so SegmentHole source
    columns defined by a later sibling still resolve). *)
val build_origins : op -> (string * string) Col.IdTbl.t

(** Record the column provenance node [o] adds to [env] once its
    children's is known — for a caller that meets a plan's nodes one at
    a time, bottom-up, such as the search's memo. *)
val note_origins : (string * string) Col.IdTbl.t -> op -> unit

val make_env : Stats.t -> op -> env

(** Distinct count of a column, when its base-table origin is known. *)
val ndv_of : env -> Col.t -> float option

(** Selectivity of a predicate used as a filter, in [0, 1]. *)
val selectivity : env -> expr -> float

(** Expected group count for grouping columns over [n] input rows. *)
val group_card : env -> Col.t list -> float -> float

(** [step env f o kids]: one node of {!fold}, from its children's
    (rows, props, value) triples in {!Relalg.Op.children} order — for a
    caller that builds a tree bottom-up and keeps its subtrees'
    triples, such as join enumeration.  A SegmentApply's inner triple
    must have been derived with [hole_card] set as {!fold} sets it. *)
val step :
  env -> (op -> float -> Fd.t -> (float * Fd.t * 'a) list -> 'a) -> op ->
  (float * Fd.t * 'a) list -> float * Fd.t * 'a

(** [fold env f o] walks [o] bottom-up once.  At each node it derives
    the node's properties with {!Relalg.Fd.step} from the children's
    (or takes them from [env.known]),
    estimates its output rows, clamps the estimate to the proven
    cardinality interval, and derives a value with
    [f node rows props kids], where [kids] are the children's
    (rows, props, value) triples in {!Relalg.Op.children} order.  Returns the
    root's triple.  The cost model is computed this way, in the same walk
    as the cardinalities it consumes. *)
val fold :
  env -> (op -> float -> Fd.t -> (float * Fd.t * 'a) list -> 'a) -> op -> float * Fd.t * 'a

(** Estimated output rows of a tree ([fold] without a per-node value),
    clamped to the cardinality interval proven by the symbolic property
    engine ({!Relalg.Fd}): the interval is a hard bound, the selectivity
    arithmetic only an estimate. *)
val estimate : env -> op -> float
