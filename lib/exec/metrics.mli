(** Per-operator runtime metrics (EXPLAIN ANALYZE).

    A metrics tree mirrors the plan tree; the executor attributes
    invocations, rows in/out, inclusive wall time, Apply fast-path hits
    and hash-build sizes to the node of the operator being evaluated.
    Lookup is by physical identity of the plan node, so the layer is
    exact for the immutable plan the executor runs and costs one
    [match] per operator evaluation when disabled. *)

open Relalg.Algebra

(** Hashtable keyed on physical identity of plan nodes (also used by
    the executor to memoize per-operator schema position tables). *)
module PhysTbl : Hashtbl.S with type key = op

type node = {
  label : string Lazy.t;
      (** operator rendering, [Pp.label]; forced only when rendered *)
  mutable invocations : int;  (** times the operator was evaluated *)
  mutable rows_in : int;  (** cumulative input rows consumed *)
  mutable rows_out : int;  (** cumulative output rows produced *)
  mutable elapsed_s : float;  (** cumulative wall time, inclusive of children *)
  mutable fast_path_hits : int;  (** Apply index-probe uses (inner tree skipped) *)
  mutable hash_build_rows : int;  (** hash-join build rows / aggregation groups *)
  mutable batches : int;  (** vectorized batches produced (vector mode) *)
  mutable apply_batches : int;  (** outer batches processed by batched Apply *)
  mutable apply_bindings : int;  (** distinct correlation-parameter sets evaluated *)
  mutable apply_dedup_hits : int;
      (** outer rows served by an already-evaluated binding *)
  children : node list;
}

type t

(** Build the metrics tree for a plan, including nodes for subquery
    trees embedded in scalar expressions (the bound tree). *)
val create : op -> t

val root : t -> node
val find : t -> op -> node option

(** One completed evaluation of the operator. *)
val record : node -> elapsed_s:float -> rows_out:int -> unit

val add_rows_in : node -> int -> unit
val add_fast_hit : node -> unit
val add_hash_build : node -> int -> unit

(** One vectorized batch produced by the operator. *)
val add_batch : node -> unit

(** One batched-Apply outer batch: [bindings] distinct
    correlation-parameter sets evaluated, [dedup_hits] outer rows that
    reused an already-evaluated binding. *)
val add_apply_batch : node -> bindings:int -> dedup_hits:int -> unit

(** Sum a counter over the whole tree (bench artifacts). *)
val total : (node -> int) -> node -> int

(** rows_out / rows_in, when the node consumed any input. *)
val selectivity : node -> float option

(** Annotated plan, one operator per line.  [times:false] omits
    wall-clock figures (stable output for golden tests). *)
val render : ?times:bool -> node -> string

val to_json : node -> string
