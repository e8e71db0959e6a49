(** Plan linter: a static bottom-up pass over optimized plans, built on
    the derived properties and row-local facts of {!Relalg.Fd}, the
    predicate verdict of {!Relalg.Props} and the column demand of
    {!Normalize.Prune.demand}.  Every finding is a sound consequence of
    the plan's structure, not a heuristic.

    Checks and severities:

    - [cross-type-cmp] (ERROR): a comparison whose operand types can
      never match — FALSE/NULL on every row.  The pipeline never
      produces one, so an ERROR means a pipeline bug; the fuzzer treats
      it as a failure.
    - [contradictory-pred] (WARNING): a filter provably never satisfied.
    - [oj-simplifiable] (WARNING): outerjoins that provably reject NULL
      downstream and could run as inner joins.
    - [redundant-groupby] (WARNING): grouping columns (plus equivalent
      and constant-bound columns) cover a key of the input.
    - [residual-apply] (WARNING when the configuration promises full
      decorrelation, INFO otherwise) and [residual-segment-apply].
    - [tautological-pred], [dead-columns], [max1row-elidable] (INFO). *)

open Relalg
open Relalg.Algebra

type severity = Error | Warning | Info

val severity_rank : severity -> int
val severity_label : severity -> string

type finding = {
  severity : severity;
  code : string;  (** stable kebab-case identifier of the check *)
  node : string;  (** one-line label of the operator it anchors to *)
  detail : string;
}

(** What the optimizer configuration promises about the plan shape. *)
type expectations = {
  no_residual_apply : bool;
  no_residual_segment_apply : bool;
}

(** No shape expectations (residual Apply is INFO, not WARNING). *)
val relaxed : expectations

(** Derive expectations from an optimizer configuration: decorrelation
    without correlated execution promises an Apply-free plan. *)
val of_config : Optimizer.Config.t -> expectations

(** Lint a plan.  [env] supplies catalog keys and nullability.  The
    result is sorted most severe first. *)
val run : ?expect:expectations -> env:Props.env -> op -> finding list

val errors : finding list -> finding list
val finding_to_string : finding -> string

(** Multi-line rendering; ["clean\n"] when there are no findings. *)
val render : finding list -> string

(** One line: ["clean"] or e.g. ["1 WARNING (oj-simplifiable), 2 INFO (dead-columns)"]. *)
val summary : finding list -> string

val to_json : finding list -> string
