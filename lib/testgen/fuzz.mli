(** Differential fuzzing driver.

    Each case: generate a correlated-subquery query ({!Qgen}), run it
    under the full optimizer and under the correlated-only oracle, and
    compare result bags ({!Engine.check}).  The properties checked are
    the paper's orthogonality claim (every decorrelated plan computes
    the correlated plan's bag) and the robustness contract of this
    codebase (no untyped exception ever escapes the pipeline).

    Under fault injection the differential check is replaced by the
    resilience property of the fault sweep: a fault-injected query
    either agrees with the clean correlated oracle (possibly after
    degrading) or dies with a typed error.

    Every case is identified by its (seed, case) pair; failures shrink
    to a structurally minimal reproducer before reporting. *)

type outcome =
  | Agree  (** bags matched (or, under faults, the contract held) *)
  | Mismatch of string  (** differential disagreement; formatted report *)
  | Skipped of string  (** budget trip / injected fault — no verdict *)
  | Failed of string  (** generator bug, invalid plan, or untyped crash *)

type case_result = {
  seed : int;
  case : int;
  sql : string;
  outcome : outcome;
  minimized : string option;  (** shrunken reproducer, for failures *)
  exec_s : float;  (** the candidate's execution time (0 unless it finished) *)
}

type summary = {
  total : int;
  agreed : int;
  skipped : int;
  failures : case_result list;  (** mismatches, pipeline failures, crashes *)
  exec_s : float;  (** the candidates' total execution time *)
}

type config = {
  seed : int;
  cases : int;  (** run cases 0 .. cases-1 *)
  only_case : int option;  (** replay a single case *)
  budget : Exec.Budget.t option;
  fault : Exec.Faults.spec option;
  shrink : bool;
  exec_mode : Engine.exec_mode;
      (** engine for the candidate side of every differential check;
          [`Vector] turns the sweep into a row-vs-vector harness *)
  candidate : Optimizer.Config.t;
      (** optimizer config for the candidate side; the reference stays
          the correlated-only oracle *)
  property_check : bool;
      (** assert the symbolic property engine's inferred facts (derived
          keys, non-nullability, cardinality intervals) against the
          candidate's actual result bag on every case *)
  cache : bool;
      (** caching-tier contract instead of the differential check:
          every case runs twice against a cache-enabled engine — cold,
          then with perturbed literals so the warm run rebinds the
          cached template — and each run is bag-compared against a
          fresh uncached optimization of the same SQL *)
}

val default_config : seed:int -> cases:int -> config

(** Significant digits for float comparison: plans that join in a
    different order sum floats in a different order, and the fuzzer
    must not report that last-ulp drift as a disagreement. *)
val float_digits : int

(** Classify one SQL string under the differential contract, with the
    candidate's execution time (0 unless it finished). *)
val classify :
  ?budget:Exec.Budget.t ->
  ?mode:Engine.exec_mode ->
  ?candidate:Optimizer.Config.t ->
  ?property_check:bool ->
  Engine.t ->
  string ->
  outcome * float

val is_failure : outcome -> bool

(** Generate, classify and (on failure) shrink one case. *)
val run_case : config -> Engine.t -> case:int -> case_result

val format_case : case_result -> string

(** Run the configured sweep.  [on_case] observes each result as it
    lands (progress reporting); the summary aggregates at the end. *)
val run : ?on_case:(case_result -> unit) -> config -> Engine.t -> summary

val format_summary : summary -> string
