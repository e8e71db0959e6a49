(** The query engine facade: parse → bind → normalize → cost-based
    optimization → execution (the compilation pipeline of the paper's
    Section 4). *)

open Relalg

(** Typed pipeline errors (see {!Errors.t}); the checked entry points
    below return them instead of raising. *)
module Errors = Errors

type t

val create : Storage.Database.t -> t

(** {2 Durability}

    An engine can be backed by a {!Storage.Durable} store: mutations
    are journaled to a write-ahead log before they apply, and
    {!snapshot} writes a checksummed full-state anchor.  [open_db]
    runs crash recovery (newest valid snapshot, WAL replay up to the
    first torn record, declared-index rebuild) before serving. *)

(** Open a durable engine rooted at [dir].  [io_env] routes storage
    I/O through the fault-injection layer (chaos harness only).
    @raise Errors.Error with phase [Storage] when the on-disk state
    cannot be restored to an exact committed prefix. *)
val open_db : ?io_env:Storage.Io_faults.env -> dir:string -> Catalog.t -> t

val database : t -> Storage.Database.t

(** The durable backing, when opened with {!open_db}. *)
val store : t -> Storage.Durable.t option

(** Recovery report from {!open_db}; [None] for in-memory engines. *)
val recovery : t -> Storage.Durable.recovery option

(** Replace a table's contents.  Durable engines journal (write +
    fsync) before applying; declared indexes are maintained. *)
val load_table : t -> string -> Relalg.Value.t array list -> unit

(** Append one row; same durability contract as {!load_table}. *)
val append_row : t -> string -> Relalg.Value.t array -> unit

(** Write a snapshot of the current state and rotate the WAL; returns
    the new epoch.
    @raise Errors.Error with phase [Storage] on in-memory engines. *)
val snapshot : t -> int

val close_store : t -> unit

type prepared = {
  sql : string;
  bound : Sqlfront.Binder.bound;
  stages : Normalize.stages;  (** normalization pipeline snapshots *)
  plan : Algebra.op;  (** the chosen plan *)
  plan_cost : float;
  seed_cost : float;
  explored : int;  (** alternatives considered by the search *)
  config : Optimizer.Config.t;
  trace : Optimizer.Search.trace option;  (** rule firings, when requested *)
  quarantined : (string * string) list;
      (** rules the verifier disabled during the search (rule, violation) *)
  lint : Analysis.Lint.finding list;
      (** static findings on the chosen plan, most severe first *)
  cache : [ `Hit | `Miss | `Stale ] option;
      (** plan-cache outcome; [None] when the statement bypassed the
          cache (cache disabled, [use_cache:false], or a non-default
          prepare such as [must]/[record_trace]) *)
}

(** Compile a SQL string.  [config] selects the optimizer technology
    level (default {!Optimizer.Config.full}); [must] restricts the
    chosen plan (see {!Optimizer.Search.optimize}); [record_trace]
    keeps the per-round rule-firing trace of the search.

    When the engine's caching tier is enabled ({!enable_cache}) and
    [use_cache] is [true] (the default), the statement is normalized
    to a parameterized canonical form and looked up in the plan cache:
    a hit skips parse-to-search and rebinds the cached template's
    parameter slots with this statement's literals.  Cached templates
    were verified at insert, so verification is skipped on hits (the
    skip is counted in {!cache_stats}).

    The {!Relalg.Verify} integrity checker runs at three points: on
    the normalized plan, across the outerjoin-simplification step, and
    on the final chosen plan (against the normalized schema).  Each rule-emitted search candidate is also
    verified (see {!Optimizer.Search.optimize}).  A failure raises a
    typed {!Errors.t} with phase [Invalid_plan] — recoverable, so
    [query_resilient] degrades to the correlated fallback plan instead
    of executing a broken tree.
    @raise Sqlfront.Parser.Parse_error / Sqlfront.Binder.Bind_error *)
val prepare :
  ?config:Optimizer.Config.t ->
  ?must:(Algebra.op -> bool) ->
  ?record_trace:bool ->
  ?use_cache:bool ->
  t ->
  string ->
  prepared

(** {2 Caching tier}

    An engine can carry a shared caching tier: a parameterized plan
    cache (canonical form → optimized template, generation-vector
    invalidation, LRU + byte budget, single-flight computation) and a
    CSE store of materialized common subexpressions served through the
    [CseScan] access path.  The CSE store keeps its rows in a second
    cache of the same kind, keyed by entry id, so they get the same
    invalidation, eviction and single flight. *)

(** Switch the caching tier on.  [plan_bytes] (default 8 MiB) budgets
    the plan cache, [cse_bytes] (default 64 MiB) the materialized
    rows; in either, an entry larger than the whole budget is returned
    but not kept.  Idempotent: calling it again keeps the existing
    caches. *)
val enable_cache : ?plan_bytes:int -> ?cse_bytes:int -> t -> unit

val cache_enabled : t -> bool

type cache_stats = {
  plan_hits : int;
  plan_misses : int;
  plan_invalidations : int;  (** entries dropped because a table generation moved *)
  plan_evictions : int;  (** entries dropped by the byte budget *)
  plan_single_flight_waits : int;  (** lookups served by a concurrent compute *)
  plan_entries : int;
  plan_bytes : int;
  verify_skips : int;  (** verifier runs skipped on plan-cache hits *)
  cse_hits : int;  (** reads served by kept rows or by a concurrent materialization *)
  cse_materializations : int;  (** subplan runs: misses plus invalidations *)
  cse_invalidations : int;  (** rows re-materialized because a table generation moved *)
  cse_evictions : int;  (** rows dropped by the byte budget; the id stays *)
  cse_entries : int;  (** interned ids, kept or evicted *)
  cse_bytes : int;  (** size of the rows kept *)
}

(** [None] until {!enable_cache}. *)
val cache_stats : t -> cache_stats option

type execution = {
  result : Exec.Executor.result;
  apply_invocations : int;  (** correlated inner evaluations performed *)
  rows_processed : int;
  bridge_crossings : int;
      (** always 0.  Vector mode once handed some subtrees to the row
          interpreter and counted them here; every operator now runs
          natively, but the field stays because benchmark ledgers
          still report it. *)
  apply_batches : int;  (** vector mode: batched-Apply outer batches *)
  apply_bindings : int;  (** vector mode: distinct correlation bindings evaluated *)
  apply_dedup_hits : int;  (** vector mode: outer rows that reused a binding *)
  elapsed_s : float;
  metrics : Exec.Metrics.node option;  (** per-operator tree, when collected *)
}

(** Execution engine selector: [`Row] is the materializing row
    interpreter (the semantic oracle), [`Vector] the batch-at-a-time
    columnar engine of {!Vexec}, which runs every operator natively.
    Both produce the same bags on every plan and raise the same
    runtime errors. *)
type exec_mode = [ `Row | `Vector ]

val exec_mode_name : exec_mode -> string

(** [collect_metrics] attributes invocations, rows and wall time to a
    per-operator metrics tree returned in {!execution.metrics};
    [mode] (default [`Row]) selects the execution engine.
    [property_check] asserts every property the symbolic engine
    ({!Relalg.Fd}) inferred for the plan — derived keys,
    non-nullability, FDs, the cardinality interval, the row-local
    equalities and constants — against the actual result bag before
    ORDER BY / LIMIT / narrowing, and the equalities and constants
    also against each closed subtree's rows, run on their own by the
    row engine; a violation raises a typed [Invalid_plan] error (it is
    a soundness bug, not a data problem).
    @raise Exec.Executor.Runtime_error for Max1row violations.
    @raise Exec.Budget.Exceeded when a budget limit trips.
    @raise Exec.Faults.Injected under an armed fault plan. *)
val execute :
  ?budget:Exec.Budget.t ->
  ?faults:Exec.Faults.t ->
  ?collect_metrics:bool ->
  ?property_check:bool ->
  ?mode:exec_mode ->
  t ->
  prepared ->
  execution

(** [prepare] + [execute]. *)
val query :
  ?config:Optimizer.Config.t ->
  ?budget:Exec.Budget.t ->
  ?faults:Exec.Faults.t ->
  ?mode:exec_mode ->
  ?use_cache:bool ->
  t ->
  string ->
  Exec.Executor.result

(** {2 Multi-query optimization} *)

type batch_item = {
  item_sql : string;
  item_prepared : prepared;
  item_execution : execution;
}

type batch = {
  items : batch_item list;  (** one per input statement, same order *)
  cse_count : int;  (** common subexpressions selected for this batch *)
  cse_substitutions : int;  (** [CseScan] leaves planted across the batch *)
  batch_elapsed_s : float;
}

(** Optimize and execute a workload jointly.  All statements are
    prepared (through the plan cache when enabled), closed subtrees
    shared across the batch are tallied by structural fingerprint, and
    the ones whose greedy benefit — occurrences × (subplan cost −
    scan cost) − materialization cost — is positive are materialized
    once in the CSE store and replaced by [CseScan] leaves everywhere
    they occur.  Materializations run before any statement, so
    execution order within the batch is free.  Without an enabled
    cache (or with [use_cache:false]) this degenerates to sequential
    prepare + execute. *)
val query_many :
  ?config:Optimizer.Config.t ->
  ?budget:Exec.Budget.t ->
  ?faults:Exec.Faults.t ->
  ?mode:exec_mode ->
  ?use_cache:bool ->
  t ->
  string list ->
  batch

(** {2 Checked entry points}

    Same pipeline, but every failure the pipeline vocabulary knows
    about (lex/parse/bind/normalize/plan/runtime/budget/fault) comes
    back as a structured {!Errors.t} instead of an exception. *)

val query_checked :
  ?config:Optimizer.Config.t ->
  ?budget:Exec.Budget.t ->
  ?faults:Exec.Faults.t ->
  t ->
  string ->
  (Exec.Executor.result, Errors.t) result

(** {2 Graceful degradation}

    The correlated (Apply-as-written) plan is a built-in semantic twin
    of every optimized plan; when the optimized plan fails recoverably
    (runtime error, budget trip, injected fault, normalize/plan bug)
    the same SQL is retried under [fallback]. *)

type resilient = {
  execution : execution;
  served_by : string;  (** "config/engine" that produced the result *)
  degraded : bool;  (** true when the fallback path served *)
  primary_error : Errors.t option;  (** why the primary path failed *)
}

(** [mode] (default [`Row]) selects the engine for the primary path
    only; the fallback always runs the row engine — the semantic
    oracle — so degradation steps down both the plan and the engine.
    @raise Errors.Error when the primary failure is unrecoverable or
    the fallback fails too. *)
val query_resilient :
  ?config:Optimizer.Config.t ->
  ?fallback:Optimizer.Config.t ->
  ?budget:Exec.Budget.t ->
  ?faults:Exec.Faults.t ->
  ?mode:exec_mode ->
  t ->
  string ->
  resilient

val query_resilient_checked :
  ?config:Optimizer.Config.t ->
  ?fallback:Optimizer.Config.t ->
  ?budget:Exec.Budget.t ->
  ?faults:Exec.Faults.t ->
  ?mode:exec_mode ->
  t ->
  string ->
  (resilient, Errors.t) result

(** {2 Differential checking} *)

(** A result as a multiset: each row rendered with {!Relalg.Value.to_string}
    ('|'-separated), the renderings sorted.  Two results are the same bag
    iff their [bag]s are equal.  [float_digits] rounds floats to that many
    significant digits first (see {!check}); omitted = exact. *)
val bag : ?float_digits:int -> Exec.Executor.row list -> string list

type check_report = {
  check_sql : string;
  candidate : string;  (** config name of the plan under test *)
  reference : string;  (** config name of the oracle *)
  agree : bool;  (** bag-equality of the two result sets *)
  candidate_rows : int;
  candidate_exec_s : float;  (** the candidate plan's execution time *)
  reference_rows : int;
  only_candidate : string list;  (** sample rows missing from the reference (≤ 5) *)
  only_reference : string list;  (** sample rows missing from the candidate (≤ 5) *)
  lint_errors : string list;
      (** rendered ERROR-severity lint findings on the candidate plan *)
}

(** Run the same SQL under [candidate] (default full) and [reference]
    (default correlated-only) and compare result bags.

    [float_digits] rounds floats to that many significant digits before
    comparing (differently-ordered plans sum floats in different orders;
    bit-exact comparison would report the last-ulp drift as a
    disagreement).  Omitted = exact comparison.

    [mode] selects the engine for the candidate side only; the
    reference always runs row-at-a-time.  With the same config on both
    sides, [~mode:`Vector] is the row-vs-vector differential harness.

    [property_check] additionally asserts the symbolic engine's
    inferred properties against the candidate's result bag (see
    {!execute}). *)
val check :
  ?candidate:Optimizer.Config.t ->
  ?reference:Optimizer.Config.t ->
  ?budget:Exec.Budget.t ->
  ?float_digits:int ->
  ?property_check:bool ->
  ?mode:exec_mode ->
  t ->
  string ->
  check_report

val format_check_report : check_report -> string

(** Per-node property annotations (same tree shape as the plan
    rendering): cardinality interval, derived keys, FD count and
    non-nullable columns per operator, as inferred by {!Relalg.Fd}. *)
val plan_properties : env:Props.env -> Algebra.op -> string

(** Normalized tree, chosen plan, costs and subquery class.
    [properties] (default true) appends the per-node property
    section. *)
val explain : ?config:Optimizer.Config.t -> ?properties:bool -> t -> string -> string

(** EXPLAIN ANALYZE: execute the chosen plan with per-operator metrics
    and render the annotated plan, execution counters and the
    optimizer's rule-firing trace.  [times:false] omits wall-clock
    figures (stable output for golden tests); [properties] (default
    true) appends the per-node property section. *)
val explain_analyze :
  ?config:Optimizer.Config.t ->
  ?budget:Exec.Budget.t ->
  ?times:bool ->
  ?properties:bool ->
  ?mode:exec_mode ->
  t ->
  string ->
  string

(** Machine-readable EXPLAIN as a JSON object: plan, costs, search
    trace, per-node properties (unless [properties:false], which emits
    [null]), and (with [analyze]) execution counters plus the
    per-operator metrics tree. *)
val explain_json :
  ?config:Optimizer.Config.t ->
  ?budget:Exec.Budget.t ->
  ?analyze:bool ->
  ?properties:bool ->
  ?mode:exec_mode ->
  t ->
  string ->
  string

(** Every pipeline stage (the paper's Figures 2/3/5 for the query). *)
val explain_stages : ?config:Optimizer.Config.t -> t -> string -> string

(** Render a result as an aligned text table. *)
val format_result : Exec.Executor.result -> string
