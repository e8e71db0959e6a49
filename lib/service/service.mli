(** Concurrent query service: sessions over an OCaml-domains worker
    pool with bounded admission, per-request deadlines, retry with
    jittered backoff, per-session circuit breaking, and crash-only
    workers.  Every submission ends in a correct result, a typed
    recoverable error, or an explicit shed/timeout — never a wrong
    answer, never a wedge. *)

module Backoff = Backoff
module Breaker = Breaker
module Stats = Service_stats
module Rng = Exec.Faults.Rng

(** {2 Configuration} *)

type config = {
  domains : int;  (** worker-domain count *)
  max_queue : int;  (** admission bound on queued requests *)
  max_inflight_cost : float option;
      (** optimizer-cost capacity: a planned request is shed when the
          sum of executing plan costs plus its own would exceed this *)
  default_deadline_s : float option;
      (** per-request deadline unless the request overrides it *)
  retry : Backoff.policy;  (** transient-failure retry schedule *)
  breaker : Breaker.config;  (** per-session circuit breaker *)
  poison_threshold : int;  (** worker kills before a request is poisoned *)
  exec_mode : Engine.exec_mode;  (** primary-path engine *)
  opt_config : Optimizer.Config.t;  (** primary-path optimizer level *)
  fallback_config : Optimizer.Config.t;  (** degraded-path optimizer level *)
  seed : int;  (** seeds backoff jitter and per-request fault streams *)
  enable_cache : bool;
      (** switch the engine's caching tier on at creation
          ({!Engine.enable_cache}): every worker then prepares through
          the shared plan cache, and {!query_many} batches share
          materialized common subexpressions *)
}

(** 4 domains, queue bound 128, no cost gate, no default deadline,
    {!Backoff.default} retries, vector engine on the full optimizer
    with correlated/row fallback, caching tier off. *)
val default_config : config

(** {2 Requests and replies} *)

type request = {
  sql : string;
  session : string;
  deadline_s : float option;  (** overrides [default_deadline_s] *)
  budget : Exec.Budget.t option;  (** extra row/apply/timeout caps *)
  fault : Exec.Faults.spec option;
      (** chaos harness: injected executor faults (re-seeded per
          request, so concurrent queries draw independent streams) *)
  chaos : (unit -> unit) option;
      (** chaos harness: runs inside the worker before planning; an
          escaped exception exercises the crash-only worker path *)
}

val request :
  ?session:string ->
  ?deadline_s:float ->
  ?budget:Exec.Budget.t ->
  ?fault:Exec.Faults.spec ->
  ?chaos:(unit -> unit) ->
  string ->
  request

type error =
  | Overloaded of { queue_depth : int; retry_after_s : float }
      (** shed by admission control (queue bound or cost gate) *)
  | Deadline of { stage : [ `Queued | `Running ]; overdue_s : float }
      (** the admission deadline passed — before a worker picked the
          request up ([`Queued]) or cooperatively mid-query ([`Running]) *)
  | Poisoned of { kills : int; last_error : string }
      (** the request crashed [kills] workers and is quarantined *)
  | Failed of Engine.Errors.t  (** typed query error on every attempted path *)
  | Shut_down  (** submitted after {!shutdown} *)

val error_to_string : error -> string

type reply = {
  outcome : (Engine.execution, error) result;
  served_by : string;  (** "config/engine" that produced the result, or "-" *)
  degraded : bool;  (** served by the fallback path *)
  retries : int;  (** transient-failure retries spent *)
  queued_s : float;  (** admission to first worker pickup *)
  total_s : float;  (** admission to reply *)
}

(** {2 Lifecycle} *)

type t

val create : ?config:config -> Storage.Database.t -> t

(** Wrap an existing engine (e.g. one opened durably elsewhere). *)
val create_with : ?config:config -> Engine.t -> t

(** Stop admission, drain the queue (every admitted request still gets
    its reply) and join every worker domain. *)
val shutdown : t -> unit

(** {2 Submitting work} *)

type ticket

(** Admission-controlled enqueue; returns immediately.  [Error] means
    the request never entered the queue ([Overloaded] / [Shut_down]). *)
val submit : t -> request -> (ticket, error) result

(** Block until the ticket's request finishes. *)
val await : t -> ticket -> reply

(** [submit] + [await]; admission rejections come back as a reply with
    the error outcome. *)
val run : t -> request -> reply

(** Submit every request before awaiting any, preserving order. *)
val run_many : t -> request list -> reply list

(** Multi-query optimization on the shared engine: the batch is
    planned jointly (shared subplans materialized once, statements
    rewritten to scan them — see {!Engine.query_many}).  Runs on the
    caller's thread; without {!config.enable_cache} it degenerates to
    sequential prepare + execute. *)
val query_many : t -> string list -> Engine.batch

(** {2 Journaled mutations}

    Mutations bypass the query queue and serialize on the store's own
    lock.  On a durable service each call is journaled (write + fsync)
    before it applies in memory and before it returns — an
    acknowledged mutation survives a crash. *)

val load_table : t -> string -> Relalg.Value.t array list -> unit
val append_row : t -> string -> Relalg.Value.t array -> unit

(** {2 Introspection} *)

(** Snapshot of the service counters; {!Stats.snapshot.cache} is
    filled from the engine when the caching tier is on. *)
val stats : t -> Stats.snapshot

val engine : t -> Engine.t

(** Current breaker state for a session (a fresh session is [Closed]). *)
val breaker_state : t -> string -> Breaker.state

(** Worker domains currently registered (respawns keep this at the
    configured size). *)
val live_workers : t -> int
