(* Concurrent query service: sessions over an OCaml-domains worker
   pool, built so that under overload, faults and concurrency it never
   returns a wrong answer and never wedges — every submission ends in
   a correct result, a typed recoverable error, or an explicit
   shed/timeout.

   The moving parts (DESIGN.md §12):

   - Admission control: a bounded queue.  When the depth reaches
     [max_queue] the submission is rejected *immediately* with
     [Overloaded] and a retry-after hint, instead of queueing
     unboundedly; when [max_inflight_cost] is set, a request whose
     optimizer-estimated plan cost does not fit the remaining cost
     capacity is shed at dispatch, after planning — the cost model is
     the same one the optimizer search minimizes.

   - Deadlines: measured from *admission*, carried into the executor
     as [Budget.deadline_at], so queueing delay, retries and backoff
     sleeps all consume the caller's patience and cancellation stays
     cooperative through both the row and vector engines.

   - Fair scheduling: one FIFO per session, sessions served
     round-robin, one request per turn — a heavy session cannot starve
     the rest, it can only queue behind itself.

   - Degradation ladder (per request): primary path = configured
     optimizer level on the configured engine; on transient failures
     (injected faults, per-attempt timeouts) the same path is retried
     under jittered exponential backoff; on plan-shaped failures
     (runtime errors, row/apply budget trips, normalize/plan/verifier
     rejections) the request degrades to the fallback path (correlated
     plan on the row engine) — [Engine.query_resilient], but with
     retries and a deadline.

   - Circuit breaker (per session): repeated primary-path failures
     open the breaker and pin the session to the fallback path; after
     a cooldown one half-open trial decides whether to close it.
     Per-call degradation generalized to per-session.

   - Crash-only workers: an exception outside the typed vocabulary
     kills only its worker domain; the pool spawns a replacement, the
     victim request is re-queued and retried elsewhere, and a request
     that kills [poison_threshold] workers is poisoned — completed
     with its stored error instead of being retried forever. *)

module Backoff = Backoff
module Breaker = Breaker
module Stats = Service_stats
module Rng = Exec.Faults.Rng

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)
(* ------------------------------------------------------------------ *)

type config = {
  domains : int;  (** worker-domain count *)
  max_queue : int;  (** admission bound on queued requests *)
  max_inflight_cost : float option;
      (** optimizer-cost capacity: a planned request is shed when the
          sum of executing plan costs plus its own would exceed this *)
  default_deadline_s : float option;  (** per-request deadline unless overridden *)
  retry : Backoff.policy;  (** transient-failure retry schedule *)
  breaker : Breaker.config;  (** per-session circuit breaker *)
  poison_threshold : int;  (** worker kills before a request is poisoned *)
  exec_mode : Engine.exec_mode;  (** primary-path engine *)
  opt_config : Optimizer.Config.t;  (** primary-path optimizer level *)
  fallback_config : Optimizer.Config.t;  (** degraded-path optimizer level *)
  seed : int;  (** seeds backoff jitter and per-request fault streams *)
  enable_cache : bool;
      (** switch the engine's caching tier on at creation: every worker
          then prepares through the shared plan cache, and batch
          submissions share materialized common subexpressions *)
}

let default_config =
  { domains = 4;
    max_queue = 128;
    max_inflight_cost = None;
    default_deadline_s = None;
    retry = Backoff.default;
    breaker = Breaker.default_config;
    poison_threshold = 2;
    exec_mode = `Vector;
    opt_config = Optimizer.Config.full;
    fallback_config = Optimizer.Config.correlated_only;
    seed = 0;
    enable_cache = false;
  }

(* ------------------------------------------------------------------ *)
(* Requests and replies                                               *)
(* ------------------------------------------------------------------ *)

type request = {
  sql : string;
  session : string;
  deadline_s : float option;  (** overrides [default_deadline_s] *)
  budget : Exec.Budget.t option;  (** extra row/apply/timeout caps *)
  fault : Exec.Faults.spec option;  (** chaos harness: injected executor faults *)
  chaos : (unit -> unit) option;
      (** chaos harness: runs inside the worker before planning; an
          escaped exception exercises the crash-only worker path *)
}

let request ?(session = "default") ?deadline_s ?budget ?fault ?chaos sql =
  { sql; session; deadline_s; budget; fault; chaos }

type error =
  | Overloaded of { queue_depth : int; retry_after_s : float }
      (** shed by admission control; retry after the hint *)
  | Deadline of { stage : [ `Queued | `Running ]; overdue_s : float }
      (** the admission deadline passed — before a worker picked the
          request up ([`Queued]) or cooperatively mid-query ([`Running]) *)
  | Poisoned of { kills : int; last_error : string }
      (** the request killed [kills] workers and is quarantined *)
  | Failed of Engine.Errors.t  (** typed query error on every attempted path *)
  | Shut_down  (** submitted after [shutdown] *)

let error_to_string = function
  | Overloaded { queue_depth; retry_after_s } ->
      Printf.sprintf "overloaded: queue depth %d, retry after %.3fs" queue_depth
        retry_after_s
  | Deadline { stage; overdue_s } ->
      Printf.sprintf "deadline exceeded %s (%.3fs overdue)"
        (match stage with `Queued -> "while queued" | `Running -> "while running")
        overdue_s
  | Poisoned { kills; last_error } ->
      Printf.sprintf "poisoned after killing %d workers (last: %s)" kills last_error
  | Failed e -> Engine.Errors.to_string e
  | Shut_down -> "service is shut down"

type reply = {
  outcome : (Engine.execution, error) result;
  served_by : string;  (** "config/engine" that produced the result, or "-" *)
  degraded : bool;  (** served by the fallback path *)
  retries : int;  (** transient-failure retries spent *)
  queued_s : float;  (** admission to first worker pickup *)
  total_s : float;  (** admission to reply *)
}

(* ------------------------------------------------------------------ *)
(* Internal job state                                                 *)
(* ------------------------------------------------------------------ *)

type job = {
  id : int;
  req : request;
  admitted_at : float;
  deadline_at : float option;
  jlock : Mutex.t;  (** guards [reply]; the waiter blocks on [jcond] *)
  jcond : Condition.t;
  mutable reply : reply option;
  mutable picked_up_at : float;  (** when a worker dequeued it (for queued_s) *)
  mutable kills : int;  (** workers this request has crashed *)
  mutable last_kill : string;
}

type ticket = job

type t = {
  cfg : config;
  eng : Engine.t;
  lock : Mutex.t;  (** guards all scheduler state below *)
  work : Condition.t;  (** signalled on enqueue and on shutdown *)
  session_queues : (string, job Queue.t) Hashtbl.t;
  rr : string Queue.t;  (** round-robin rotation of sessions with pending work *)
  mutable queued : int;
  mutable inflight_cost : float;  (** sum of plan costs currently executing *)
  mutable closed : bool;
  mutable next_id : int;
  mutable ema_latency_s : float;  (** recent-latency estimate for retry-after hints *)
  mutable workers : unit Domain.t list;  (** every domain spawned, for joining *)
  mutable live : int;
      (** pool size: workers started - retired; a crashed worker's
          replacement takes its place the moment it dies *)
  breakers : (string, Breaker.t) Hashtbl.t;
  worker_seed : int Atomic.t;  (** per-worker jitter streams stay distinct *)
  stats : Stats.t;
}

let stats (t : t) : Stats.snapshot =
  { (Stats.snapshot t.stats) with Stats.cache = Engine.cache_stats t.eng }

let engine (t : t) : Engine.t = t.eng

(* Batch entry point: multi-query optimization on the shared engine
   (common subexpressions picked jointly, see [Engine.query_many]).
   Runs on the caller's thread — batches are a planning-level feature,
   not a scheduling one, so they do not consume worker slots. *)
let query_many (t : t) (sqls : string list) : Engine.batch = Engine.query_many t.eng sqls

(* Per-session breakers are bounded: past this many tracked sessions,
   creating another first sweeps out every pristine breaker (closed,
   no consecutive failures — indistinguishable from a fresh one), so a
   client churning through session names cannot grow the table for the
   service lifetime.  Only sessions carrying real breaker signal
   survive the sweep. *)
let max_tracked_breakers = 1024

let breaker_for (t : t) (session : string) : Breaker.t =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.breakers session with
      | Some b -> b
      | None ->
          if Hashtbl.length t.breakers >= max_tracked_breakers then begin
            let pristine =
              Hashtbl.fold
                (fun s b acc -> if Breaker.is_pristine b then s :: acc else acc)
                t.breakers []
            in
            List.iter (Hashtbl.remove t.breakers) pristine
          end;
          let b = Breaker.create t.cfg.breaker in
          Hashtbl.replace t.breakers session b;
          b)

let breaker_state (t : t) (session : string) : Breaker.state =
  Breaker.state (breaker_for t session)

(* Caller holds [t.lock].  The hint scales the recent-latency estimate
   by the queue backlog per worker: roughly when a freed slot should
   reach work submitted after the backlog drains. *)
let retry_after (t : t) : float =
  let per_worker = (t.queued / max 1 t.cfg.domains) + 1 in
  Float.max 0.001 (t.ema_latency_s *. float_of_int per_worker)

(* ------------------------------------------------------------------ *)
(* Completion                                                         *)
(* ------------------------------------------------------------------ *)

let finish (t : t) (job : job) (reply : reply) : unit =
  let cls : Stats.finish_class =
    match reply.outcome with
    | Ok _ when reply.degraded -> Stats.Degraded
    | Ok _ -> Stats.Completed
    | Error (Deadline { stage = `Queued; _ }) -> Stats.Deadline_queued
    | Error (Deadline { stage = `Running; _ }) -> Stats.Deadline_running
    | Error _ -> Stats.Failed
  in
  Stats.note_finished t.stats ~session:job.req.session ~latency_s:reply.total_s cls;
  Mutex.protect t.lock (fun () ->
      (* retry-after hints track the latency of recently finished work *)
      t.ema_latency_s <- (0.9 *. t.ema_latency_s) +. (0.1 *. reply.total_s));
  Mutex.protect job.jlock (fun () ->
      job.reply <- Some reply;
      Condition.broadcast job.jcond)

(* ------------------------------------------------------------------ *)
(* Admission                                                          *)
(* ------------------------------------------------------------------ *)

(* Caller holds [t.lock]. *)
let enqueue_locked (t : t) (job : job) : unit =
  let q =
    match Hashtbl.find_opt t.session_queues job.req.session with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace t.session_queues job.req.session q;
        q
  in
  if Queue.is_empty q then Queue.push job.req.session t.rr;
  Queue.push job q;
  t.queued <- t.queued + 1;
  Condition.signal t.work

let submit (t : t) (req : request) : (ticket, error) result =
  Stats.note_submitted t.stats;
  let now = Unix.gettimeofday () in
  let verdict =
    Mutex.protect t.lock (fun () ->
        if t.closed then Error Shut_down
        else if t.queued >= t.cfg.max_queue then begin
          Error (Overloaded { queue_depth = t.queued; retry_after_s = retry_after t })
        end
        else begin
          let deadline_s =
            match req.deadline_s with Some _ as d -> d | None -> t.cfg.default_deadline_s
          in
          let job =
            { id = t.next_id;
              req;
              admitted_at = now;
              deadline_at = Option.map (fun d -> now +. d) deadline_s;
              jlock = Mutex.create ();
              jcond = Condition.create ();
              reply = None;
              picked_up_at = now;
              kills = 0;
              last_kill = "";
            }
          in
          t.next_id <- t.next_id + 1;
          enqueue_locked t job;
          Ok (job, t.queued)
        end)
  in
  match verdict with
  | Ok (job, depth) ->
      Stats.note_admitted t.stats ~depth;
      Ok job
  | Error (Overloaded _ as e) ->
      Stats.note_shed t.stats;
      Error e
  | Error e -> Error e

let await (_t : t) (job : ticket) : reply =
  Mutex.protect job.jlock (fun () ->
      let rec wait () =
        match job.reply with
        | Some r -> r
        | None ->
            Condition.wait job.jcond job.jlock;
            wait ()
      in
      wait ())

let rejected_reply (e : error) : reply =
  { outcome = Error e; served_by = "-"; degraded = false; retries = 0; queued_s = 0.; total_s = 0. }

let run (t : t) (req : request) : reply =
  match submit t req with Ok ticket -> await t ticket | Error e -> rejected_reply e

let run_many (t : t) (reqs : request list) : reply list =
  let tickets = List.map (fun r -> submit t r) reqs in
  List.map (function Ok tk -> await t tk | Error e -> rejected_reply e) tickets

(* ------------------------------------------------------------------ *)
(* Worker side: dequeue, classify, degrade, retry                     *)
(* ------------------------------------------------------------------ *)

(* Blocks until a job is available; [None] = closed and fully drained
   (the drain matters: every admitted request must get a reply). *)
let next_job (t : t) : job option =
  Mutex.protect t.lock (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.rr) then begin
          let s = Queue.pop t.rr in
          let q = Hashtbl.find t.session_queues s in
          let job = Queue.pop q in
          (* the session goes to the back of the rotation: fairness;
             a drained session's queue is dropped (recreated on its
             next submission) so session-name churn cannot grow the
             table for the service lifetime *)
          if not (Queue.is_empty q) then Queue.push s t.rr
          else Hashtbl.remove t.session_queues s;
          t.queued <- t.queued - 1;
          Some (job, t.queued)
        end
        else if t.closed then None
        else begin
          Condition.wait t.work t.lock;
          wait ()
        end
      in
      match wait () with
      | None -> None
      | Some (job, depth) ->
          job.picked_up_at <- Unix.gettimeofday ();
          Stats.note_dequeued t.stats ~depth;
          Some job)

(* Shed at dispatch by the cost gate (see [with_cost_slot]). *)
exception Shed of { queue_depth : int; retry_after_s : float }

(* Reserve cost capacity for an execution, or shed.  The reservation
   is released however the execution ends. *)
let with_cost_slot (t : t) (plan_cost : float) (f : unit -> 'a) : 'a =
  match t.cfg.max_inflight_cost with
  | None -> f ()
  | Some cap ->
      Mutex.protect t.lock (fun () ->
          if t.inflight_cost +. plan_cost > cap then
            raise (Shed { queue_depth = t.queued; retry_after_s = retry_after t })
          else t.inflight_cost <- t.inflight_cost +. plan_cost);
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect t.lock (fun () -> t.inflight_cost <- t.inflight_cost -. plan_cost))
        f

(* How one attempt died, for the retry/degrade decision. *)
type attempt_failure =
  | Transient of Engine.Errors.t
      (** same path may succeed on retry: injected fault, per-attempt
          timeout under contention *)
  | Plan_shaped of Engine.Errors.t
      (** deterministic for this plan shape: runtime error, row/apply
          budget, normalize/plan/verifier rejection — degrade paths *)
  | Fatal of Engine.Errors.t
      (** property of the SQL text (lex/parse/bind): no path helps *)
  | Deadline_hit of float  (** overdue seconds; the request is out of time *)

let classify (sql : string) (ex : exn) : attempt_failure =
  match ex with
  | Exec.Budget.Exceeded (Exec.Budget.Deadline, p) -> Deadline_hit p.Exec.Budget.overdue_s
  | _ -> (
      match Engine.Errors.of_exn ~sql ex with
      | None -> raise ex (* outside the typed vocabulary: crash-only worker path *)
      | Some err -> (
          match ex with
          | Exec.Budget.Exceeded (Exec.Budget.Timeout, _) -> Transient err
          | Exec.Budget.Exceeded ((Exec.Budget.Rows | Exec.Budget.Applies), _) ->
              Plan_shaped err
          | Exec.Faults.Injected _ -> Transient err
          | _ -> (
              match err.Engine.Errors.phase with
              | Engine.Errors.Lex | Engine.Errors.Parse | Engine.Errors.Bind -> Fatal err
              (* a corrupt store is wrong however the query is planned:
                 retrying or degrading would re-read the same bad state *)
              | Engine.Errors.Storage -> Fatal err
              | Engine.Errors.Fault -> Transient err
              | _ -> Plan_shaped err)))

(* Run one path (config + engine) to completion: prepare once, then
   execute with transient-failure retries under jittered backoff.
   [retries] is shared across paths so the policy bounds the whole
   request, and every backoff sleep is charged against the deadline. *)
let run_path (t : t) (job : job) (rng : Rng.t) ~(retries : int ref)
    ~(config : Optimizer.Config.t) ~(mode : Engine.exec_mode)
    ~(faults : Exec.Faults.t option) : (Engine.execution, attempt_failure) result =
  let sql = job.req.sql in
  let budget =
    let b = Option.value job.req.budget ~default:Exec.Budget.unlimited in
    let b =
      match job.deadline_at with Some d -> Exec.Budget.with_deadline b d | None -> b
    in
    if Exec.Budget.is_unlimited b then None else Some b
  in
  let deadline_left () =
    match job.deadline_at with
    | None -> infinity
    | Some d -> d -. Unix.gettimeofday ()
  in
  match Engine.prepare ~config t.eng sql with
  | exception ex -> Error (classify sql ex)
  | p ->
      with_cost_slot t p.Engine.plan_cost (fun () ->
          let rec exec_attempt () =
            match Engine.execute ?budget ?faults ~mode t.eng p with
            | e -> Ok e
            | exception ex -> (
                match classify sql ex with
                | Transient err ->
                    if !retries >= t.cfg.retry.max_retries then Error (Transient err)
                    else begin
                      let d = Backoff.delay t.cfg.retry rng ~attempt:!retries in
                      if deadline_left () <= d then
                        (* sleeping would outlive the deadline: give up
                           now, reporting how overdue the request would
                           be when the sleep ended *)
                        Error (Deadline_hit (d -. deadline_left ()))
                      else begin
                        incr retries;
                        Stats.note_retry t.stats;
                        Unix.sleepf d;
                        exec_attempt ()
                      end
                    end
                | f -> Error f)
          in
          exec_attempt ())

let path_name (config : Optimizer.Config.t) (mode : Engine.exec_mode) : string =
  Optimizer.Config.name_of config ^ "/" ^ Engine.exec_mode_name mode

(* The full degradation ladder for one request. *)
let process (t : t) (job : job) (rng : Rng.t) : reply =
  let now = Unix.gettimeofday () in
  let queued_s = job.picked_up_at -. job.admitted_at in
  let reply ?(served_by = "-") ?(degraded = false) ?(retries = 0) outcome =
    { outcome;
      served_by;
      degraded;
      retries;
      queued_s;
      total_s = Unix.gettimeofday () -. job.admitted_at;
    }
  in
  match job.deadline_at with
  | Some d when now >= d ->
      (* expired in the queue: shed-vs-timeout stays distinguishable *)
      reply (Error (Deadline { stage = `Queued; overdue_s = now -. d }))
  | _ -> (
      (* chaos hook: escapes here exercise the crash-only worker path *)
      (match job.req.chaos with Some f -> f () | None -> ());
      (* Per-request fault state (never shared across queries or
         domains): one armed plan covering all attempts, so an
         nth-style fault dies once and the retry sails through — the
         transient-fault story the retry policy exists for. *)
      let faults =
        Option.map
          (fun spec -> Exec.Faults.create (Exec.Faults.derive spec ~salt:job.id))
          job.req.fault
      in
      let breaker = breaker_for t job.req.session in
      let retries = ref 0 in
      let fallback ~(primary_error : Engine.Errors.t option) =
        let r =
          run_path t job rng ~retries ~config:t.cfg.fallback_config ~mode:`Row ~faults
        in
        let served_by = path_name t.cfg.fallback_config `Row in
        match r with
        | Ok e ->
            reply ~served_by ~degraded:true ~retries:!retries (Ok e)
        | Error (Deadline_hit overdue_s) ->
            reply ~retries:!retries (Error (Deadline { stage = `Running; overdue_s }))
        | Error (Transient err | Plan_shaped err | Fatal err) ->
            ignore primary_error;
            reply ~retries:!retries (Error (Failed err))
      in
      if Breaker.allow breaker then begin
        (* Every allowed attempt must record exactly one breaker
           outcome, or a half-open trial that ends without a verdict
           (deadline, fatal SQL, cost-gate shed, worker crash) pins
           the session half-open forever: [recorded] tracks whether a
           success/failure was fed in, and the protector aborts the
           trial on every other way out — including the [Shed] and
           crash exceptions that escape this whole match. *)
        let recorded = ref false in
        let record_success () =
          recorded := true;
          Breaker.record_success breaker
        in
        let record_failure () =
          recorded := true;
          if Breaker.record_failure breaker then Stats.note_breaker_trip t.stats
        in
        Fun.protect
          ~finally:(fun () -> if not !recorded then Breaker.abort_trial breaker)
          (fun () ->
            let primary_config = t.cfg.opt_config
            and primary_mode = t.cfg.exec_mode in
            match
              run_path t job rng ~retries ~config:primary_config ~mode:primary_mode
                ~faults
            with
            | Ok e ->
                record_success ();
                reply ~served_by:(path_name primary_config primary_mode)
                  ~retries:!retries (Ok e)
            | Error (Deadline_hit overdue_s) ->
                reply ~retries:!retries
                  (Error (Deadline { stage = `Running; overdue_s }))
            | Error (Fatal err) -> reply ~retries:!retries (Error (Failed err))
            | Error (Transient err | Plan_shaped err) ->
                (* primary path is sick: feed the breaker, degrade *)
                record_failure ();
                if t.cfg.fallback_config = primary_config && primary_mode = `Row then
                  reply ~retries:!retries (Error (Failed err))
                else fallback ~primary_error:(Some err))
      end
      else
        (* breaker open: the session is pinned to the degraded path *)
        fallback ~primary_error:None)

(* ------------------------------------------------------------------ *)
(* Crash-only workers                                                 *)
(* ------------------------------------------------------------------ *)

(* The caller has already counted the new worker in [t.live]. *)
let rec spawn_worker (t : t) : unit =
  let seed = t.cfg.seed + (1000003 * Atomic.fetch_and_add t.worker_seed 1) in
  let d = Domain.spawn (fun () -> worker_loop t (Rng.create seed)) in
  Mutex.protect t.lock (fun () -> t.workers <- d :: t.workers)

and worker_loop (t : t) (rng : Rng.t) : unit =
  match next_job t with
  | None ->
      (* closed and drained: the domain retires *)
      Mutex.protect t.lock (fun () -> t.live <- t.live - 1)
  | Some job -> (
      match process t job rng with
      | r ->
          finish t job r;
          worker_loop t rng
      | exception Shed { queue_depth; retry_after_s } ->
          (* already counted admitted, so this is a dispatch-time shed:
             a separate counter keeps submitted = admitted + shed *)
          Stats.note_shed_dispatch t.stats;
          finish t job
            { outcome = Error (Overloaded { queue_depth; retry_after_s });
              served_by = "-";
              degraded = false;
              retries = 0;
              queued_s = job.picked_up_at -. job.admitted_at;
              total_s = Unix.gettimeofday () -. job.admitted_at;
            };
          worker_loop t rng
      | exception ex -> crash t job ex)

(* An exception escaped the typed vocabulary: this worker is presumed
   corrupt and dies.  The victim request is re-queued to run elsewhere
   — unless it has now killed [poison_threshold] workers, in which
   case it is poisoned: completed with its stored error, never retried
   again.  A replacement domain is spawned before this one returns, so
   the pool never shrinks.

   Ordering is load-bearing.  The victim is re-enqueued BEFORE the
   replacement spawns: the replacement's first [next_job] then always
   observes the job (the queue drain runs even when closed), so a
   crash during shutdown cannot land the job in a drained queue after
   every worker — replacement included — has already retired, which
   would block its [await] forever.  On the poison path the order
   flips: respawn before delivering the reply.

   The replacement inherits the dying worker's place in [t.live] (the
   count never dips), so once any caller observes an outcome the pool
   is at size — also when another worker picks the re-queued victim
   up, crashes and poisons it before this replacement has spawned. *)
and crash (t : t) (job : job) (ex : exn) : unit =
  let msg = Printexc.to_string ex in
  Stats.note_worker_kill t.stats;
  job.kills <- job.kills + 1;
  job.last_kill <- msg;
  if job.kills >= t.cfg.poison_threshold then begin
    Stats.note_worker_respawn t.stats;
    spawn_worker t;
    Stats.note_poisoned t.stats;
    finish t job
      { outcome = Error (Poisoned { kills = job.kills; last_error = job.last_kill });
        served_by = "-";
        degraded = false;
        retries = 0;
        queued_s = job.picked_up_at -. job.admitted_at;
        total_s = Unix.gettimeofday () -. job.admitted_at;
      }
  end
  else begin
    let depth = Mutex.protect t.lock (fun () -> enqueue_locked t job; t.queued) in
    Stats.note_requeued t.stats ~depth;
    Stats.note_worker_respawn t.stats;
    spawn_worker t
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let create_with ?(config = default_config) (eng : Engine.t) : t =
  if config.enable_cache then Engine.enable_cache eng;
  let t =
    { cfg = config;
      eng;
      lock = Mutex.create ();
      work = Condition.create ();
      session_queues = Hashtbl.create 16;
      rr = Queue.create ();
      queued = 0;
      inflight_cost = 0.;
      closed = false;
      next_id = 1;
      ema_latency_s = 0.010;
      workers = [];
      live = max 1 config.domains;
      breakers = Hashtbl.create 16;
      worker_seed = Atomic.make 1;
      stats = Stats.create ();
    }
  in
  for _ = 1 to max 1 config.domains do
    spawn_worker t
  done;
  t

let create ?config (db : Storage.Database.t) : t =
  create_with ?config (Engine.create db)

(* ------------------------------------------------------------------ *)
(* Journaled mutations                                                *)
(* ------------------------------------------------------------------ *)

(* Mutations bypass the query queue: they take the store's own lock,
   so they serialize against each other and against snapshot rotation,
   while running queries keep reading consistent (array, count) views.
   On a durable engine each call is journaled (write + fsync) before
   it applies and before it returns. *)

let load_table (t : t) (table : string) (rows : Relalg.Value.t array list) : unit =
  Engine.load_table t.eng table rows;
  Stats.note_mutation t.stats

let append_row (t : t) (table : string) (row : Relalg.Value.t array) : unit =
  Engine.append_row t.eng table row;
  Stats.note_mutation t.stats

(* Stop admission, drain the queue (every admitted request still gets
   its reply), and join every worker domain — including replacements
   spawned by crashes while we were joining. *)
let shutdown (t : t) : unit =
  Mutex.protect t.lock (fun () ->
      t.closed <- true;
      Condition.broadcast t.work);
  let rec join_all () =
    let ds =
      Mutex.protect t.lock (fun () ->
          let ds = t.workers in
          t.workers <- [];
          ds)
    in
    match ds with
    | [] -> ()
    | ds ->
        List.iter Domain.join ds;
        join_all ()
  in
  join_all ();
  (* every journaled mutation is already fsync'd, so closing only
     releases the descriptor *)
  Engine.close_store t.eng

let live_workers (t : t) : int = Mutex.protect t.lock (fun () -> t.live)
