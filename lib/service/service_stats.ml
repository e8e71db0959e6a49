(* Service-level metrics: admission counters, queue depth high-water
   mark, degradation/retry/poison counters, and per-session latency
   distributions with p50/p95/p99 — the service-granularity sibling of
   the per-operator [Exec.Metrics] tree.

   All updates are mutex-guarded (workers and submitters touch the
   same counters from many domains); reads take a [snapshot] under the
   same lock so a render never shows a half-applied update. *)

(* Growable latency sample buffer; thousands of requests at 8 bytes a
   sample, so exact percentiles are cheaper than they sound. *)
type series = { mutable samples : float array; mutable n : int }

let series_create () = { samples = Array.make 256 0.; n = 0 }

let series_add (s : series) (v : float) =
  if s.n = Array.length s.samples then begin
    let bigger = Array.make (2 * s.n) 0. in
    Array.blit s.samples 0 bigger 0 s.n;
    s.samples <- bigger
  end;
  s.samples.(s.n) <- v;
  s.n <- s.n + 1

type percentiles = { count : int; p50 : float; p95 : float; p99 : float; max : float }

let percentiles_of (sorted : float array) : percentiles =
  let n = Array.length sorted in
  if n = 0 then { count = 0; p50 = 0.; p95 = 0.; p99 = 0.; max = 0. }
  else
    let at p =
      let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) i))
    in
    { count = n; p50 = at 0.50; p95 = at 0.95; p99 = at 0.99; max = sorted.(n - 1) }

type t = {
  lock : Mutex.t;
  mutable submitted : int;
  mutable admitted : int;
  mutable shed : int;
      (** rejected at admission (queue full) — never entered the queue,
          so [submitted = admitted + shed + shutdown rejects] *)
  mutable shed_dispatch : int;
      (** admitted, then shed by the inflight-cost gate at dispatch;
          overlaps [admitted], never [shed] *)
  mutable requeued : int;
      (** crash victims put back on the queue to retry elsewhere (not
          new admissions — [admitted] counts each request once) *)
  mutable completed : int;  (** replies carrying a result *)
  mutable failed : int;  (** replies carrying a typed query error *)
  mutable deadline_queued : int;  (** deadline passed before a worker picked it up *)
  mutable deadline_running : int;  (** deadline tripped cooperatively mid-query *)
  mutable retried : int;  (** transient-failure retries performed *)
  mutable degraded : int;  (** replies served by the fallback path *)
  mutable breaker_trips : int;  (** circuit-breaker open transitions *)
  mutable poisoned : int;  (** requests quarantined after repeated worker kills *)
  mutable worker_kills : int;  (** workers lost to escaped exceptions *)
  mutable worker_respawns : int;  (** replacement workers spawned *)
  mutable queue_depth : int;
  mutable queue_high_water : int;
  mutable mutations_journaled : int;
      (** load/append mutations acknowledged through the WAL *)
  mutable snapshots_written : int;  (** durable snapshot rotations *)
  global : series;  (** end-to-end latency of every finished request *)
  sessions : (string, series) Hashtbl.t;
}

let create () =
  { lock = Mutex.create ();
    submitted = 0;
    admitted = 0;
    shed = 0;
    shed_dispatch = 0;
    requeued = 0;
    completed = 0;
    failed = 0;
    deadline_queued = 0;
    deadline_running = 0;
    retried = 0;
    degraded = 0;
    breaker_trips = 0;
    poisoned = 0;
    worker_kills = 0;
    worker_respawns = 0;
    queue_depth = 0;
    queue_high_water = 0;
    mutations_journaled = 0;
    snapshots_written = 0;
    global = series_create ();
    sessions = Hashtbl.create 16;
  }

let locked (t : t) (f : unit -> 'a) : 'a = Mutex.protect t.lock f

let note_submitted t = locked t (fun () -> t.submitted <- t.submitted + 1)
let note_shed t = locked t (fun () -> t.shed <- t.shed + 1)

let note_admitted t ~depth =
  locked t (fun () ->
      t.admitted <- t.admitted + 1;
      t.queue_depth <- depth;
      if depth > t.queue_high_water then t.queue_high_water <- depth)

let note_shed_dispatch t = locked t (fun () -> t.shed_dispatch <- t.shed_dispatch + 1)

let note_requeued t ~depth =
  locked t (fun () ->
      t.requeued <- t.requeued + 1;
      t.queue_depth <- depth;
      if depth > t.queue_high_water then t.queue_high_water <- depth)

let note_dequeued t ~depth = locked t (fun () -> t.queue_depth <- depth)
let note_retry t = locked t (fun () -> t.retried <- t.retried + 1)
let note_breaker_trip t = locked t (fun () -> t.breaker_trips <- t.breaker_trips + 1)
let note_poisoned t = locked t (fun () -> t.poisoned <- t.poisoned + 1)
let note_worker_kill t = locked t (fun () -> t.worker_kills <- t.worker_kills + 1)
let note_worker_respawn t = locked t (fun () -> t.worker_respawns <- t.worker_respawns + 1)
let note_mutation t = locked t (fun () -> t.mutations_journaled <- t.mutations_journaled + 1)
let note_snapshot t = locked t (fun () -> t.snapshots_written <- t.snapshots_written + 1)

type finish_class = Completed | Degraded | Failed | Deadline_queued | Deadline_running

(* Per-session series are bounded: a client that varies session names
   unboundedly must not grow the table for the service lifetime, so
   once [max_tracked_sessions] distinct names exist, further new names
   pool into one overflow bucket. *)
let max_tracked_sessions = 1024
let overflow_session = "(other)"

(* One finished request: classify it and record its end-to-end latency
   under the session.  Sheds are not finishes — they never entered the
   queue. *)
let note_finished t ~(session : string) ~(latency_s : float) (cls : finish_class) =
  locked t (fun () ->
      (match cls with
      | Completed -> t.completed <- t.completed + 1
      | Degraded ->
          t.completed <- t.completed + 1;
          t.degraded <- t.degraded + 1
      | Failed -> t.failed <- t.failed + 1
      | Deadline_queued -> t.deadline_queued <- t.deadline_queued + 1
      | Deadline_running -> t.deadline_running <- t.deadline_running + 1);
      series_add t.global latency_s;
      let session =
        if Hashtbl.mem t.sessions session
           || Hashtbl.length t.sessions < max_tracked_sessions
        then session
        else overflow_session
      in
      let s =
        match Hashtbl.find_opt t.sessions session with
        | Some s -> s
        | None ->
            let s = series_create () in
            Hashtbl.replace t.sessions session s;
            s
      in
      series_add s latency_s)

(* --- snapshots -------------------------------------------------------- *)

type snapshot = {
  submitted : int;
  admitted : int;
  shed : int;
  shed_dispatch : int;
  requeued : int;
  completed : int;
  failed : int;
  deadline_queued : int;
  deadline_running : int;
  retried : int;
  degraded : int;
  breaker_trips : int;
  poisoned : int;
  worker_kills : int;
  worker_respawns : int;
  queue_depth : int;
  queue_high_water : int;
  mutations_journaled : int;
  snapshots_written : int;
  latency : percentiles;  (** all sessions pooled *)
  per_session : (string * percentiles) list;  (** sorted by session name *)
  cache : Engine.cache_stats option;
      (** engine caching-tier counters; [None] when the tier is off.
          Filled by [Service.stats], not by {!snapshot} (the stats
          store does not hold the engine). *)
}

let snapshot (t : t) : snapshot =
  locked t (fun () ->
      let freeze (s : series) =
        let a = Array.sub s.samples 0 s.n in
        Array.sort compare a;
        percentiles_of a
      in
      { submitted = t.submitted;
        admitted = t.admitted;
        shed = t.shed;
        shed_dispatch = t.shed_dispatch;
        requeued = t.requeued;
        completed = t.completed;
        failed = t.failed;
        deadline_queued = t.deadline_queued;
        deadline_running = t.deadline_running;
        retried = t.retried;
        degraded = t.degraded;
        breaker_trips = t.breaker_trips;
        poisoned = t.poisoned;
        worker_kills = t.worker_kills;
        worker_respawns = t.worker_respawns;
        queue_depth = t.queue_depth;
        queue_high_water = t.queue_high_water;
        mutations_journaled = t.mutations_journaled;
        snapshots_written = t.snapshots_written;
        latency = freeze t.global;
        per_session =
          Hashtbl.fold (fun name s acc -> (name, freeze s) :: acc) t.sessions []
          |> List.sort compare;
        cache = None;
      })

(* --- rendering -------------------------------------------------------- *)

let ms f = Printf.sprintf "%.2fms" (1000. *. f)

let percentiles_to_string (p : percentiles) : string =
  Printf.sprintf "n=%d p50=%s p95=%s p99=%s max=%s" p.count (ms p.p50) (ms p.p95)
    (ms p.p99) (ms p.max)

(* explain-style text block *)
let render (s : snapshot) : string =
  let b = Buffer.create 512 in
  Buffer.add_string b "== service stats ==\n";
  Buffer.add_string b
    (Printf.sprintf
       "submitted %d  admitted %d  shed %d  shed-at-dispatch %d  completed %d  failed %d\n"
       s.submitted s.admitted s.shed s.shed_dispatch s.completed s.failed);
  Buffer.add_string b
    (Printf.sprintf
       "deadline: queued %d  running %d   retried %d  degraded %d  breaker-trips %d\n"
       s.deadline_queued s.deadline_running s.retried s.degraded s.breaker_trips);
  Buffer.add_string b
    (Printf.sprintf "poisoned %d  requeued %d  worker-kills %d  worker-respawns %d\n"
       s.poisoned s.requeued s.worker_kills s.worker_respawns);
  Buffer.add_string b
    (Printf.sprintf "queue depth %d (high water %d)\n" s.queue_depth s.queue_high_water);
  if s.mutations_journaled > 0 || s.snapshots_written > 0 then
    Buffer.add_string b
      (Printf.sprintf "durability: mutations journaled %d  snapshots written %d\n"
         s.mutations_journaled s.snapshots_written);
  (match s.cache with
  | None -> ()
  | Some c ->
      Buffer.add_string b
        (Printf.sprintf
           "cache: plan hits %d  misses %d  stale %d  evicted %d  waits %d  entries %d (%d bytes)  verify-skips %d\n"
           c.Engine.plan_hits c.Engine.plan_misses c.Engine.plan_invalidations
           c.Engine.plan_evictions c.Engine.plan_single_flight_waits
           c.Engine.plan_entries c.Engine.plan_bytes c.Engine.verify_skips);
      Buffer.add_string b
        (Printf.sprintf
           "cse:   hits %d  materializations %d  stale %d  evicted %d  entries %d (%d bytes)\n"
           c.Engine.cse_hits c.Engine.cse_materializations c.Engine.cse_invalidations
           c.Engine.cse_evictions c.Engine.cse_entries c.Engine.cse_bytes));
  Buffer.add_string b
    (Printf.sprintf "latency: %s\n" (percentiles_to_string s.latency));
  List.iter
    (fun (name, p) ->
      Buffer.add_string b (Printf.sprintf "  session %-12s %s\n" name (percentiles_to_string p)))
    s.per_session;
  Buffer.contents b

let percentiles_to_json (p : percentiles) : string =
  Printf.sprintf "{\"count\":%d,\"p50_s\":%.6f,\"p95_s\":%.6f,\"p99_s\":%.6f,\"max_s\":%.6f}"
    p.count p.p50 p.p95 p.p99 p.max

let cache_to_json (c : Engine.cache_stats) : string =
  Printf.sprintf
    "{\"plan_hits\":%d,\"plan_misses\":%d,\"plan_invalidations\":%d,\
     \"plan_evictions\":%d,\"plan_single_flight_waits\":%d,\
     \"plan_entries\":%d,\"plan_bytes\":%d,\"verify_skips\":%d,\
     \"cse_hits\":%d,\"cse_materializations\":%d,\"cse_invalidations\":%d,\
     \"cse_evictions\":%d,\"cse_entries\":%d,\"cse_bytes\":%d}"
    c.Engine.plan_hits c.Engine.plan_misses c.Engine.plan_invalidations
    c.Engine.plan_evictions c.Engine.plan_single_flight_waits c.Engine.plan_entries
    c.Engine.plan_bytes c.Engine.verify_skips c.Engine.cse_hits
    c.Engine.cse_materializations c.Engine.cse_invalidations c.Engine.cse_evictions
    c.Engine.cse_entries c.Engine.cse_bytes

let to_json (s : snapshot) : string =
  Printf.sprintf
    "{\"submitted\":%d,\"admitted\":%d,\"shed\":%d,\"shed_dispatch\":%d,\
     \"requeued\":%d,\"completed\":%d,\"failed\":%d,\
     \"deadline_queued\":%d,\"deadline_running\":%d,\"retried\":%d,\"degraded\":%d,\
     \"breaker_trips\":%d,\"poisoned\":%d,\"worker_kills\":%d,\"worker_respawns\":%d,\
     \"queue_depth\":%d,\"queue_high_water\":%d,\
     \"mutations_journaled\":%d,\"snapshots_written\":%d,\
     \"cache\":%s,\"latency\":%s,\"sessions\":{%s}}"
    s.submitted s.admitted s.shed s.shed_dispatch s.requeued s.completed s.failed
    s.deadline_queued s.deadline_running s.retried s.degraded s.breaker_trips
    s.poisoned s.worker_kills s.worker_respawns s.queue_depth s.queue_high_water
    s.mutations_journaled s.snapshots_written
    (match s.cache with Some c -> cache_to_json c | None -> "null")
    (percentiles_to_json s.latency)
    (String.concat ","
       (List.map
          (fun (name, p) ->
            Printf.sprintf "%s:%s" (Relalg.Json.string name) (percentiles_to_json p))
          s.per_session))
