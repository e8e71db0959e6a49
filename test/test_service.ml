(* Concurrent query service tests: admission control, deadlines at
   both stages, retry/backoff, the per-session circuit breaker,
   crash-only workers with poisoning, the inflight-cost gate, and a
   multi-domain differential sweep against the single-threaded row
   oracle.  Also the domain-safety regression for the shared stats
   cache.

   Timing discipline: tests never assert that something happened
   *within* a wall-clock bound (flaky under load); they only assert
   state machines reached the right states, using blocking gates and
   generous sleeps for the few cases that need real time to pass. *)

open Support

exception Kaboom (* outside the pipeline's typed vocabulary: crashes workers *)

(* A gate the tests use to hold a worker hostage: the chaos hook blocks
   until the test releases it. *)
module Gate = struct
  type t = { lock : Mutex.t; cond : Condition.t; mutable open_ : bool }

  let create () = { lock = Mutex.create (); cond = Condition.create (); open_ = false }

  let wait g =
    Mutex.protect g.lock (fun () ->
        while not g.open_ do
          Condition.wait g.cond g.lock
        done)

  let release g =
    Mutex.protect g.lock (fun () ->
        g.open_ <- true;
        Condition.broadcast g.cond)
end

let config ?(domains = 1) ?(max_queue = 8) ?max_inflight_cost ?default_deadline_s
    ?(retry = Service.Backoff.default) ?(breaker = Service.Breaker.default_config)
    ?(poison_threshold = 2) () =
  { Service.default_config with
    domains;
    max_queue;
    max_inflight_cost;
    default_deadline_s;
    retry;
    breaker;
    poison_threshold;
  }

let ok_rows (r : Service.reply) : Relalg.Value.t array list =
  match r.outcome with
  | Ok e -> e.Engine.result.Exec.Executor.rows
  | Error e -> Alcotest.failf "expected success, got: %s" (Service.error_to_string e)

let fast_retry =
  { Service.Backoff.default with base_delay_s = 0.0005; max_delay_s = 0.002 }

let simple_sql = "select eid from emp where salary > 150"

(* --- admission ------------------------------------------------------- *)

let test_admission_rejects_at_capacity () =
  let gate = Gate.create () and started = Gate.create () in
  let t = Service.create ~config:(config ~domains:1 ~max_queue:2 ()) (toy_db ()) in
  (* the lone worker picks the blocker up and holds it on the gate;
     once its chaos hook has started, the blocker is in flight and no
     longer counts against the queue *)
  let blocker =
    Service.submit t
      (Service.request
         ~chaos:(fun () ->
           Gate.release started;
           Gate.wait gate)
         simple_sql)
  in
  let blocker = match blocker with Ok tk -> tk | Error _ -> Alcotest.fail "blocker shed" in
  Gate.wait started;
  (* two more requests fill the queue to capacity ... *)
  let fillers =
    List.init 2 (fun _ ->
        match Service.submit t (Service.request simple_sql) with
        | Ok tk -> tk
        | Error e -> Alcotest.failf "filler shed: %s" (Service.error_to_string e))
  in
  (* ... so each of the next three is rejected *)
  List.iter
    (function
      | Error (Service.Overloaded { queue_depth; retry_after_s }) ->
          Alcotest.(check int) "rejected at full queue" 2 queue_depth;
          Alcotest.(check bool) "retry_after positive" true (retry_after_s > 0.)
      | Error e -> Alcotest.failf "expected Overloaded, got %s" (Service.error_to_string e)
      | Ok _ -> Alcotest.fail "admitted past capacity")
    (List.init 3 (fun _ -> Service.submit t (Service.request simple_sql)));
  Gate.release gate;
  ignore (Service.await t blocker);
  List.iter (fun tk -> ignore (Service.await t tk)) fillers;
  let s = Service.stats t in
  Alcotest.(check int) "sheds counted" 3 s.Service.Stats.shed;
  Alcotest.(check int) "high water reached" 2 s.Service.Stats.queue_high_water;
  Service.shutdown t

let test_shutdown_rejects () =
  let t = Service.create ~config:(config ()) (toy_db ()) in
  Service.shutdown t;
  (match Service.submit t (Service.request simple_sql) with
  | Error Service.Shut_down -> ()
  | _ -> Alcotest.fail "expected Shut_down");
  let r = Service.run t (Service.request simple_sql) in
  (match r.Service.outcome with
  | Error Service.Shut_down -> ()
  | _ -> Alcotest.fail "run after shutdown should carry Shut_down")

(* --- deadlines ------------------------------------------------------- *)

let test_deadline_queued () =
  let gate = Gate.create () in
  let t = Service.create ~config:(config ~domains:1 ()) (toy_db ()) in
  let blocker =
    Service.submit t (Service.request ~chaos:(fun () -> Gate.wait gate) simple_sql)
  in
  (* queued behind the blocker with a deadline that expires in the queue *)
  let doomed = Service.submit t (Service.request ~deadline_s:0.02 simple_sql) in
  Unix.sleepf 0.08;
  Gate.release gate;
  (match blocker with Ok tk -> ignore (Service.await t tk) | Error _ -> ());
  (match doomed with
  | Ok tk -> (
      let r = Service.await t tk in
      match r.Service.outcome with
      | Error (Service.Deadline { stage = `Queued; overdue_s }) ->
          Alcotest.(check bool) "overdue positive" true (overdue_s > 0.)
      | Error e -> Alcotest.failf "expected queued-deadline, got %s" (Service.error_to_string e)
      | Ok _ -> Alcotest.fail "expected queued-deadline, got success")
  | Error _ -> Alcotest.fail "doomed request was shed");
  let s = Service.stats t in
  Alcotest.(check int) "deadline_queued counted" 1 s.Service.Stats.deadline_queued;
  Service.shutdown t

let test_deadline_running () =
  let t = Service.create ~config:(config ~domains:1 ()) (toy_db ()) in
  (* the chaos hook burns the deadline after pickup but before execution,
     so the budget's deadline check trips cooperatively mid-query *)
  let r =
    Service.run t
      (Service.request ~deadline_s:0.02 ~chaos:(fun () -> Unix.sleepf 0.06) simple_sql)
  in
  (match r.Service.outcome with
  | Error (Service.Deadline { stage = `Running; overdue_s }) ->
      Alcotest.(check bool) "overdue positive" true (overdue_s > 0.)
  | Error e -> Alcotest.failf "expected running-deadline, got %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "expected running-deadline, got success");
  let s = Service.stats t in
  Alcotest.(check int) "deadline_running counted" 1 s.Service.Stats.deadline_running;
  Service.shutdown t

(* --- backoff --------------------------------------------------------- *)

let test_backoff_envelope () =
  let p =
    { Service.Backoff.max_retries = 5;
      base_delay_s = 0.010;
      multiplier = 2.0;
      max_delay_s = 0.050;
      jitter = 0.5;
    }
  in
  Alcotest.(check (float 1e-9)) "attempt 0" 0.010 (Service.Backoff.envelope p ~attempt:0);
  Alcotest.(check (float 1e-9)) "attempt 1" 0.020 (Service.Backoff.envelope p ~attempt:1);
  Alcotest.(check (float 1e-9)) "attempt 2" 0.040 (Service.Backoff.envelope p ~attempt:2);
  (* capped thereafter *)
  Alcotest.(check (float 1e-9)) "attempt 3 capped" 0.050 (Service.Backoff.envelope p ~attempt:3);
  Alcotest.(check (float 1e-9)) "attempt 9 capped" 0.050 (Service.Backoff.envelope p ~attempt:9)

let test_backoff_jitter_bounded () =
  let p =
    { Service.Backoff.max_retries = 5;
      base_delay_s = 0.010;
      multiplier = 2.0;
      max_delay_s = 0.100;
      jitter = 0.5;
    }
  in
  let rng = Service.Rng.create 7 in
  let distinct = Hashtbl.create 16 in
  for attempt = 0 to 3 do
    let cap = Service.Backoff.envelope p ~attempt in
    for _ = 1 to 50 do
      let d = Service.Backoff.delay p rng ~attempt in
      Alcotest.(check bool) "within jitter floor" true (d >= cap *. 0.5 -. 1e-12);
      Alcotest.(check bool) "below envelope" true (d <= cap +. 1e-12);
      Hashtbl.replace distinct d ()
    done
  done;
  (* jittered: the draws are not all identical *)
  Alcotest.(check bool) "delays vary" true (Hashtbl.length distinct > 10)

(* --- circuit breaker (deterministic clock) --------------------------- *)

let test_breaker_lifecycle () =
  let now = ref 0.0 in
  let cfg = { Service.Breaker.failure_threshold = 3; cooldown_s = 1.0 } in
  let b = Service.Breaker.create ~now:(fun () -> !now) cfg in
  let open Service.Breaker in
  Alcotest.(check bool) "starts closed, allows" true (allow b);
  Alcotest.(check bool) "failure 1 no trip" false (record_failure b);
  Alcotest.(check bool) "failure 2 no trip" false (record_failure b);
  Alcotest.(check string) "still closed" "closed" (state_to_string (state b));
  Alcotest.(check bool) "failure 3 trips" true (record_failure b);
  Alcotest.(check string) "open" "open" (state_to_string (state b));
  Alcotest.(check bool) "open refuses" false (allow b);
  now := 0.5;
  Alcotest.(check bool) "still cooling" false (allow b);
  now := 1.1;
  Alcotest.(check bool) "half-open admits one trial" true (allow b);
  Alcotest.(check string) "half-open" "half-open" (state_to_string (state b));
  Alcotest.(check bool) "no second trial" false (allow b);
  record_success b;
  Alcotest.(check string) "trial success closes" "closed" (state_to_string (state b));
  (* success resets the consecutive-failure count *)
  Alcotest.(check bool) "f1" false (record_failure b);
  record_success b;
  Alcotest.(check bool) "f1 again" false (record_failure b);
  Alcotest.(check bool) "f2" false (record_failure b);
  Alcotest.(check bool) "f3 trips again" true (record_failure b);
  now := 2.5;
  Alcotest.(check bool) "half-open again" true (allow b);
  Alcotest.(check bool) "trial failure re-trips" true (record_failure b);
  Alcotest.(check string) "re-opened" "open" (state_to_string (state b));
  Alcotest.(check int) "three opens total" 3 (opens b)

(* A half-open trial that ends without a health verdict must be aborted
   back to open — not leaked, which would pin the session half-open
   forever (allow refuses everyone and no record_* is ever reachable). *)
let test_breaker_abort_trial () =
  let now = ref 0.0 in
  let cfg = { Service.Breaker.failure_threshold = 1; cooldown_s = 1.0 } in
  let b = Service.Breaker.create ~now:(fun () -> !now) cfg in
  let open Service.Breaker in
  Alcotest.(check bool) "trips open" true (record_failure b);
  now := 1.5;
  Alcotest.(check bool) "half-open admits trial" true (allow b);
  Alcotest.(check string) "half-open" "half-open" (state_to_string (state b));
  abort_trial b;
  Alcotest.(check string) "aborted back to open" "open" (state_to_string (state b));
  (* the elapsed cooldown is not restarted: the next caller is the new trial *)
  Alcotest.(check bool) "new trial admitted immediately" true (allow b);
  record_success b;
  Alcotest.(check string) "trial success closes" "closed" (state_to_string (state b));
  (* abort outside half-open is a no-op *)
  abort_trial b;
  Alcotest.(check string) "still closed" "closed" (state_to_string (state b));
  Alcotest.(check int) "abort counted no extra opens" 1 (opens b)

(* --- retry of transient faults --------------------------------------- *)

let test_transient_fault_retried () =
  let t =
    Service.create ~config:(config ~domains:1 ~retry:fast_retry ()) (toy_db ())
  in
  (* nth:1 kills the first operator evaluation; the armed fault state is
     shared across attempts, so the retry sails through *)
  let fault = { Exec.Faults.target = Exec.Faults.Any; mode = Exec.Faults.Nth 1; seed = 0 } in
  let r = Service.run t (Service.request ~fault simple_sql) in
  let rows = ok_rows r in
  Alcotest.(check bool) "retried at least once" true (r.Service.retries >= 1);
  Alcotest.(check bool) "not degraded" false r.Service.degraded;
  check_same_bag "same rows as oracle" rows (run_sql (toy_db ()) simple_sql);
  let s = Service.stats t in
  Alcotest.(check bool) "retries counted" true (s.Service.Stats.retried >= 1);
  Service.shutdown t

(* --- breaker integration: degrade, pin, recover ---------------------- *)

let test_breaker_pins_session_then_recovers () =
  let breaker = { Service.Breaker.failure_threshold = 2; cooldown_s = 0.15 } in
  let retry = { fast_retry with Service.Backoff.max_retries = 0 } in
  let t =
    Service.create ~config:(config ~domains:1 ~retry ~breaker ()) (toy_db ())
  in
  (* every operator evaluation dies: primary and fallback both fail,
     each request feeds the breaker one primary-path failure *)
  let always = { Exec.Faults.target = Exec.Faults.Any; mode = Exec.Faults.Every 1; seed = 0 } in
  for _ = 1 to 2 do
    let r = Service.run t (Service.request ~session:"s1" ~fault:always simple_sql) in
    match r.Service.outcome with
    | Error (Service.Failed _) -> ()
    | _ -> Alcotest.fail "expected Failed under total fault injection"
  done;
  Alcotest.(check string) "breaker open after threshold" "open"
    (Service.Breaker.state_to_string (Service.breaker_state t "s1"));
  (* while open, a clean request is pinned to the degraded path *)
  let r = Service.run t (Service.request ~session:"s1" simple_sql) in
  Alcotest.(check bool) "served degraded" true r.Service.degraded;
  check_same_bag "degraded result still correct" (ok_rows r) (run_sql (toy_db ()) simple_sql);
  (* other sessions are unaffected *)
  let r2 = Service.run t (Service.request ~session:"s2" simple_sql) in
  Alcotest.(check bool) "other session not degraded" false r2.Service.degraded;
  (* after the cooldown, the half-open trial succeeds and closes it *)
  Unix.sleepf 0.2;
  let r3 = Service.run t (Service.request ~session:"s1" simple_sql) in
  Alcotest.(check bool) "trial served by primary" false r3.Service.degraded;
  Alcotest.(check string) "breaker closed again" "closed"
    (Service.Breaker.state_to_string (Service.breaker_state t "s1"));
  let s = Service.stats t in
  Alcotest.(check bool) "trip counted" true (s.Service.Stats.breaker_trips >= 1);
  Alcotest.(check bool) "degrades counted" true (s.Service.Stats.degraded >= 1);
  Service.shutdown t

(* Service-level regression for the stuck-half-open bug: a fatal (parse)
   request consumes the half-open trial without a verdict; the trial
   must be aborted so the next clean request can close the breaker. *)
let test_breaker_fatal_trial_not_leaked () =
  let breaker = { Service.Breaker.failure_threshold = 2; cooldown_s = 0.1 } in
  let retry = { fast_retry with Service.Backoff.max_retries = 0 } in
  let t =
    Service.create ~config:(config ~domains:1 ~retry ~breaker ()) (toy_db ())
  in
  let always = { Exec.Faults.target = Exec.Faults.Any; mode = Exec.Faults.Every 1; seed = 0 } in
  for _ = 1 to 2 do
    ignore (Service.run t (Service.request ~session:"s1" ~fault:always simple_sql))
  done;
  Alcotest.(check string) "open after threshold" "open"
    (Service.Breaker.state_to_string (Service.breaker_state t "s1"));
  Unix.sleepf 0.15;
  (* the half-open trial goes to a request that cannot parse *)
  let r = Service.run t (Service.request ~session:"s1" "select from (") in
  (match r.Service.outcome with
  | Error (Service.Failed _) -> ()
  | _ -> Alcotest.fail "expected parse failure");
  Alcotest.(check string) "trial aborted back to open" "open"
    (Service.Breaker.state_to_string (Service.breaker_state t "s1"));
  (* the next clean request becomes the new trial and closes it *)
  let r2 = Service.run t (Service.request ~session:"s1" simple_sql) in
  Alcotest.(check bool) "new trial served by primary" false r2.Service.degraded;
  check_same_bag "trial result correct" (ok_rows r2) (run_sql (toy_db ()) simple_sql);
  Alcotest.(check string) "breaker closed again" "closed"
    (Service.Breaker.state_to_string (Service.breaker_state t "s1"));
  Service.shutdown t

(* --- crash-only workers and poisoning -------------------------------- *)

let test_poisoned_request_quarantined () =
  let t = Service.create ~config:(config ~domains:2 ~poison_threshold:2 ()) (toy_db ()) in
  let r = Service.run t (Service.request ~chaos:(fun () -> raise Kaboom) simple_sql) in
  (match r.Service.outcome with
  | Error (Service.Poisoned { kills; last_error }) ->
      Alcotest.(check int) "poisoned after two kills" 2 kills;
      Alcotest.(check bool) "kill cause recorded" true (contains last_error "Kaboom")
  | Error e -> Alcotest.failf "expected Poisoned, got %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Poisoned, got success");
  (* the pool healed: respawned workers still serve clean requests *)
  Alcotest.(check int) "pool back to size" 2 (Service.live_workers t);
  let clean = Service.run t (Service.request simple_sql) in
  check_same_bag "service still serves" (ok_rows clean) (run_sql (toy_db ()) simple_sql);
  let s = Service.stats t in
  Alcotest.(check int) "two worker kills" 2 s.Service.Stats.worker_kills;
  Alcotest.(check int) "two respawns" 2 s.Service.Stats.worker_respawns;
  Alcotest.(check int) "one poisoned request" 1 s.Service.Stats.poisoned;
  (* the first kill re-enqueued the victim; that is not a new admission *)
  Alcotest.(check int) "one requeue" 1 s.Service.Stats.requeued;
  Alcotest.(check int) "victim admitted once" 2 s.Service.Stats.admitted;
  Service.shutdown t

(* Crash racing shutdown: the victim must be re-enqueued before the
   replacement spawns, or the replacement (and every idle worker) can
   observe empty+closed and retire first — stranding the job in a
   drained queue with zero live workers and hanging its await forever. *)
let test_crash_during_shutdown_no_hang () =
  let gate = Gate.create () in
  let t = Service.create ~config:(config ~domains:1 ~poison_threshold:2 ()) (toy_db ()) in
  let tk =
    Service.submit t
      (Service.request ~chaos:(fun () -> Gate.wait gate; raise Kaboom) simple_sql)
  in
  let tk = match tk with Ok tk -> tk | Error _ -> Alcotest.fail "request shed" in
  (* shutdown concurrently: it closes admission, then joins workers *)
  let closer = Domain.spawn (fun () -> Service.shutdown t) in
  Unix.sleepf 0.05;
  Gate.release gate;
  (* first crash re-enqueues; the replacement must pick the victim up
     even though the service is closed, crash again, and poison it *)
  let r = Service.await t tk in
  (match r.Service.outcome with
  | Error (Service.Poisoned { kills; _ }) -> Alcotest.(check int) "two kills" 2 kills
  | Error e -> Alcotest.failf "expected Poisoned, got %s" (Service.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Poisoned, got success");
  Domain.join closer

(* --- inflight cost gate ---------------------------------------------- *)

let test_cost_gate_sheds () =
  (* capacity below any plan's cost: every request is shed at dispatch,
     and the gate releases its reservation (no wedge, no leak) *)
  let t =
    Service.create ~config:(config ~domains:2 ~max_inflight_cost:1e-9 ()) (toy_db ())
  in
  List.iter
    (fun (r : Service.reply) ->
      match r.Service.outcome with
      | Error (Service.Overloaded _) -> ()
      | _ -> Alcotest.fail "expected cost-gate shed")
    (Service.run_many t (List.init 4 (fun _ -> Service.request simple_sql)));
  (* dispatch-time sheds are counted apart from admission sheds, so
     submitted = admitted + shed still holds *)
  let s = Service.stats t in
  Alcotest.(check int) "all admitted" 4 s.Service.Stats.admitted;
  Alcotest.(check int) "all shed at dispatch" 4 s.Service.Stats.shed_dispatch;
  Alcotest.(check int) "no admission sheds" 0 s.Service.Stats.shed;
  Service.shutdown t;
  (* generous capacity: everything runs *)
  let t = Service.create ~config:(config ~domains:2 ~max_inflight_cost:1e12 ()) (toy_db ()) in
  let r = Service.run t (Service.request simple_sql) in
  check_same_bag "admitted under large cap" (ok_rows r) (run_sql (toy_db ()) simple_sql);
  Service.shutdown t

(* --- multi-domain differential sweep --------------------------------- *)

let tpch = lazy (Datagen.Tpch_gen.database ~seed:42 ~sf:0.005 ())

let test_concurrent_differential_sweep () =
  let db = Lazy.force tpch in
  (* single-threaded row-engine oracle, full optimizer *)
  let eng = Engine.create db in
  let oracle =
    List.map
      (fun (name, sql) -> (name, Engine.bag (Engine.query ~mode:`Row eng sql).rows))
      Workloads.all_named
  in
  let t = Service.create ~config:(config ~domains:4 ~max_queue:256 ()) db in
  (* every workload twice, spread over four sessions *)
  let reqs =
    List.concat_map
      (fun i ->
        List.map
          (fun (name, sql) ->
            (name, Service.request ~session:(Printf.sprintf "s%d" (i mod 4)) sql))
          Workloads.all_named)
      [ 0; 1; 2; 3 ]
  in
  let replies = Service.run_many t (List.map snd reqs) in
  List.iter2
    (fun (name, _) (r : Service.reply) ->
      let rows = ok_rows r in
      let expected = List.assoc name oracle in
      Alcotest.(check (list string)) (name ^ " matches row oracle") expected (Engine.bag rows))
    reqs replies;
  let s = Service.stats t in
  Alcotest.(check int) "all completed" (List.length reqs) s.Service.Stats.completed;
  Alcotest.(check int) "none failed" 0 s.Service.Stats.failed;
  Service.shutdown t

(* --- shared stats cache under concurrent compilation ----------------- *)

let test_stats_cache_domain_safety () =
  let db = toy_db () in
  let stats = Optimizer.Stats.create db in
  let pairs =
    [ ("emp", "eid"); ("emp", "dept"); ("emp", "salary"); ("dept", "did");
      ("dept", "dname"); ("bag", "x"); ("bag", "y")
    ]
  in
  let expected = List.map (fun (t, c) -> Optimizer.Stats.ndv stats t c) pairs in
  (* hammer the shared cache from four domains; a racy Hashtbl would
     corrupt its buckets or serve stale generations *)
  let worker () =
    for _ = 1 to 500 do
      List.iter2
        (fun (t, c) e ->
          let n = Optimizer.Stats.ndv stats t c in
          if n <> e then Alcotest.failf "ndv(%s.%s) raced: %d <> %d" t c n e)
        pairs expected
    done
  in
  let ds = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  (* generation bump invalidates concurrently-served entries *)
  Storage.Table.append (Storage.Database.table db "bag") [| v_int 9; v_int 90 |];
  let n = Optimizer.Stats.ndv stats "bag" "x" in
  Alcotest.(check int) "refreshed after append" 3 n

(* --- per-session stats stay bounded under session-name churn ---------- *)

let test_stats_session_overflow_bounded () =
  let st = Service.Stats.create () in
  for i = 1 to 1200 do
    Service.Stats.note_finished st
      ~session:(Printf.sprintf "churn%d" i)
      ~latency_s:0.001 Service.Stats.Completed
  done;
  let s = Service.Stats.snapshot st in
  (* 1024 tracked series plus the overflow bucket *)
  Alcotest.(check bool) "series bounded" true
    (List.length s.Service.Stats.per_session <= 1025);
  Alcotest.(check bool) "overflow pooled under (other)" true
    (List.mem_assoc "(other)" s.Service.Stats.per_session);
  let recorded =
    List.fold_left
      (fun acc (_, p) -> acc + p.Service.Stats.count)
      0 s.Service.Stats.per_session
  in
  Alcotest.(check int) "no finish lost to the bound" 1200 recorded

(* --- fresh column ids under concurrent compilation ------------------- *)

let test_fresh_cols_distinct_across_domains () =
  let spawn () =
    Domain.spawn (fun () -> List.init 2000 (fun _ -> (Relalg.Col.fresh "c" Relalg.Value.TInt).Relalg.Col.id))
  in
  let ds = List.init 4 (fun _ -> spawn ()) in
  let ids = List.concat_map Domain.join ds in
  let tbl = Hashtbl.create 8192 in
  List.iter
    (fun id ->
      if Hashtbl.mem tbl id then Alcotest.failf "duplicate fresh column id %d" id;
      Hashtbl.replace tbl id ())
    ids

let suite =
  [ Alcotest.test_case "admission rejects at capacity" `Quick test_admission_rejects_at_capacity;
    Alcotest.test_case "shutdown rejects new work" `Quick test_shutdown_rejects;
    Alcotest.test_case "deadline expires while queued" `Quick test_deadline_queued;
    Alcotest.test_case "deadline cancels mid-query" `Quick test_deadline_running;
    Alcotest.test_case "backoff envelope" `Quick test_backoff_envelope;
    Alcotest.test_case "backoff jitter bounded" `Quick test_backoff_jitter_bounded;
    Alcotest.test_case "breaker lifecycle" `Quick test_breaker_lifecycle;
    Alcotest.test_case "breaker abort_trial unsticks half-open" `Quick test_breaker_abort_trial;
    Alcotest.test_case "transient fault retried" `Quick test_transient_fault_retried;
    Alcotest.test_case "breaker pins session, recovers" `Quick test_breaker_pins_session_then_recovers;
    Alcotest.test_case "fatal trial does not leak half-open" `Quick test_breaker_fatal_trial_not_leaked;
    Alcotest.test_case "poisoned request quarantined" `Quick test_poisoned_request_quarantined;
    Alcotest.test_case "crash during shutdown does not hang" `Quick test_crash_during_shutdown_no_hang;
    Alcotest.test_case "cost gate sheds" `Quick test_cost_gate_sheds;
    Alcotest.test_case "concurrent differential sweep" `Quick test_concurrent_differential_sweep;
    Alcotest.test_case "stats session overflow bounded" `Quick test_stats_session_overflow_bounded;
    Alcotest.test_case "stats cache domain safety" `Quick test_stats_cache_domain_safety;
    Alcotest.test_case "fresh column ids distinct" `Quick test_fresh_cols_distinct_across_domains
  ]
