(* Chaos soak for the concurrent query service.

   Hammers a multi-domain service from several client domains across
   every bench workload, with injected executor faults, tight
   deadlines, row budgets, worker-killing chaos hooks and forced
   overload (client bursts larger than the admission queue) — then
   differentially checks every successful reply against a
   single-threaded row-engine oracle.

   Success criteria (the robustness contract, ISSUE acceptance):
     - zero wrong bags: every Ok reply matches the oracle exactly
     - zero hangs: every submission gets a reply before the watchdog
       fires (the watchdog exits 3 if the soak wedges)
     - the pool heals: live workers = configured domains at the end

   Usage: soak_main.exe [requests] [domains] [seed]
     default 2000 requests, 4 domains, seed 1 — `make soak-smoke`. *)

exception Chaos_monkey (* untyped on purpose: exercises crash-only workers *)

let () =
  let argv = Sys.argv in
  let arg i d = if Array.length argv > i then int_of_string argv.(i) else d in
  let n_requests = arg 1 2000 in
  let n_domains = arg 2 4 in
  let seed = arg 3 1 in
  let n_clients = 4 in
  (* generous: plan search dominates (~50ms/request single-threaded)
     and a 1-core host runs all domains interleaved; a healthy soak
     finishes well inside this, a wedged one does not finish at all *)
  let time_limit_s = 480. in

  (* watchdog: a wedged soak is an automatic failure, not a CI timeout *)
  let (_ : unit Domain.t) =
    Domain.spawn (fun () ->
        Unix.sleepf time_limit_s;
        prerr_endline "SOAK HANG: watchdog fired, service wedged";
        exit 3)
  in

  let db = Datagen.Tpch_gen.database ~seed:42 ~sf:0.002 () in
  let workloads = Array.of_list Workloads.all_named in

  (* single-threaded row-engine oracle, computed before any chaos *)
  let oracle_eng = Engine.create db in
  let oracle =
    Array.map
      (fun (name, sql) -> (name, Engine.bag (Engine.query ~mode:`Row oracle_eng sql).rows))
      workloads
  in

  let config =
    { Service.default_config with
      domains = n_domains;
      max_queue = 32;  (* small on purpose: client bursts force sheds *)
      retry = { Service.Backoff.default with base_delay_s = 0.0005; max_delay_s = 0.004 };
      breaker = { Service.Breaker.failure_threshold = 4; cooldown_s = 0.05 };
      seed;
    }
  in
  let t = Service.create ~config db in

  (* one request in [kill_every] crashes its worker (twice → poisoned) *)
  let kill_every = 150 in

  let build_request rng i =
    let w = Service.Rng.int rng (Array.length workloads) in
    let _, sql = workloads.(w) in
    let session = Printf.sprintf "s%d" (Service.Rng.int rng 8) in
    let fault =
      match Service.Rng.int rng 100 with
      | r when r < 25 ->
          (* transient: dies once, the retry continues past it *)
          Some
            { Exec.Faults.target = Exec.Faults.Any;
              mode = Exec.Faults.Nth (1 + Service.Rng.int rng 200);
              seed = i;
            }
      | r when r < 35 ->
          (* persistent flakiness: may exhaust retries and degrade *)
          Some
            { Exec.Faults.target = Exec.Faults.Any;
              mode = Exec.Faults.Probabilistic 0.0005;
              seed = i;
            }
      | _ -> None
    in
    let deadline_s =
      match Service.Rng.int rng 100 with
      | r when r < 10 -> Some (0.001 +. Service.Rng.float rng *. 0.004)  (* tight *)
      | r when r < 30 -> Some (0.05 +. Service.Rng.float rng *. 0.1)
      | _ -> None
    in
    let budget =
      if Service.Rng.int rng 100 < 8 then
        Some (Exec.Budget.make ~max_rows:(50 + Service.Rng.int rng 200) ())
      else None
    in
    let chaos = if i mod kill_every = kill_every - 1 then Some (fun () -> raise Chaos_monkey) else None in
    (w, Service.request ~session ?deadline_s ?budget ?fault ?chaos sql)
  in

  (* outcome tally, merged across client domains at the end *)
  let wrong = Atomic.make 0 in
  let ok = Atomic.make 0 in
  let shed = Atomic.make 0 in
  let deadline = Atomic.make 0 in
  let failed = Atomic.make 0 in
  let poisoned = Atomic.make 0 in

  let classify w (r : Service.reply) =
    match r.Service.outcome with
    | Ok e ->
        let name, _ = workloads.(w) in
        let expected = List.assoc name (Array.to_list oracle) in
        if Engine.bag e.Engine.result.Exec.Executor.rows <> expected then begin
          Printf.eprintf "WRONG BAG for %s (served_by %s, degraded %b)\n%!" name
            r.Service.served_by r.Service.degraded;
          Atomic.incr wrong
        end
        else Atomic.incr ok
    | Error (Service.Overloaded _) -> Atomic.incr shed
    | Error (Service.Deadline _) -> Atomic.incr deadline
    | Error (Service.Poisoned _) -> Atomic.incr poisoned
    | Error (Service.Failed _) -> Atomic.incr failed
    | Error Service.Shut_down -> Atomic.incr failed
  in

  (* each client drives its slice in bursts of 16: 4 clients × 16 >
     max_queue + inflight, so admission control genuinely engages *)
  let client c =
    let rng = Service.Rng.create (seed + (7919 * c)) in
    let burst = 16 in
    let i = ref c in
    while !i < n_requests do
      let batch = ref [] in
      let count = ref 0 in
      while !i < n_requests && !count < burst do
        batch := build_request rng !i :: !batch;
        i := !i + n_clients;
        incr count
      done;
      let batch = List.rev !batch in
      let tickets =
        List.map (fun (w, req) -> (w, Service.submit t req)) batch
      in
      List.iter
        (fun (w, tk) ->
          match tk with
          | Ok tk -> classify w (Service.await t tk)
          | Error e -> classify w { Service.outcome = Error e; served_by = "-";
                                    degraded = false; retries = 0; queued_s = 0.;
                                    total_s = 0. })
        tickets
    done
  in
  let started = Unix.gettimeofday () in
  let clients = List.init n_clients (fun c -> Domain.spawn (fun () -> client c)) in
  List.iter Domain.join clients;
  let elapsed = Unix.gettimeofday () -. started in

  let live = Service.live_workers t in
  Service.shutdown t;
  let s = Service.stats t in
  print_string (Service.Stats.render s);
  Printf.printf
    "soak: %d requests in %.1fs (%.0f req/s, %d domains)\n\
     ok %d  wrong %d  shed %d  deadline %d  failed %d  poisoned %d\n"
    n_requests elapsed (float_of_int n_requests /. elapsed) n_domains
    (Atomic.get ok) (Atomic.get wrong) (Atomic.get shed) (Atomic.get deadline)
    (Atomic.get failed) (Atomic.get poisoned);
  let total =
    Atomic.get ok + Atomic.get wrong + Atomic.get shed + Atomic.get deadline
    + Atomic.get failed + Atomic.get poisoned
  in
  let fail = ref false in
  if total <> n_requests then begin
    Printf.eprintf "SOAK FAIL: %d replies for %d requests (lost work)\n" total n_requests;
    fail := true
  end;
  if Atomic.get wrong > 0 then begin
    Printf.eprintf "SOAK FAIL: %d wrong bags\n" (Atomic.get wrong);
    fail := true
  end;
  if Atomic.get ok = 0 then begin
    Printf.eprintf "SOAK FAIL: no request succeeded\n";
    fail := true
  end;
  if live <> n_domains then begin
    Printf.eprintf "SOAK FAIL: %d live workers, expected %d (pool did not heal)\n" live
      n_domains;
    fail := true
  end;
  if !fail then exit 1;
  print_endline "soak: OK (zero wrong bags, zero hangs, pool healed)"
