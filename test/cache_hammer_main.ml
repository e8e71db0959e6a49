(* Cache-coherence hammer: race table mutations against cached-plan
   hits and CSE reads across 4 domains, then prove the caching tier
   never served a stale bag.

   Layout:
     - 2 mutator domains append rows to their own table (append-only,
       so every monotone aggregate is an envelope invariant), each at
       least [appends-per-mutator] rows and then on until the plan
       cache has recorded an invalidation, so the race ends only after
       it has made a cached plan stale (the watchdog bounds it);
     - 1 reader domain loops cached single-statement queries with
       varying literals (plan-cache hits + rebinds + invalidations);
     - 1 reader domain loops [Engine.query_many] over a batch sharing
       a subexpression (CSE materialization + invalidation).

   During the race, every cached read is sandwiched between two fresh
   uncached reads of the same monotone aggregate: the cached value
   must lie within [before, after], or the cache served a bag from a
   generation that no longer exists.  After the mutators quiesce,
   every query is bag-compared exactly against a fresh no-cache
   engine over the same database.

   Success criteria (ISSUE acceptance):
     - zero envelope violations during the race
     - zero wrong bags after quiescing
     - the plan cache recorded invalidations (the race was real)

   Usage: cache_hammer_main.exe [appends-per-mutator] [seed]
     default at least 400 appends, seed 1 — `make cache-hammer`. *)

let () =
  let argv = Sys.argv in
  let arg i d = if Array.length argv > i then int_of_string argv.(i) else d in
  let n_appends = arg 1 400 in
  let seed = arg 2 1 in

  let (_ : unit Domain.t) =
    Domain.spawn (fun () ->
        Unix.sleepf 300.;
        prerr_endline "CACHE HAMMER HANG: watchdog fired";
        exit 3)
  in

  (* two append-only tables, one per mutator domain *)
  let cat = Catalog.create () in
  let col n ty = Catalog.col n ty in
  List.iter
    (fun name ->
      Catalog.add_table cat
        { Catalog.name;
          columns = [ col "k" Relalg.Value.TInt; col "v" Relalg.Value.TInt ];
          primary_key = [];
          indexes = []
        })
    [ "ta"; "tb" ];
  let db = Storage.Database.create cat in
  let eng = Engine.create db in
  Engine.enable_cache eng;

  (* seed rows so cold plans see data *)
  List.iter
    (fun t ->
      for i = 1 to 16 do
        Engine.append_row eng t [| Relalg.Value.Int i; Relalg.Value.Int (i * 10) |]
      done)
    [ "ta"; "tb" ];

  let failures = Atomic.make 0 in
  let envelope_checks = Atomic.make 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Atomic.incr failures;
        Printf.eprintf "FAIL: %s\n%!" m)
      fmt
  in

  let int_of_agg (r : Exec.Executor.result) : int =
    match r.Exec.Executor.rows with
    | [ [| Relalg.Value.Int n |] ] -> n
    | [ [| Relalg.Value.Null |] ] -> 0
    | rows -> List.length rows
  in
  let fresh sql = int_of_agg (Engine.query ~use_cache:false eng sql) in

  (* the monotone envelope: under append-only mutation, a cached count
     observed between two fresh counts must lie between them *)
  let check_envelope what sql (cached : int) (before : int) (after : int) =
    Atomic.incr envelope_checks;
    if cached < before || cached > after then
      fail "%s: cached %d outside [%d, %d] for %s" what cached before after sql
  in

  let mutators_done = Atomic.make 0 in
  let invalidated () =
    match Engine.cache_stats eng with Some s -> s.Engine.plan_invalidations > 0 | None -> false
  in
  let mutator table salt =
    Domain.spawn (fun () ->
        let st = ref (((seed + salt) * 2654435761) land 0x3FFFFFFF) in
        let next n =
          st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
          !st mod n
        in
        let i = ref 0 in
        while !i < n_appends || not (invalidated ()) do
          incr i;
          Engine.append_row eng table
            [| Relalg.Value.Int (100 + !i); Relalg.Value.Int (next 1000) |];
          if !i mod 50 = 0 then Domain.cpu_relax ()
        done;
        Atomic.incr mutators_done)
  in

  let racing () = Atomic.get mutators_done < 2 in

  (* reader 1: cached single statements, varying literals so warm hits
     rebind templates under concurrent invalidation *)
  let reader_plans =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while racing () do
          incr i;
          let table = if !i mod 2 = 0 then "ta" else "tb" in
          let sql =
            Printf.sprintf "select count(*) from %s where v >= %d" table
              (!i mod 7 * 100)
          in
          let before = fresh sql in
          let cached = int_of_agg (Engine.query eng sql) in
          let after = fresh sql in
          check_envelope "plan-cache read" sql cached before after
        done)
  in

  (* reader 2: batches sharing a subexpression, so CSE entries
     materialize and invalidate under the same churn *)
  let reader_batches =
    Domain.spawn (fun () ->
        let batch =
          [ "select k from ta where v > 0.5 * (select sum(v) from ta)";
            "select k from ta where v > 0.25 * (select sum(v) from ta)"
          ]
        in
        let probe = "select sum(v) from ta" in
        while racing () do
          let before = fresh probe in
          let b = Engine.query_many eng batch in
          let after = fresh probe in
          (* every batch item ran against SOME generation between
             before and after; its rows all satisfy the predicate
             against that snapshot's sum, which we cannot recompute —
             but the materialized CSE itself is the probe aggregate,
             so check the envelope through a cached read of it *)
          ignore b;
          let cached = int_of_agg (Engine.query eng probe) in
          let after2 = fresh probe in
          check_envelope "cse-batch read" probe cached before
            (max after after2)
        done)
  in

  let ma = mutator "ta" 17 and mb = mutator "tb" 71 in
  Domain.join ma;
  Domain.join mb;
  Domain.join reader_plans;
  Domain.join reader_batches;

  (* quiesced: every query must now agree exactly with a fresh engine
     over the same database *)
  let oracle = Engine.create db in
  let final_queries =
    [ "select count(*) from ta";
      "select count(*) from tb";
      "select k from ta where v >= 300";
      "select k from tb where v >= 600";
      "select k from ta where v > 0.5 * (select sum(v) from ta)";
      "select k from ta where v > 0.25 * (select sum(v) from ta)"
    ]
  in
  List.iter
    (fun sql ->
      let cached = Engine.bag (Engine.query eng sql).rows in
      let fresh = Engine.bag (Engine.query oracle sql).rows in
      if cached <> fresh then
        fail "quiesced bag mismatch for %s: cached %d rows, oracle %d rows" sql
          (List.length cached) (List.length fresh))
    final_queries;
  let b = Engine.query_many eng final_queries in
  List.iter2
    (fun sql (it : Engine.batch_item) ->
      let cached = Engine.bag it.Engine.item_execution.Engine.result.rows in
      let fresh = Engine.bag (Engine.query oracle sql).rows in
      if cached <> fresh then
        fail "quiesced batch bag mismatch for %s" sql)
    final_queries b.Engine.items;

  let s = Option.get (Engine.cache_stats eng) in
  Printf.printf
    "cache hammer: %d envelope checks, at least %d appends/mutator\n\
     plan cache: %d hits, %d misses, %d invalidations, %d single-flight waits\n\
     cse: %d hits, %d materializations, %d invalidations\n"
    (Atomic.get envelope_checks) n_appends s.Engine.plan_hits s.Engine.plan_misses
    s.Engine.plan_invalidations s.Engine.plan_single_flight_waits s.Engine.cse_hits
    s.Engine.cse_materializations s.Engine.cse_invalidations;
  if s.Engine.plan_invalidations = 0 then
    fail "the race never invalidated a cached plan — hammer too weak";
  if Atomic.get failures > 0 then begin
    Printf.eprintf "cache hammer: %d FAILURES\n%!" (Atomic.get failures);
    exit 1
  end;
  print_endline "cache hammer: OK (zero stale bags)"
