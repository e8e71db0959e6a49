(* Caching-tier tests: canonicalization (stability under literal and
   alias renaming, no collisions between distinct queries), the plan
   cache's LRU/byte-budget eviction and generation-vector
   invalidation, single-flight deduplication under real domains, the
   engine-level hit/rebind path (including the value-dependent-rewrite
   fallback), CSE fingerprinting, and [query_many] batch planning. *)

open Support

let parse = Sqlfront.Parser.parse
let analyze sql = Cache.Canon.analyze (parse sql)

(* --- canonicalization ------------------------------------------------ *)

let test_canon_literal_stability () =
  let a = analyze "select eid from emp where salary > 100 and dept = 3" in
  let b = analyze "select eid from emp where salary > 99999 and dept = 7" in
  Alcotest.(check string) "same canonical key" a.Cache.Canon.key b.Cache.Canon.key;
  Alcotest.(check int) "two lifted literals" 2 (List.length a.Cache.Canon.literals)

let test_canon_alias_stability () =
  let a = analyze "select e.eid from emp e where e.salary > 100" in
  let b = analyze "select worker.eid from emp worker where worker.salary > 100" in
  Alcotest.(check string) "alias renaming is canonical" a.Cache.Canon.key
    b.Cache.Canon.key

let test_canon_no_collisions () =
  let queries =
    [ "select eid from emp";
      "select eid from emp where salary > 100";
      "select eid from emp where salary > 100 and dept = 3";
      "select name from emp where salary > 100";
      "select eid from emp order by eid";
      "select eid from emp order by eid desc";
      "select eid from emp limit 3";
      "select eid from emp limit 4";
      "select dept, sum(salary) from emp group by dept";
      "select dept, sum(salary) from emp group by dept having sum(salary) > 100";
      "select eid from emp where exists (select did from dept where did = dept)";
      "select eid from emp where salary > (select sum(salary) from emp)"
    ]
  in
  let keys = List.map (fun q -> (analyze q).Cache.Canon.key) queries in
  let distinct = List.sort_uniq compare keys in
  Alcotest.(check int) "all keys distinct" (List.length queries) (List.length distinct)

(* Round-trip: substituting fresh literals into the analyzed form and
   re-analyzing reproduces the canonical key, for generated queries. *)
let test_canon_roundtrip_generated () =
  for case = 0 to 39 do
    let sql = Testgen.Qgen.sql_of ~seed:11 ~case in
    let ast = parse sql in
    let a = Cache.Canon.analyze ast in
    let sent = Cache.Canon.sentinels a.Cache.Canon.literals in
    let ast' = Cache.Canon.with_literals ast sent in
    let b = Cache.Canon.analyze ast' in
    Alcotest.(check string)
      (Printf.sprintf "case %d key stable under literal substitution" case)
      a.Cache.Canon.key b.Cache.Canon.key;
    Alcotest.(check int)
      (Printf.sprintf "case %d slot count stable" case)
      (List.length a.Cache.Canon.literals)
      (List.length b.Cache.Canon.literals)
  done

(* One traversal serializes and substitutes: over the workload corpus
   and Qgen seed 1, the keys, literal vectors and opaque literals are
   byte-identical to those of the two-traversal canonicalizer this one
   replaced (the digest below), and substituting the sentinels and
   re-analyzing gives the same key with the sentinels back in slot
   order. *)
let test_canon_one_traversal () =
  let lit = function
    | Cache.Canon.LInt n -> "i" ^ string_of_int n
    | Cache.Canon.LFloat f -> Printf.sprintf "f%h" f
    | Cache.Canon.LStr s -> "s" ^ s
    | Cache.Canon.LDate s -> "d" ^ s
  in
  let sqls =
    List.map snd Workloads.all_named @ List.init 200 (fun case -> Testgen.Qgen.sql_of ~seed:1 ~case)
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun sql ->
      let ast = parse sql in
      let a = Cache.Canon.analyze ast in
      Buffer.add_string b
        (String.concat "|"
           [ a.key; String.concat "," (List.map lit a.literals); String.concat "," (List.map lit a.opaque) ]
        ^ "\n");
      let sent = Cache.Canon.sentinels a.literals in
      let again = Cache.Canon.analyze (Cache.Canon.with_literals ast sent) in
      Alcotest.(check string) (sql ^ ": key under sentinels") a.key again.key;
      Alcotest.(check (list string)) (sql ^ ": sentinels in slot order") (List.map lit sent)
        (List.map lit again.literals))
    sqls;
  Alcotest.(check string) "keys, literals and opaque literals unchanged"
    "5ed4e4766ad34591e982a4f3a4ac41e1"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- plan cache ------------------------------------------------------ *)

let no_gens = fun (_ : string) -> 0

let insert cache key v ~bytes =
  match
    Cache.Plan_cache.find_or_compute cache ~key ~current_gen:no_gens ~compute:(fun () ->
        (v, [], bytes))
  with
  | `Hit v | `Miss v | `Stale v -> v

let test_plan_cache_lru_eviction () =
  let c = Cache.Plan_cache.create ~max_bytes:100 () in
  ignore (insert c "k1" 1 ~bytes:40);
  ignore (insert c "k2" 2 ~bytes:40);
  (* touch k1 so k2 is the LRU entry *)
  ignore (insert c "k1" 99 ~bytes:40);
  ignore (insert c "k3" 3 ~bytes:40);
  Alcotest.(check bool) "k1 retained (recently used)" true (Cache.Plan_cache.mem c "k1");
  Alcotest.(check bool) "k2 evicted (LRU)" false (Cache.Plan_cache.mem c "k2");
  Alcotest.(check bool) "k3 retained" true (Cache.Plan_cache.mem c "k3");
  let s = Cache.Plan_cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.Plan_cache.evictions;
  Alcotest.(check int) "bytes within budget" 80 s.Cache.Plan_cache.bytes

let test_plan_cache_oversized_entry () =
  let c = Cache.Plan_cache.create ~max_bytes:100 () in
  let v = insert c "big" 42 ~bytes:150 in
  Alcotest.(check int) "oversized value still returned" 42 v;
  Alcotest.(check bool) "but not retained" false (Cache.Plan_cache.mem c "big")

let test_plan_cache_generation_invalidation () =
  let gen = ref 0 in
  let current_gen (_ : string) = !gen in
  let c = Cache.Plan_cache.create () in
  let lookup v =
    Cache.Plan_cache.find_or_compute c ~key:"k" ~current_gen ~compute:(fun () ->
        (v, [ ("t", !gen) ], 10))
  in
  (match lookup 1 with
  | `Miss 1 -> ()
  | _ -> Alcotest.fail "expected a miss");
  (match lookup 2 with
  | `Hit 1 -> ()
  | _ -> Alcotest.fail "expected a hit serving the first value");
  incr gen;
  (match lookup 3 with
  | `Stale 3 -> ()
  | _ -> Alcotest.fail "expected stale recompute after the generation moved");
  (match lookup 4 with
  | `Hit 3 -> ()
  | _ -> Alcotest.fail "expected a hit on the recomputed entry");
  let s = Cache.Plan_cache.stats c in
  Alcotest.(check int) "one invalidation" 1 s.Cache.Plan_cache.invalidations

let test_plan_cache_single_flight () =
  let c = Cache.Plan_cache.create () in
  let computes = Atomic.make 0 in
  let computing = Atomic.make false in
  let lookup () =
    Cache.Plan_cache.find_or_compute c ~key:"k" ~current_gen:no_gens
      ~compute:(fun () ->
        Atomic.incr computes;
        Atomic.set computing true;
        Unix.sleepf 0.1;
        (7, [], 10))
  in
  let d0 = Domain.spawn lookup in
  (* wait until the first lookup is inside its compute, then pile on *)
  while not (Atomic.get computing) do
    Domain.cpu_relax ()
  done;
  let rest = List.init 3 (fun _ -> Domain.spawn lookup) in
  let results = List.map Domain.join (d0 :: rest) in
  List.iter
    (fun r ->
      match r with
      | `Hit 7 | `Miss 7 | `Stale 7 -> ()
      | _ -> Alcotest.fail "every waiter must receive the computed value")
    results;
  Alcotest.(check int) "compute ran once" 1 (Atomic.get computes);
  let s = Cache.Plan_cache.stats c in
  Alcotest.(check int) "three deduplicated lookups" 3 s.Cache.Plan_cache.hits;
  Alcotest.(check int) "three single-flight waits" 3
    s.Cache.Plan_cache.single_flight_waits

(* --- engine-level plan caching --------------------------------------- *)

let cached_engine () =
  let eng = Engine.create (toy_db ()) in
  Engine.enable_cache eng;
  eng

let cache_status (p : Engine.prepared) : string =
  match p.Engine.cache with
  | Some `Hit -> "hit"
  | Some `Miss -> "miss"
  | Some `Stale -> "stale"
  | None -> "none"

let check_cached_vs_fresh eng sql =
  let cached = (Engine.query eng sql).Exec.Executor.rows in
  let fresh = (Engine.query ~use_cache:false eng sql).Exec.Executor.rows in
  check_same_bag (sql ^ ": cached bag = fresh bag") cached fresh

let test_engine_hit_rebinds_literals () =
  let eng = cached_engine () in
  let q v = Printf.sprintf "select eid from emp where salary > %d" v in
  let p1 = Engine.prepare eng (q 150) in
  Alcotest.(check string) "first prepare misses" "miss" (cache_status p1);
  let p2 = Engine.prepare eng (q 250) in
  Alcotest.(check string) "same form with a new literal hits" "hit" (cache_status p2);
  check_cached_vs_fresh eng (q 150);
  check_cached_vs_fresh eng (q 250);
  check_cached_vs_fresh eng (q 0);
  let s = Option.get (Engine.cache_stats eng) in
  Alcotest.(check bool) "hits counted" true (s.Engine.plan_hits >= 3);
  Alcotest.(check bool) "verifier skipped on hits" true
    (s.Engine.verify_skips = s.Engine.plan_hits)

let test_engine_generation_bump_invalidates () =
  let eng = cached_engine () in
  let sql = "select eid from emp where salary > 150" in
  let n0 = List.length (Engine.query eng sql).Exec.Executor.rows in
  Alcotest.(check string) "warm" "hit" (cache_status (Engine.prepare eng sql));
  Engine.append_row eng "emp"
    [| v_int 9; v_str "eve"; v_int 1; v_f 9000. |];
  let p = Engine.prepare eng sql in
  Alcotest.(check string) "append invalidates the entry" "stale" (cache_status p);
  let n1 = List.length (Engine.query eng sql).Exec.Executor.rows in
  Alcotest.(check int) "the new row is visible through the cache" (n0 + 1) n1;
  let s = Option.get (Engine.cache_stats eng) in
  Alcotest.(check bool) "invalidation counted" true (s.Engine.plan_invalidations >= 1)

(* Constant folding consumes the sentinel (100 + 100 folds to one
   constant), so the canonical form is value-dependent and the query
   must fall back to exact-literal keying — still cached, still
   correct. *)
let test_engine_value_dependent_fallback () =
  let eng = cached_engine () in
  let sql = "select eid from emp where salary > 100 + 100" in
  check_cached_vs_fresh eng sql;
  let p = Engine.prepare eng sql in
  Alcotest.(check string) "identical text re-served from the exact entry" "hit"
    (cache_status p);
  (* different literals under the same form must not share the folded plan *)
  check_cached_vs_fresh eng "select eid from emp where salary > 100 + 250"

(* Regression: [Props.bounds_unsat] proves [x < lo AND x >= hi] empty
   from the literal values alone, and the property rewrites then
   exploit the emptiness (e.g. a dedup-free Apply for IN).  Sentinels
   replicate the real literals' order pattern and the pattern is part
   of the cache key, so a satisfiable range and a contradictory range
   of the same parameterized shape never share a template. *)
let test_engine_order_pattern_separates_ranges () =
  let eng = cached_engine () in
  let q hi lo =
    Printf.sprintf "select eid from emp where salary < %s and salary >= %s" hi lo
  in
  let sat = q "2000.0" "100.0" and unsat = q "100.0" "2000.0" in
  check_cached_vs_fresh eng sat;
  let p = Engine.prepare eng unsat in
  Alcotest.(check string) "flipped range does not hit the sat template" "miss"
    (cache_status p);
  check_cached_vs_fresh eng unsat;
  Alcotest.(check int) "the contradictory range is empty" 0
    (List.length (Engine.query eng unsat).Exec.Executor.rows);
  (* same order pattern, different magnitudes: shares the template *)
  Alcotest.(check string) "same-pattern range hits" "hit"
    (cache_status (Engine.prepare eng (q "750.5" "10.25")));
  check_cached_vs_fresh eng (q "750.5" "10.25")

(* An int slot numerically equal to a float slot: the sentinel grid
   cannot realize the equality, so the query must take the exact-key
   path (still cached, still correct). *)
let test_engine_mixed_numeric_tie_exact_path () =
  let eng = cached_engine () in
  let sql = "select eid from emp where salary >= 150 and salary < 150.0" in
  check_cached_vs_fresh eng sql;
  Alcotest.(check string) "identical text re-hits the exact entry" "hit"
    (cache_status (Engine.prepare eng sql))

let test_engine_cache_off_is_none () =
  let eng = Engine.create (toy_db ()) in
  let p = Engine.prepare eng "select eid from emp" in
  Alcotest.(check string) "no caching tier: no provenance" "none" (cache_status p);
  Alcotest.(check bool) "no stats either" true (Engine.cache_stats eng = None)

(* --- CSE store ------------------------------------------------------- *)

let plan_of eng sql = (Engine.prepare ~use_cache:false eng sql).Engine.plan

let test_cse_fingerprint_alpha_equivalence () =
  let eng = Engine.create (toy_db ()) in
  (* two separately bound plans of the same text differ in column ids
     but must share a fingerprint *)
  let sql = "select dept, sum(salary) from emp group by dept" in
  let fa = Relalg.Fingerprint.of_op (plan_of eng sql) in
  let fb = Relalg.Fingerprint.of_op (plan_of eng sql) in
  Alcotest.(check string) "alpha-equivalent plans share a fingerprint" fa fb;
  let fc = Relalg.Fingerprint.of_op (plan_of eng "select dept, sum(eid) from emp group by dept") in
  Alcotest.(check bool) "different aggregate, different fingerprint" true (fa <> fc)

let test_cse_candidates_closed_only () =
  let eng = Engine.create (toy_db ()) in
  (* correlated subquery: the inner subtree references outer columns,
     so only fully closed subtrees may be offered as candidates *)
  let plan =
    plan_of eng
      "select eid from emp where salary > (select sum(salary) from emp e2 where e2.dept = emp.dept)"
  in
  List.iter
    (fun (_, sub) ->
      Alcotest.(check bool) "candidate has no free columns" true
        (Relalg.Col.Set.is_empty (Relalg.Op.free_cols sub)))
    (Cache.Cse.candidates plan)

(* --- query_many ------------------------------------------------------ *)

let test_query_many_empty_and_singleton () =
  let eng = cached_engine () in
  let b = Engine.query_many eng [] in
  Alcotest.(check int) "empty batch: no items" 0 (List.length b.Engine.items);
  let sql = "select eid from emp where salary > 150" in
  let b = Engine.query_many eng [ sql ] in
  (match b.Engine.items with
  | [ it ] ->
      check_same_bag "singleton batch matches direct execution"
        it.Engine.item_execution.Engine.result.Exec.Executor.rows
        (Engine.query ~use_cache:false eng sql).Exec.Executor.rows
  | _ -> Alcotest.fail "expected one item")

let shared_batch =
  [ "select eid from emp where salary > 0.5 * (select sum(salary) from emp)";
    "select name from emp where salary < 2.0 * (select sum(salary) from emp)";
    "select eid from emp where salary > 0.1 * (select sum(salary) from emp)"
  ]

let test_query_many_materializes_shared_subplan () =
  let eng = cached_engine () in
  let b = Engine.query_many eng shared_batch in
  Alcotest.(check bool) "at least one CSE selected" true (b.Engine.cse_count >= 1);
  Alcotest.(check bool) "replaced in several statements" true
    (b.Engine.cse_substitutions >= 2);
  List.iter2
    (fun sql (it : Engine.batch_item) ->
      check_same_bag (sql ^ ": batch bag = sequential bag")
        it.Engine.item_execution.Engine.result.Exec.Executor.rows
        (Engine.query ~use_cache:false eng sql).Exec.Executor.rows)
    shared_batch b.Engine.items;
  let s = Option.get (Engine.cache_stats eng) in
  Alcotest.(check bool) "materialization counted" true
    (s.Engine.cse_materializations >= 1)

let test_query_many_generation_bump_between_batches () =
  let eng = cached_engine () in
  let sum_all () =
    match (Engine.query ~use_cache:false eng "select sum(salary) from emp").rows with
    | [ [| v |] ] -> v
    | _ -> Alcotest.fail "expected one aggregate row"
  in
  let b0 = Engine.query_many eng shared_batch in
  ignore b0;
  let before = sum_all () in
  Engine.append_row eng "emp" [| v_int 10; v_str "fay"; v_int 2; v_f 5000. |];
  (* the batch after the append must see the new row: its CSE entry is
     re-materialized, not served stale *)
  let b1 = Engine.query_many eng shared_batch in
  List.iter2
    (fun sql (it : Engine.batch_item) ->
      check_same_bag (sql ^ ": post-append batch bag is fresh")
        it.Engine.item_execution.Engine.result.Exec.Executor.rows
        (Engine.query ~use_cache:false eng sql).Exec.Executor.rows)
    shared_batch b1.Engine.items;
  let after = sum_all () in
  Alcotest.(check bool) "the append really moved the aggregate" true (before <> after)

let test_query_many_without_cache_degenerates () =
  let eng = Engine.create (toy_db ()) in
  let b = Engine.query_many eng shared_batch in
  Alcotest.(check int) "no CSEs without a cache" 0 b.Engine.cse_count;
  List.iter2
    (fun sql (it : Engine.batch_item) ->
      check_same_bag (sql ^ ": uncached batch still correct")
        it.Engine.item_execution.Engine.result.Exec.Executor.rows
        (Engine.query eng sql).Exec.Executor.rows)
    shared_batch b.Engine.items

(* --- service wiring --------------------------------------------------- *)

let test_service_cache_stats_surface () =
  let t =
    Service.create
      ~config:{ Service.default_config with domains = 1; enable_cache = true }
      (toy_db ())
  in
  let sql = "select eid from emp where salary > 150" in
  let r1 = Service.run t (Service.request sql) in
  let r2 = Service.run t (Service.request sql) in
  (match (r1.Service.outcome, r2.Service.outcome) with
  | Ok _, Ok _ -> ()
  | _ -> Alcotest.fail "cached service must serve both requests");
  let s = Service.stats t in
  Service.shutdown t;
  match s.Service.Stats.cache with
  | None -> Alcotest.fail "service stats must surface cache counters"
  | Some c ->
      Alcotest.(check bool) "a hit or a miss was recorded" true
        (c.Engine.plan_hits + c.Engine.plan_misses >= 2);
      Alcotest.(check bool) "rendered stats mention the cache" true
        (contains (Service.Stats.render s) "cache:")

let suite =
  [ Alcotest.test_case "canon: literal stability" `Quick test_canon_literal_stability;
    Alcotest.test_case "canon: alias stability" `Quick test_canon_alias_stability;
    Alcotest.test_case "canon: no collisions" `Quick test_canon_no_collisions;
    Alcotest.test_case "canon: generated round-trip" `Quick
      test_canon_roundtrip_generated;
    Alcotest.test_case "canon: one traversal" `Quick test_canon_one_traversal;
    Alcotest.test_case "plan cache: LRU eviction" `Quick test_plan_cache_lru_eviction;
    Alcotest.test_case "plan cache: oversized entry" `Quick
      test_plan_cache_oversized_entry;
    Alcotest.test_case "plan cache: generation invalidation" `Quick
      test_plan_cache_generation_invalidation;
    Alcotest.test_case "plan cache: single flight" `Quick test_plan_cache_single_flight;
    Alcotest.test_case "engine: hit rebinds literals" `Quick
      test_engine_hit_rebinds_literals;
    Alcotest.test_case "engine: generation bump invalidates" `Quick
      test_engine_generation_bump_invalidates;
    Alcotest.test_case "engine: value-dependent fallback" `Quick
      test_engine_value_dependent_fallback;
    Alcotest.test_case "engine: order pattern separates ranges" `Quick
      test_engine_order_pattern_separates_ranges;
    Alcotest.test_case "engine: mixed numeric tie exact path" `Quick
      test_engine_mixed_numeric_tie_exact_path;
    Alcotest.test_case "engine: cache off" `Quick test_engine_cache_off_is_none;
    Alcotest.test_case "cse: fingerprint alpha-equivalence" `Quick
      test_cse_fingerprint_alpha_equivalence;
    Alcotest.test_case "cse: candidates are closed" `Quick
      test_cse_candidates_closed_only;
    Alcotest.test_case "query_many: empty and singleton" `Quick
      test_query_many_empty_and_singleton;
    Alcotest.test_case "query_many: materializes shared subplan" `Quick
      test_query_many_materializes_shared_subplan;
    Alcotest.test_case "query_many: generation bump between batches" `Quick
      test_query_many_generation_bump_between_batches;
    Alcotest.test_case "query_many: without cache" `Quick
      test_query_many_without_cache_degenerates;
    Alcotest.test_case "service: cache stats surface" `Quick
      test_service_cache_stats_surface
  ]
