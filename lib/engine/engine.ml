(* The query engine facade: parse → bind → normalize → cost-based
   optimization → execution (the compilation pipeline of the paper's
   Section 4). *)

open Relalg

(* [engine.ml] is the library root; submodules are reachable only
   through these aliases. *)
module Errors = Errors

type t = {
  db : Storage.Database.t;
  stats : Optimizer.Stats.t;
  props_env : Props.env;
  store : Storage.Durable.t option;
      (** durable backing when opened from disk; [None] = in-memory *)
  mutable caches : caches option;
      (** shared caching tier (plan cache + CSE store); [None] until
          {!enable_cache} *)
}

(* The caching tier: a plan cache keyed on the canonical parameterized
   query form, and a store of materialized common subexpressions that
   [query_many] shares across a batch.  Lives on the engine so every
   entry point — direct queries, the service's worker pool, the REPL —
   sees the same entries. *)
and caches = {
  plans : centry Cache.Plan_cache.t;
  cse : Cache.Cse.t;
  verify_skips : int Atomic.t;
      (** verifier runs skipped because the plan came from the cache
          (it was verified when the entry was inserted) *)
}

(* Under a canonical key the cache holds either a parameterized
   template (plan compiled with per-slot sentinel literals, rebound on
   every hit) or the [NonParam] verdict that the query's plan shape
   depends on its literal values — those plans are cached under an
   exact key that includes the literal vector, as [Exact]. *)
and centry = Param of slotted | NonParam | Exact of prepared_

and slotted = { template : prepared_; sentinels : Value.t array }

and prepared_ = {
  sql : string;
  bound : Sqlfront.Binder.bound;
  stages : Normalize.stages;  (** normalization pipeline snapshots *)
  plan : Algebra.op;  (** the chosen plan *)
  plan_cost : float;
  seed_cost : float;
  explored : int;
  config : Optimizer.Config.t;
  trace : Optimizer.Search.trace option;  (** rule firings, when requested *)
  quarantined : (string * string) list;
      (** rules the verifier disabled during the search (rule, violation) *)
  lint : Analysis.Lint.finding list;
      (** static findings on the chosen plan, most severe first *)
  cache : [ `Hit | `Miss | `Stale ] option;
      (** provenance when the plan cache served this prepare: [`Hit]
          rebound a cached template, [`Miss] populated the cache,
          [`Stale] recomputed after a generation moved; [None] = cache
          disabled or bypassed *)
}

let create (db : Storage.Database.t) : t =
  { db;
    stats = Optimizer.Stats.create db;
    props_env = Catalog.props_env db.Storage.Database.catalog;
    store = None;
    caches = None;
  }

(* Open a durable engine rooted at [dir], running crash recovery
   (newest valid snapshot + WAL replay + index rebuild).  [io_env]
   routes storage I/O through the fault-injection layer (chaos
   harness).  Corruption surfaces as a typed [Storage] error. *)
let open_db ?(io_env : Storage.Io_faults.env option) ~(dir : string)
    (catalog : Catalog.t) : t =
  let store =
    try Storage.Durable.open_db ?env:io_env ~dir catalog
    with Storage.Codec.Storage_corrupt m ->
      raise (Errors.Error (Errors.make Errors.Storage m))
  in
  let db = Storage.Durable.db store in
  { db;
    stats = Optimizer.Stats.create db;
    props_env = Catalog.props_env catalog;
    store = Some store;
    caches = None;
  }

let database (t : t) = t.db
let store (t : t) = t.store
let recovery (t : t) = Option.map Storage.Durable.recovery_info t.store

(* Mutations go through the store when one is attached — journaled
   (write + fsync) before the in-memory apply — and fall back to plain
   table operations for in-memory engines.  Either way the declared
   indexes survive the mutation. *)
let load_table (t : t) (table : string) (rows : Value.t array list) : unit =
  match t.store with
  | Some s -> Storage.Durable.load s table rows
  | None ->
      Storage.Table.load (Storage.Database.table t.db table) rows;
      Storage.Database.build_declared_indexes t.db

let append_row (t : t) (table : string) (row : Value.t array) : unit =
  match t.store with
  | Some s -> Storage.Durable.append s table row
  | None -> Storage.Table.append (Storage.Database.table t.db table) row

(* Snapshot the current state and rotate the WAL; returns the new
   epoch. *)
let snapshot (t : t) : int =
  match t.store with
  | Some s -> Storage.Durable.rotate s
  | None ->
      raise
        (Errors.Error
           (Errors.make Errors.Storage "engine is in-memory: no durable store to snapshot"))

let close_store (t : t) : unit =
  match t.store with Some s -> Storage.Durable.close s | None -> ()

type prepared = prepared_ = {
  sql : string;
  bound : Sqlfront.Binder.bound;
  stages : Normalize.stages;
  plan : Algebra.op;
  plan_cost : float;
  seed_cost : float;
  explored : int;
  config : Optimizer.Config.t;
  trace : Optimizer.Search.trace option;
  quarantined : (string * string) list;
  lint : Analysis.Lint.finding list;
  cache : [ `Hit | `Miss | `Stale ] option;
}

(* Raise a typed [Invalid_plan] error for the first violation, with the
   offending subtree rendered.  [query_resilient] classifies it as
   recoverable, so a plan the verifier rejects degrades to the
   correlated fallback instead of executing a broken tree. *)
let reject_invalid ~(what : string) (sql : string) (vs : Verify.violation list) : unit =
  match vs with
  | [] -> ()
  | v :: _ ->
      let n = List.length vs in
      let msg =
        Printf.sprintf "%s failed integrity verification (%d violation%s)\n%s" what n
          (if n = 1 then "" else "s")
          (Verify.violation_to_string v)
      in
      raise (Errors.Error (Errors.make ~sql Errors.Invalid_plan msg))

(* Convert untyped escapes (failwith, Invalid_argument, Not_found) from
   a pipeline stage into a typed [Errors.Error] tagged with the stage's
   phase.  Typed exceptions pass through untouched and are classified
   later by [Errors.of_exn]. *)
let stage_guard (phase : Errors.phase) (sql : string) (f : unit -> 'a) : 'a =
  try f () with
  | Failure m -> raise (Errors.Error (Errors.make ~sql phase m))
  | Invalid_argument m ->
      raise (Errors.Error (Errors.make ~sql phase ("invalid argument: " ^ m)))
  | Not_found -> raise (Errors.Error (Errors.make ~sql phase "internal lookup failed"))

(* The full parse-to-search pipeline on a pre-bound query; every
   prepare — cached or not — ends up here for the plans it actually
   compiles. *)
let prepare_bound ?(config = Optimizer.Config.full) ?must ?(record_trace = false) (t : t)
    ~(sql : string) (bound : Sqlfront.Binder.bound) : prepared =
  let opts =
    { Normalize.env = t.props_env;
      decorrelate = config.decorrelate;
      simplify_oj = config.simplify_oj;
      class2 = config.class2;
    }
  in
  let stages = stage_guard Errors.Normalize sql (fun () -> Normalize.run opts bound.op) in
  reject_invalid ~what:"normalized plan" sql (Verify.check stages.normalized);
  reject_invalid ~what:"outerjoin simplification" sql
    (Verify.check_oj_simplification ~before:stages.decorrelated ~after:stages.oj_simplified);
  let outcome =
    stage_guard Errors.Plan sql (fun () ->
        if config.max_rounds = 0 then
          { Optimizer.Search.best = stages.normalized;
            best_cost = Optimizer.Cost.of_plan t.stats stages.normalized;
            explored = 1;
            seed_cost = Optimizer.Cost.of_plan t.stats stages.normalized;
            trace = None;
            quarantined = [];
          }
        else
          Optimizer.Search.optimize ?must ~record_trace config t.stats
            ~env:t.props_env stages.normalized)
  in
  (* The search verifies each candidate as it is produced, but the final
     choice is re-checked against the normalized schema: the executor
     slices result rows positionally, so a schema drift in the chosen
     plan would silently return wrong columns. *)
  reject_invalid ~what:"chosen plan" sql
    (Verify.check ~expect_schema:(Op.schema stages.normalized) outcome.best);
  let lint =
    Analysis.Lint.run
      ~expect:(Analysis.Lint.of_config config)
      ~env:t.props_env outcome.best
  in
  { sql;
    bound;
    stages;
    plan = outcome.best;
    plan_cost = outcome.best_cost;
    seed_cost = outcome.seed_cost;
    explored = outcome.explored;
    config;
    trace = outcome.trace;
    quarantined = outcome.quarantined;
    lint;
    cache = None;
  }

(* ------------------------------------------------------------------ *)
(* The caching tier.                                                  *)
(* ------------------------------------------------------------------ *)

let enable_cache ?(plan_bytes = 8 * 1024 * 1024) ?(cse_bytes = 64 * 1024 * 1024) (t : t)
    : unit =
  match t.caches with
  | Some _ -> ()
  | None ->
      t.caches <-
        Some
          { plans = Cache.Plan_cache.create ~max_bytes:plan_bytes ();
            cse = Cache.Cse.create ~max_bytes:cse_bytes ();
            verify_skips = Atomic.make 0;
          }

let cache_enabled (t : t) : bool = t.caches <> None

let current_gen (t : t) (table : string) : int =
  match Storage.Database.table_opt t.db table with
  | Some tb -> Storage.Table.generation tb
  | None -> -1

(* The generation vector a plan-cache entry carries: one (table,
   generation) pair per base table the plan reads. *)
let plan_gens (t : t) (plan : Algebra.op) : (string * int) list =
  List.map (fun table -> (table, current_gen t table)) (Op.tables plan)

(* A CSE entry's rows, materialized on a plain row-engine context when
   absent or stale (entry plans are CseScan-free, so this cannot
   re-enter the store). *)
let cse_fetch (t : t) (c : caches) (id : string) : Value.t array list =
  Cache.Cse.fetch c.cse ~current_gen:(current_gen t) id ~exec:(fun plan ->
      Exec.Executor.run (Exec.Executor.make_ctx t.db) plan)

(* Rough retained size of a cached template, for the byte budget. *)
let plan_bytes_of (p : prepared) : int =
  512 + (Op.count_ops p.plan * 128) + String.length p.sql

(* Cached prepare: canonicalize, look the canonical form up, rebind a
   template's sentinel constants to this query's literals on a hit.
   The template is compiled with per-slot sentinel literals whose
   pairwise order and equality REPLICATE the real literals' (see
   [Canon.sentinels]); the literals' order pattern is part of the key,
   so every value-dependent conclusion the optimizer drew from the
   sentinels (interval contradiction, bound subsumption) also holds
   for any literal vector the entry is rebound to.  If a slot's
   sentinel no longer appears in the optimized plan, constant folding
   consumed it, so the form is declared [NonParam] and the query is
   cached under an exact key that includes its literal vector.
   Rebinding performs no re-verification: the template was verified
   when the entry was inserted, and the verifier's judgment is
   independent of the values inside [Const] leaves. *)
let cached_prepare (c : caches) ~(config : Optimizer.Config.t) (t : t) (sql : string) :
    prepared =
  let cat = t.db.Storage.Database.catalog in
  let ast = Sqlfront.Parser.parse sql in
  let canon = Cache.Canon.analyze ast in
  let ckey =
    Optimizer.Config.fingerprint config
    ^ "|" ^ canon.key
    ^ "|" ^ Cache.Canon.order_pattern canon.literals
  in
  let cg = current_gen t in
  let finish status p =
    if status = `Hit then Atomic.incr c.verify_skips;
    { p with sql; cache = Some status }
  in
  let exact_path () =
    let ekey = ckey ^ "|exact|" ^ Cache.Canon.signature canon.literals in
    match
      Cache.Plan_cache.find_or_compute c.plans ~key:ekey ~current_gen:cg
        ~compute:(fun () ->
          let p = prepare_bound ~config t ~sql (Sqlfront.Binder.bind_query cat [] ast) in
          (Exact p, plan_gens t p.plan, plan_bytes_of p))
    with
    | `Hit (Exact p) -> finish `Hit p
    | `Miss (Exact p) -> finish `Miss p
    | `Stale (Exact p) -> finish `Stale p
    | _ ->
        raise
          (Errors.Error
             (Errors.make ~sql Errors.Plan
                "broken invariant: an exact plan-cache key holds a parameterised entry"))
  in
  let reals = List.map Cache.Canon.value_of_lit canon.literals in
  if
    List.exists Option.is_none reals
    (* unparseable date literal: prepare verbatim so the binder
       reports it *)
    || Cache.Canon.mixed_numeric_tie canon.literals
    (* an int slot numerically equal to a float slot: the sentinel
       grid cannot realize that equality, so a template could bake in
       a strict-order conclusion the reals violate *)
  then exact_path ()
  else begin
    let reals = List.filter_map Fun.id reals in
    let sent_lits = Cache.Canon.sentinels canon.literals in
    let sent_vals = List.filter_map Cache.Canon.value_of_lit sent_lits in
    let opaque_vals = List.filter_map Cache.Canon.value_of_lit canon.opaque in
    (* a sentinel value that also appears as a non-lifted literal would
       make rebinding rewrite the wrong constant — refuse the form *)
    let collision =
      List.length sent_vals <> List.length sent_lits
      || List.exists (fun s -> List.exists (Value.equal s) opaque_vals) sent_vals
    in
    let rebind status (s : slotted) =
      let pairs = List.combine (Array.to_list s.sentinels) reals in
      let swap v =
        Option.map snd (List.find_opt (fun (sv, _) -> Value.equal sv v) pairs)
      in
      let plan =
        if pairs = [] then s.template.plan else Cache.Consts.map_op swap s.template.plan
      in
      finish status { s.template with plan }
    in
    match
      Cache.Plan_cache.find_or_compute c.plans ~key:ckey ~current_gen:cg
        ~compute:(fun () ->
          if collision then (NonParam, [], 64)
          else
            let sq = Cache.Canon.with_literals ast sent_lits in
            let p = prepare_bound ~config t ~sql (Sqlfront.Binder.bind_query cat [] sq) in
            let counts = Cache.Consts.count sent_vals p.plan in
            if List.for_all (fun n -> n > 0) counts then
              ( Param { template = p; sentinels = Array.of_list sent_vals },
                plan_gens t p.plan,
                plan_bytes_of p )
            else (NonParam, [], 64))
    with
    | `Hit NonParam | `Miss NonParam | `Stale NonParam -> exact_path ()
    | `Hit (Param s) -> rebind `Hit s
    | `Miss (Param s) -> rebind `Miss s
    | `Stale (Param s) -> rebind `Stale s
    | `Hit (Exact _) | `Miss (Exact _) | `Stale (Exact _) ->
        raise
          (Errors.Error
             (Errors.make ~sql Errors.Plan
                "broken invariant: a canonical plan-cache key holds an exact entry"))
  end

let prepare ?(config = Optimizer.Config.full) ?must ?(record_trace = false)
    ?(use_cache = true) (t : t) (sql : string) : prepared =
  match t.caches with
  | Some c when use_cache && must = None && not record_trace ->
      cached_prepare c ~config t sql
  | _ ->
      prepare_bound ~config ?must ~record_trace t ~sql
        (Sqlfront.Binder.bind_sql t.db.Storage.Database.catalog sql)

(* Execute a prepared query.  Returns the rows plus execution counters
   (Apply invocations, rows processed) for the benches. *)
type execution = {
  result : Exec.Executor.result;
  apply_invocations : int;
  rows_processed : int;
  bridge_crossings : int;  (** always 0; kept because benchmark ledgers report it *)
  apply_batches : int;  (** vector mode: batched-Apply outer batches *)
  apply_bindings : int;  (** vector mode: distinct correlation bindings evaluated *)
  apply_dedup_hits : int;  (** vector mode: outer rows that reused a binding *)
  elapsed_s : float;
  metrics : Exec.Metrics.node option;  (** per-operator tree, when collected *)
}

type exec_mode = [ `Row | `Vector ]

let exec_mode_name = function `Row -> "row" | `Vector -> "vector"

let execute ?budget ?faults ?(collect_metrics = false) ?(property_check = false)
    ?(mode = `Row) (t : t) (p : prepared) : execution =
  let metrics = if collect_metrics then Some (Exec.Metrics.create p.plan) else None in
  let ctx = Exec.Executor.make_ctx ?budget ?faults ?metrics t.db in
  ctx.cse <- Option.map (cse_fetch t) t.caches;
  let t0 = Unix.gettimeofday () in
  let rows =
    match mode with
    | `Row -> Exec.Executor.run ctx p.plan
    | `Vector -> Vexec.run ctx p.plan
  in
  let schema = Op.schema p.plan in
  (* Runtime property cross-check: every fact the symbolic engine
     inferred must hold on actual rows.  On the plan root's result bag,
     before ORDER BY / LIMIT / projection narrowing touch it: derived
     keys, non-nullability, FDs, the cardinality interval, and the
     row-local equalities and constants.  The last two, which the
     linter reads at inner nodes, are also asserted on each closed
     subtree (one reading no outer or segment column), run on its own
     by the row engine; a subtree that raises on its own, as a Max1row
     guard the plan never reaches may, is skipped.  A violation is a
     soundness bug in the property engine or a rewrite, never a data
     problem, so it is reported as an invalid plan. *)
  if property_check then begin
    let sub_ctx = Exec.Executor.make_ctx t.db in
    sub_ctx.cse <- ctx.cse;
    let violations = ref [] in
    let rec walk (o : Algebra.op) : Fd.t * Fd.eqs =
      let kids, kid_eqs = List.split (List.map walk (Op.children o)) in
      let fd = Fd.step ~env:t.props_env o kids and eqs = Fd.eq_step o kid_eqs in
      (if o == p.plan then
         violations := Fd.check_rows fd ~schema rows @ Fd.check_eqs eqs ~schema rows @ !violations
       else if Col.Set.is_empty (Op.free_cols o) then
         match Exec.Executor.run sub_ctx o with
         | sub ->
             violations :=
               List.map
                 (fun v -> Pp.label o ^ ": " ^ v)
                 (Fd.check_eqs eqs ~schema:(Op.schema o) sub)
               @ !violations
         | exception Exec.Executor.Runtime_error _ -> ());
      (fd, eqs)
    in
    ignore (walk p.plan);
    match !violations with
    | [] -> ()
    | vs ->
        raise
          (Errors.Error
             (Errors.make ~sql:p.sql Errors.Invalid_plan
                (Printf.sprintf "property cross-check failed (%d violation%s): %s"
                   (List.length vs)
                   (if List.length vs = 1 then "" else "s")
                   (String.concat "; " vs))))
  end;
  let rows = Exec.Executor.sort_rows schema p.bound.order rows in
  let rows = Exec.Executor.truncate p.bound.limit rows in
  let visible = List.length p.bound.outputs in
  let rows =
    if List.length schema > visible then List.map (fun r -> Array.sub r 0 visible) rows
    else rows
  in
  let t1 = Unix.gettimeofday () in
  { result = { col_names = List.map fst p.bound.outputs; rows };
    apply_invocations = ctx.apply_invocations;
    rows_processed = ctx.rows_processed;
    bridge_crossings = 0;
    apply_batches = ctx.apply_batches;
    apply_bindings = ctx.apply_bindings;
    apply_dedup_hits = ctx.apply_dedup_hits;
    elapsed_s = t1 -. t0;
    metrics = Option.map Exec.Metrics.root metrics;
  }

let query ?config ?budget ?faults ?mode ?use_cache (t : t) (sql : string) :
    Exec.Executor.result =
  (execute ?budget ?faults ?mode t (prepare ?config ?use_cache t sql)).result

(* ------------------------------------------------------------------ *)
(* Cache statistics and the batch entry point.                        *)
(* ------------------------------------------------------------------ *)

type cache_stats = {
  plan_hits : int;
  plan_misses : int;
  plan_invalidations : int;
  plan_evictions : int;
  plan_single_flight_waits : int;
  plan_entries : int;
  plan_bytes : int;
  verify_skips : int;
  cse_hits : int;
  cse_materializations : int;
  cse_invalidations : int;
  cse_evictions : int;
  cse_entries : int;
  cse_bytes : int;
}

let cache_stats (t : t) : cache_stats option =
  match t.caches with
  | None -> None
  | Some c ->
      let p = Cache.Plan_cache.stats c.plans in
      let s = Cache.Plan_cache.stats c.cse.Cache.Cse.rows in
      Some
        { plan_hits = p.hits;
          plan_misses = p.misses;
          plan_invalidations = p.invalidations;
          plan_evictions = p.evictions;
          plan_single_flight_waits = p.single_flight_waits;
          plan_entries = p.entries;
          plan_bytes = p.bytes;
          verify_skips = Atomic.get c.verify_skips;
          cse_hits = s.hits;
          cse_materializations = s.misses + s.invalidations;
          cse_invalidations = s.invalidations;
          cse_evictions = s.evictions;
          cse_entries = Cache.Cse.interned c.cse;
          cse_bytes = s.bytes;
        }

(* CSE planning for a batch: tally closed subtrees across all plans by
   structural fingerprint (the store's own identity), score each
   shared one with the greedy benefit heuristic — k occurrences save
   k·cost(subplan) against k·cost(scanning the materialization) plus
   one materialization unless the store already holds rows — and
   replace the winners' occurrences with [CseScan] leaves, outermost
   first.  Substituted plans are re-verified defensively; a plan whose
   substitution fails verification keeps its original form. *)
let plan_batch_cse (c : caches) (t : t) (preps : prepared list) :
    prepared list * int * int =
  let tally : (string, Algebra.op * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (p : prepared) ->
      List.iter
        (fun (fp, sub) ->
          match Hashtbl.find_opt tally fp with
          | Some (s, n) -> Hashtbl.replace tally fp (s, n + 1)
          | None -> Hashtbl.add tally fp (sub, 1))
        (Cache.Cse.candidates p.plan))
    preps;
  (* Chosen winners, keyed by fingerprint.  Scored subtrees overlap
     (a winner can sit inside another winner): substitution is
     top-down, so only the outermost match in each plan is planted —
     entries are interned and materialized lazily, on first actual
     substitution, never for a shadowed inner winner. *)
  let chosen : (string, Algebra.op * int) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun fp (sub, k) ->
      let known = Cache.Cse.status c.cse fp in
      if k >= 2 || known <> `Absent then
        let cost = Optimizer.Cost.of_plan t.stats sub in
        let rows_hint =
          let env = Optimizer.Card.make_env t.stats sub in
          max 1 (int_of_float (Optimizer.Card.estimate env sub))
        in
        let scan =
          Optimizer.Cost.of_plan t.stats
            (Algebra.CseScan { id = "?"; cols = Op.schema sub; rows_hint })
        in
        let mat = match known with `Materialized -> 0.0 | _ -> cost in
        let k' = float_of_int k in
        let benefit = (k' *. cost) -. (k' *. scan) -. mat in
        if benefit > 0.0 then Hashtbl.replace chosen fp (sub, rows_hint))
    tally;
  if Hashtbl.length chosen = 0 then (preps, 0, 0)
  else begin
    let used : (string, string * int) Hashtbl.t = Hashtbl.create 8 in
    let nsub = ref 0 in
    let rec subst (o : Algebra.op) : Algebra.op =
      match o with
      | Algebra.TableScan _ | Algebra.ConstTable _ | Algebra.SegmentHole _
      | Algebra.CseScan _ ->
          o
      | _ -> (
          let fp = Fingerprint.of_op o in
          match Hashtbl.find_opt chosen fp with
          | Some (sub, rows_hint) ->
              let id, rows_hint =
                match Hashtbl.find_opt used fp with
                | Some cached -> cached
                | None ->
                    let id = Cache.Cse.intern c.cse sub in
                    Hashtbl.replace used fp (id, rows_hint);
                    (id, rows_hint)
              in
              incr nsub;
              Algebra.CseScan { id; cols = Op.schema o; rows_hint }
          | None -> Op.with_children o (List.map subst (Op.children o)))
    in
    let preps' =
      List.map
        (fun (p : prepared) ->
          let before = !nsub in
          let plan' = subst p.plan in
          if !nsub = before then p
          else
            match Verify.check ~expect_schema:(Op.schema p.plan) plan' with
            | [] -> { p with plan = plan' }
            | _ ->
                nsub := before;
                p)
        preps
    in
    (* pre-materialize every planted entry so statement execution only
       scans *)
    Hashtbl.iter (fun _ (id, _) -> ignore (cse_fetch t c id)) used;
    (preps', Hashtbl.length used, !nsub)
  end

type batch_item = {
  item_sql : string;
  item_prepared : prepared;
  item_execution : execution;
}

type batch = {
  items : batch_item list;
  cse_count : int;  (** CSE entries selected for this batch *)
  cse_substitutions : int;  (** CseScan occurrences planted across the batch *)
  batch_elapsed_s : float;
}

(* Batch entry point: prepare the whole workload (through the plan
   cache when enabled), pick common subexpressions jointly, then
   execute in order — materializations first (inside
   [plan_batch_cse]), statements after, so every CseScan reads rows
   that already exist. *)
let query_many ?config ?budget ?faults ?mode ?(use_cache = true) (t : t)
    (sqls : string list) : batch =
  let t0 = Unix.gettimeofday () in
  let preps = List.map (prepare ?config ~use_cache t) sqls in
  let preps, cse_count, cse_substitutions =
    match t.caches with
    | Some c when use_cache -> plan_batch_cse c t preps
    | _ -> (preps, 0, 0)
  in
  let items =
    List.map2
      (fun sql p ->
        { item_sql = sql;
          item_prepared = p;
          item_execution = execute ?budget ?faults ?mode t p;
        })
      sqls preps
  in
  { items; cse_count; cse_substitutions; batch_elapsed_s = Unix.gettimeofday () -. t0 }

(* ------------------------------------------------------------------ *)
(* Checked entry points: typed diagnostics instead of exceptions.     *)
(* ------------------------------------------------------------------ *)

let query_checked ?config ?budget ?faults (t : t) (sql : string) :
    (Exec.Executor.result, Errors.t) result =
  Errors.protect ~sql (fun () -> query ?config ?budget ?faults t sql)

(* ------------------------------------------------------------------ *)
(* Graceful degradation: the correlated plan as a fallback replica.   *)
(* ------------------------------------------------------------------ *)

(* The correlated (Apply-as-written) plan is a built-in semantic twin
   of every decorrelated plan — the orthogonality of the paper.  When
   the optimized plan dies at runtime (executor error, budget trip,
   injected fault) or fails to normalize/plan, retry the same SQL under
   [fallback] and report which path served the result. *)
type resilient = {
  execution : execution;
  served_by : string;  (** "config/engine" that produced the result *)
  degraded : bool;  (** true when the fallback path served *)
  primary_error : Errors.t option;  (** why the primary path failed *)
}

let query_resilient ?(config = Optimizer.Config.full)
    ?(fallback = Optimizer.Config.correlated_only) ?budget ?faults ?(mode = `Row) (t : t)
    (sql : string) : resilient =
  let attempt config mode = execute ?budget ?faults ~mode t (prepare ~config t sql) in
  match Errors.protect ~sql (fun () -> attempt config mode) with
  | Ok e ->
      { execution = e;
        served_by = Optimizer.Config.name_of config ^ "/" ^ exec_mode_name mode;
        degraded = false;
        primary_error = None;
      }
  | Result.Error err
    when Errors.recoverable err && (config <> fallback || mode <> `Row) -> (
      (* the fallback is always the row engine: the semantic oracle *)
      match Errors.protect ~sql (fun () -> attempt fallback `Row) with
      | Ok e ->
          { execution = e;
            served_by = Optimizer.Config.name_of fallback ^ "/" ^ exec_mode_name `Row;
            degraded = true;
            primary_error = Some err;
          }
      | Result.Error err2 -> raise (Errors.Error err2))
  | Result.Error err -> raise (Errors.Error err)

let query_resilient_checked ?config ?fallback ?budget ?faults ?mode (t : t) (sql : string)
    : (resilient, Errors.t) result =
  Errors.protect ~sql (fun () -> query_resilient ?config ?fallback ?budget ?faults ?mode t sql)

(* ------------------------------------------------------------------ *)
(* Differential checking: candidate plan vs the correlated oracle.    *)
(* ------------------------------------------------------------------ *)

type check_report = {
  check_sql : string;
  candidate : string;  (** config name of the plan under test *)
  reference : string;  (** config name of the oracle *)
  agree : bool;
  candidate_rows : int;
  candidate_exec_s : float;
  reference_rows : int;
  only_candidate : string list;  (** sample rows missing from the reference (≤ 5) *)
  only_reference : string list;  (** sample rows missing from the candidate (≤ 5) *)
  lint_errors : string list;
      (** rendered ERROR-severity lint findings on the candidate plan;
          non-empty means the plan is statically broken even if the
          result bags agree *)
}

(* [float_digits] rounds floats to that many significant digits before
   comparison: plans that differ in join order sum floats in different
   orders, and bit-exact equality would flag the resulting last-ulp
   drift as a semantic disagreement. *)
let render_row ?float_digits (r : Exec.Executor.row) : string =
  let value_to_string v =
    match (v, float_digits) with
    | Value.Float f, Some d -> Printf.sprintf "%.*g" d f
    | _ -> Value.to_string v
  in
  String.concat "|" (Array.to_list (Array.map value_to_string r))

let bag ?float_digits (rows : Exec.Executor.row list) : string list =
  List.sort compare (List.map (render_row ?float_digits) rows)

(* multiset difference of two sorted string lists: elements of [a] not
   matched by an occurrence in [b] *)
let rec bag_diff (a : string list) (b : string list) : string list =
  match (a, b) with
  | [], _ -> []
  | a, [] -> a
  | x :: a', y :: b' ->
      if x = y then bag_diff a' b'
      else if x < y then x :: bag_diff a' b
      else bag_diff a b'

let take n l =
  let rec go k = function x :: rest when k > 0 -> x :: go (k - 1) rest | _ -> [] in
  go n l

(* Run the same SQL under both configurations and compare result bags.
   Used by the CLI `check` subcommand and the differential tests: any
   disagreement is a semantic bug in normalization or optimization. *)
(* [mode] selects the engine for the candidate side only; the reference
   always runs row-at-a-time, so `~mode:\`Vector` doubles as the
   row-vs-vector differential harness (same config on both sides pins
   any disagreement on the vectorized engine alone). *)
let check ?(candidate = Optimizer.Config.full)
    ?(reference = Optimizer.Config.correlated_only) ?budget ?float_digits
    ?property_check ?(mode = `Row) (t : t) (sql : string) : check_report =
  let pc = prepare ~config:candidate t sql in
  let ce = execute ?budget ?property_check ~mode t pc in
  let c = ce.result in
  let r = (execute ?budget t (prepare ~config:reference t sql)).result in
  let cb = bag ?float_digits c.rows in
  let rb = bag ?float_digits r.rows in
  { check_sql = sql;
    candidate =
      (Optimizer.Config.name_of candidate
      ^ match mode with `Row -> "" | `Vector -> "/vector");
    reference = Optimizer.Config.name_of reference;
    agree = cb = rb;
    candidate_rows = List.length cb;
    candidate_exec_s = ce.elapsed_s;
    reference_rows = List.length rb;
    only_candidate = take 5 (bag_diff cb rb);
    only_reference = take 5 (bag_diff rb cb);
    lint_errors =
      List.map Analysis.Lint.finding_to_string (Analysis.Lint.errors pc.lint);
  }

let format_check_report (r : check_report) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s: %s (%d rows) vs %s (%d rows): %s\n" r.check_sql r.candidate
       r.candidate_rows r.reference r.reference_rows
       (if r.agree then "AGREE" else "MISMATCH"));
  List.iter
    (fun l -> Buffer.add_string b (Printf.sprintf "  lint: %s\n" l))
    r.lint_errors;
  if not r.agree then begin
    List.iter
      (fun row -> Buffer.add_string b (Printf.sprintf "  only in %s: %s\n" r.candidate row))
      r.only_candidate;
    List.iter
      (fun row -> Buffer.add_string b (Printf.sprintf "  only in %s: %s\n" r.reference row))
      r.only_reference
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)

(* Per-node property annotations for EXPLAIN: the plan tree again, one
   line per operator, carrying what the symbolic engine proved about
   its output — cardinality interval, derived keys, FD count, the
   non-nullable column set. *)
let plan_properties ~(env : Props.env) (plan : Algebra.op) : string =
  (* bottom-up, folding the property analysis; each node's line goes
     before its children's *)
  let rec walk depth o =
    let kids = List.map (walk (depth + 1)) (Op.children o) in
    let fd = Fd.step ~env o (List.map fst kids) in
    let line =
      Printf.sprintf "%s%s  %s\n"
        (String.make (2 * depth) ' ')
        (Pp.label o)
        (Fd.summary fd ~schema:(Op.schema o))
    in
    (fd, line :: List.concat_map snd kids)
  in
  String.concat "" (snd (walk 0 plan))

let plan_properties_json ~(env : Props.env) (plan : Algebra.op) : string =
  let rec walk depth o =
    let kids = List.map (walk (depth + 1)) (Op.children o) in
    let fd = Fd.step ~env o (List.map fst kids) in
    let keys = Fd.derived_keys fd ~schema:(Op.schema o) in
    let item =
      Printf.sprintf
        "{\"node\":%s,\"depth\":%d,\"card\":%s,\"keys\":[%s],\"fds\":%d,\"nonnull\":%s,\"contradiction\":%b}"
        (Json.string (Pp.label o))
        depth
        (Json.string (Fd.interval_to_string fd.Fd.card))
        (String.concat ","
           (List.map (fun k -> Json.string (Fd.cols_to_string k)) keys))
        (List.length fd.Fd.fds)
        (Json.string (Fd.cols_to_string fd.Fd.nonnull))
        (Fd.contradiction fd)
    in
    (fd, item :: List.concat_map snd kids)
  in
  "[" ^ String.concat "," (snd (walk 0 plan)) ^ "]"

(* Cache provenance of a prepared statement, for EXPLAIN output. *)
let plan_source (p : prepared) : string =
  match p.cache with
  | None -> "optimizer (cache bypassed)"
  | Some `Hit -> "plan cache hit (template rebound, verification skipped)"
  | Some `Miss -> "optimizer (plan cache miss, template inserted)"
  | Some `Stale -> "optimizer (cached plan stale, recomputed)"

let explain ?config ?(properties = true) (t : t) (sql : string) : string =
  let p = prepare ?config t sql in
  let b = Buffer.create 1024 in
  if t.caches <> None then
    Buffer.add_string b (Printf.sprintf "== plan source ==\n%s\n" (plan_source p));
  Buffer.add_string b "== subquery class ==\n";
  Buffer.add_string b (Normalize.Classify.to_string p.stages.subquery_class);
  Buffer.add_string b "\n== normalized ==\n";
  Buffer.add_string b (Pp.to_string p.stages.normalized);
  Buffer.add_string b
    (Printf.sprintf "== chosen plan (cost %.0f, seed %.0f, %d alternatives) ==\n"
       p.plan_cost p.seed_cost p.explored);
  Buffer.add_string b (Pp.to_string p.plan);
  if properties then begin
    Buffer.add_string b "== plan properties ==\n";
    Buffer.add_string b (plan_properties ~env:t.props_env p.plan)
  end;
  Buffer.add_string b "== lint ==\n";
  Buffer.add_string b (Analysis.Lint.render p.lint);
  Buffer.contents b

(* EXPLAIN ANALYZE: compile with the search trace on, execute with the
   per-operator metrics tree, and render both.  [times:false] drops
   wall-clock figures so tests can compare output verbatim. *)
let explain_analyze ?config ?budget ?(times = true) ?(properties = true) ?(mode = `Row)
    (t : t) (sql : string) : string =
  let p = prepare ?config ~record_trace:true t sql in
  let e = execute ?budget ~collect_metrics:true ~mode t p in
  let b = Buffer.create 2048 in
  Buffer.add_string b "== subquery class ==\n";
  Buffer.add_string b (Normalize.Classify.to_string p.stages.subquery_class);
  (* row-mode output is unchanged so golden tests stay stable; vector
     mode announces itself since batch counters appear in the tree *)
  (match mode with
  | `Row -> ()
  | `Vector -> Buffer.add_string b "\n== execution mode: vector ==");
  Buffer.add_string b
    (Printf.sprintf "\n== chosen plan, analyzed (cost %.0f, seed %.0f, %d alternatives) ==\n"
       p.plan_cost p.seed_cost p.explored);
  (match e.metrics with
  | Some m -> Buffer.add_string b (Exec.Metrics.render ~times m)
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf "\n%d rows, %d rows processed, %d apply invocations%s\n"
       (List.length e.result.rows)
       e.rows_processed e.apply_invocations
       (if times then Printf.sprintf ", %.3fs" e.elapsed_s else ""));
  Buffer.add_string b "\n== optimizer trace ==\n";
  (match p.trace with
  | Some tr -> Buffer.add_string b (Optimizer.Search.trace_to_string tr)
  | None -> Buffer.add_string b "(cost-based search disabled)\n");
  if properties then begin
    Buffer.add_string b "\n== plan properties ==\n";
    Buffer.add_string b (plan_properties ~env:t.props_env p.plan)
  end;
  Buffer.add_string b "\n== lint (chosen plan) ==\n";
  Buffer.add_string b (Analysis.Lint.render p.lint);
  Buffer.contents b

(* Machine-readable EXPLAIN: plan, costs and trace; with [analyze] also
   the execution counters and the per-operator metrics tree. *)
let explain_json ?config ?budget ?(analyze = false) ?(properties = true) ?(mode = `Row)
    (t : t) (sql : string) : string =
  (* recording a trace forces a fresh search, so only ask for one when
     no caching tier could serve the plan instead *)
  let p = prepare ?config ~record_trace:(t.caches = None) t sql in
  let b = Buffer.create 2048 in
  Buffer.add_string b "{";
  Buffer.add_string b (Printf.sprintf "\"sql\":%s," (Json.string sql));
  Buffer.add_string b
    (Printf.sprintf "\"plan_source\":%s," (Json.string (plan_source p)));
  Buffer.add_string b
    (Printf.sprintf "\"config\":%s,"
       (Json.string (Optimizer.Config.name_of p.config)));
  Buffer.add_string b
    (Printf.sprintf "\"subquery_class\":%s,"
       (Json.string (Normalize.Classify.to_string p.stages.subquery_class)));
  Buffer.add_string b
    (Printf.sprintf "\"plan_cost\":%.2f,\"seed_cost\":%.2f,\"explored\":%d," p.plan_cost
       p.seed_cost p.explored);
  Buffer.add_string b
    (Printf.sprintf "\"plan\":%s," (Json.string (Pp.to_string p.plan)));
  Buffer.add_string b
    (Printf.sprintf "\"trace\":%s,"
       (match p.trace with
       | Some tr -> Optimizer.Search.trace_to_json tr
       | None -> "null"));
  Buffer.add_string b (Printf.sprintf "\"lint\":%s," (Analysis.Lint.to_json p.lint));
  Buffer.add_string b
    (Printf.sprintf "\"properties\":%s,"
       (if properties then plan_properties_json ~env:t.props_env p.plan else "null"));
  (if analyze then begin
     let e = execute ?budget ~collect_metrics:true ~mode t p in
     Buffer.add_string b
       (Printf.sprintf
          "\"execution\":{\"exec_mode\":%s,\"elapsed_s\":%.6f,\"rows\":%d,\"rows_processed\":%d,\"apply_invocations\":%d,\"metrics\":%s}"
          (Json.string (exec_mode_name mode))
          e.elapsed_s
          (List.length e.result.rows)
          e.rows_processed e.apply_invocations
          (match e.metrics with Some m -> Exec.Metrics.to_json m | None -> "null"))
   end
   else Buffer.add_string b "\"execution\":null");
  Buffer.add_string b "}";
  Buffer.contents b

let explain_stages ?config (t : t) (sql : string) : string =
  let p = prepare ?config t sql in
  let b = Buffer.create 2048 in
  let stage name op =
    Buffer.add_string b ("== " ^ name ^ " ==\n");
    Buffer.add_string b (Pp.to_string op)
  in
  stage "bound (mutual recursion)" p.stages.bound;
  stage "apply introduced" p.stages.applied;
  stage "decorrelated" p.stages.decorrelated;
  stage "outerjoin simplified" p.stages.oj_simplified;
  stage "normalized" p.stages.normalized;
  stage "chosen plan" p.plan;
  Buffer.contents b

(* Print a result as an aligned table (CLI / examples). *)
let format_result (r : Exec.Executor.result) : string =
  let cells =
    r.col_names
    :: List.map (fun row -> List.map Value.to_string (Array.to_list row)) r.rows
  in
  let ncols = List.length r.col_names in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i s -> if i < ncols then widths.(i) <- max widths.(i) (String.length s)))
    cells;
  let line l =
    String.concat " | " (List.mapi (fun i s -> Printf.sprintf "%-*s" widths.(i) s) l)
  in
  let sep =
    String.concat "-+-" (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  match cells with
  | header :: rows ->
      String.concat "\n" ((line header :: sep :: List.map line rows) @ [])
      ^ Printf.sprintf "\n(%d rows)" (List.length rows)
  | [] -> "(empty)"
