(* Host-normalised end-to-end benchmark.  See README.md in this
   directory for the workloads, the metrics and the reference kernel.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints a few human-readable lines and, as the last line of stdout,
   one JSON object: {"correct", "attempted", "failed", "metrics"}.
   With --trace 0 the metrics are the end-to-end ones, with --trace 1
   the per-layer ones from a run that records spans. *)

module Value = Relalg.Value
module Rng = Exec.Faults.Rng

(* ------------------------------------------------------------------ *)
(* Measurement state: kernel windows, latencies, spans, counters.     *)
(* ------------------------------------------------------------------ *)

(* A span around one public call the benchmark makes.  [op] is the
   operation it belongs to; -1 marks consistency-check work done
   outside the timed loop, which no per-operation figure includes. *)
type span = { op : int; name : string; parent : string; win : int; t0 : float; t1 : float }

type st = {
  traced : bool;
  mutable kernels : Kernel.sample list;  (** newest first *)
  mutable win : int;  (** window opened by the newest kernel sample *)
  mutable win_t0 : float;
  mutable win_excluded : float;  (** untimed seconds inside the open window *)
  mutable busy : float list;  (** raw timed seconds per closed window, newest first *)
  mutable lat : (int * float) list;  (** (window, raw seconds) per completed operation *)
  mutable ops : int;
  mutable failed : int;
  mutable spans : span list;
  mutable setup : float list;  (** normalised seconds per set-up repetition *)
  mutable recovery : float list;  (** normalised seconds of recovery per set-up *)
  mutable kernel_minor_words : float;  (** allocated by kernel calls, incl. their GC *)
  mutable kernel_minors : int;
  mutable kernel_majors : int;
  mutable excluded_words : float;  (** allocated by untimed bookkeeping in the loop *)
  counters : (string, float) Hashtbl.t;
}

let make_st traced =
  { traced; kernels = []; win = 0; win_t0 = 0.; win_excluded = 0.; busy = []; lat = [];
    ops = 0; failed = 0; spans = []; setup = []; recovery = []; kernel_minor_words = 0.;
    kernel_minors = 0; kernel_majors = 0; excluded_words = 0.;
    counters = Hashtbl.create 32 }

let count st name v =
  Hashtbl.replace st.counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt st.counters name))

let counter st name = Option.value ~default:0. (Hashtbl.find_opt st.counters name)

(* Run the kernel between windows: close the open window, take one
   kernel sample, open the next window. *)
let checkpoint st =
  let t = Clock.now () in
  if st.kernels <> [] then st.busy <- (t -. st.win_t0 -. st.win_excluded) :: st.busy;
  let g0 = Gc.quick_stat () in
  let k = Kernel.run () in
  let g1 = Gc.quick_stat () in
  st.kernel_minor_words <- st.kernel_minor_words +. (g1.minor_words -. g0.minor_words);
  st.kernel_minors <- st.kernel_minors + (g1.minor_collections - g0.minor_collections);
  st.kernel_majors <- st.kernel_majors + (g1.major_collections - g0.major_collections);
  st.kernels <- k :: st.kernels;
  st.win <- List.length st.kernels - 1;
  st.win_excluded <- 0.;
  st.win_t0 <- Clock.now ()

(* Work inside a window that no timing may include (digests, trace
   replays): its time and allocation are subtracted. *)
let untimed st f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  let r = f () in
  st.win_excluded <- st.win_excluded +. (Clock.now () -. t0);
  st.excluded_words <- st.excluded_words +. (Gc.minor_words () -. w0);
  r

let record st raw = st.lat <- (st.win, raw) :: st.lat

(* Window w lies between kernel samples w and w+1; its factor scales
   raw host time to nominal host time. *)
let factors st : float array =
  let k = Array.of_list (List.rev_map (fun (s : Kernel.sample) -> s.seconds) st.kernels) in
  Array.init
    (max 0 (Array.length k - 1))
    (fun w -> Kernel.nominal_s /. ((k.(w) +. k.(w + 1)) /. 2.))

let span st ~op ?(parent = "op") name f =
  if not st.traced then f ()
  else begin
    let t0 = Clock.now () in
    let win = st.win in
    Fun.protect
      ~finally:(fun () ->
        st.spans <- { op; name; parent; win; t0; t1 = Clock.now () } :: st.spans)
      f
  end

(* Time one set-up repetition between two kernel samples.  [f] returns
   its state and the raw seconds it spent in crash recovery. *)
let timed_setup st f =
  let k0 = Kernel.run () in
  let t0 = Clock.now () in
  let r, recovery = f () in
  let raw = Clock.now () -. t0 in
  let k1 = Kernel.run () in
  let factor = Kernel.nominal_s /. ((k0.seconds +. k1.seconds) /. 2.) in
  st.setup <- (raw *. factor) :: st.setup;
  st.recovery <- (recovery *. factor) :: st.recovery;
  r

let setup_reps = 3

(* Set up [setup_reps] times, keeping the last state; every earlier
   one is released and collected outside the timing. *)
let repeated_setup st ~(setup : unit -> 'a * float) ~(release : 'a -> unit) : 'a =
  let rec go i =
    let s = timed_setup st setup in
    if i = setup_reps then s
    else begin
      release s;
      Gc.full_major ();
      go (i + 1)
    end
  in
  go 1

(* The closed loop: call [op i] for i = 0, 1, … until [seconds] of
   wall time have passed and a whole number of [round]s is done, with
   a kernel sample before the first operation, after every [every]
   operations ([drain] is called first so nothing is in flight), and
   after the last.  Whole rounds keep the mix of operations the same
   in every run. *)
let timed_loop st ~seconds ~every ~round ?(drain = fun () -> ()) (op : int -> unit) : unit =
  checkpoint st;
  let g0 = Gc.quick_stat () in
  let k0 = (st.kernel_minor_words, st.kernel_minors, st.kernel_majors, st.excluded_words) in
  let deadline = Clock.now () +. float_of_int seconds in
  let i = ref 0 in
  while !i mod round <> 0 || Clock.now () < deadline do
    op !i;
    incr i;
    if !i mod every = 0 then begin
      drain ();
      checkpoint st
    end
  done;
  drain ();
  if !i mod every <> 0 then checkpoint st;
  let g1 = Gc.quick_stat () in
  let kw, kmin, kmaj, xw = k0 in
  let words =
    g1.minor_words -. g0.minor_words +. g1.major_words -. g0.major_words
    -. (g1.promoted_words -. g0.promoted_words)
    -. (st.kernel_minor_words -. kw) -. (st.excluded_words -. xw)
  in
  st.ops <- !i;
  count st "gc.alloc_words" words;
  count st "gc.minor_collections"
    (float_of_int (g1.minor_collections - g0.minor_collections - (st.kernel_minors - kmin)));
  count st "gc.major_collections"
    (float_of_int (g1.major_collections - g0.major_collections - (st.kernel_majors - kmaj)))

(* ------------------------------------------------------------------ *)
(* Result bags.                                                       *)
(* ------------------------------------------------------------------ *)

(* Order-insensitive digest of a result bag.  Floats are compared to
   six significant digits: two engines, or two plans, may sum the same
   floats in different orders. *)
let digest (r : Exec.Executor.result) : string =
  let cell = function
    | Value.Float f when f = 0. -> "0"
    | Value.Float f -> Printf.sprintf "%.6g" f
    | v -> Value.to_string v
  in
  r.rows
  |> List.map (fun row -> String.concat "|" (Array.to_list (Array.map cell row)))
  |> List.sort compare |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* Budgets are row caps, never wall-clock limits, so whether an
   operation fails cannot depend on the host's speed. *)
let budget = Exec.Budget.make ~max_rows:2_000_000 ()

(* Correlated-only plans re-run their subqueries per outer row, so the
   oracle gets a larger cap. *)
let oracle_budget = Exec.Budget.make ~max_rows:20_000_000 ()

(* ------------------------------------------------------------------ *)
(* The planner stages, rebuilt from outside (traced runs only).       *)
(* ------------------------------------------------------------------ *)

type planner = { db : Storage.Database.t; stats : Optimizer.Stats.t; env : Relalg.Props.env }

let planner_of (db : Storage.Database.t) =
  { db; stats = Optimizer.Stats.create db; env = Catalog.props_env db.catalog }

(* Parse → canonicalise → bind → normalize → verify → search → verify
   → lint, each in its own span, under one "plan" span.  Returns the
   chosen plan's cost and the number of alternatives explored. *)
let traced_plan st ~op (pl : planner) (sql : string) : float * int =
  let config = Optimizer.Config.full in
  let sp name f = span st ~op ~parent:"plan" name f in
  span st ~op "plan" (fun () ->
      let ast = sp "sqlfront.parse" (fun () -> Sqlfront.Parser.parse sql) in
      ignore (sp "cache.canon" (fun () -> Cache.Canon.analyze ast));
      let bound =
        sp "sqlfront.bind" (fun () -> Sqlfront.Binder.bind_query pl.db.catalog [] ast)
      in
      let opts =
        { Normalize.env = pl.env;
          decorrelate = config.decorrelate;
          simplify_oj = config.simplify_oj;
          class2 = config.class2;
        }
      in
      let stages = sp "normalize.run" (fun () -> Normalize.run opts bound.op) in
      sp "relalg.verify" (fun () ->
          ignore (Relalg.Verify.check stages.normalized);
          ignore
            (Relalg.Verify.check_oj_simplification ~before:stages.decorrelated
               ~after:stages.oj_simplified));
      let out =
        sp "optimizer.search" (fun () ->
            Optimizer.Search.optimize config pl.stats ~env:pl.env stages.normalized)
      in
      sp "relalg.verify" (fun () ->
          ignore
            (Relalg.Verify.check
               ~expect_schema:(Relalg.Op.schema stages.normalized)
               out.best));
      ignore
        (sp "analysis.lint" (fun () ->
             Analysis.Lint.run ~expect:(Analysis.Lint.of_config config) ~env:pl.env out.best));
      (out.best_cost, out.explored))

(* Replay [sql] through the traced stages and through Engine.prepare
   (uncached), outside every timed window; the two must choose plans of
   the same cost.  Their times give the tracing overhead.  The order
   alternates so neither side always runs with warm caches. *)
let plan_check st ~op (pl : planner) (eng : Engine.t) (sql : string) : unit =
  let engine () =
    let t0 = Clock.now () in
    let p = Engine.prepare ~use_cache:false eng sql in
    count st "trace.untraced_s" (Clock.now () -. t0);
    p.plan_cost
  in
  let traced () =
    let t0 = Clock.now () in
    let r = traced_plan st ~op pl sql in
    count st "trace.traced_s" (Clock.now () -. t0);
    r
  in
  let n = counter st "trace.plan_checks" in
  let cost_e, (cost_t, explored) =
    if Float.rem n 2. = 0. then
      let c = engine () in
      (c, traced ())
    else
      let r = traced () in
      (engine (), r)
  in
  count st "trace.plan_checks" 1.;
  if op >= 0 then count st "optimizer.explored" (float_of_int explored);
  if Float.abs (cost_e -. cost_t) > 1e-9 *. Float.max 1. (Float.abs cost_e) then begin
    count st "trace.plan_cost_mismatches" 1.;
    st.failed <- st.failed + 1;
    Printf.printf "plan cost mismatch: traced %g vs Engine.prepare %g: %s\n" cost_t cost_e sql
  end

(* ------------------------------------------------------------------ *)
(* The eight report queries with literals drawn from the seed.        *)
(* ------------------------------------------------------------------ *)

(* The eight queries of bench/workloads.ml.  Each draw keeps the
   literals' relative order and equalities fixed, so every variant of
   a query maps to the same parameterised plan-cache key.  LIKE
   patterns are part of the key, so q2's stays fixed: otherwise the
   number of cold prepares in set-up would depend on the seed. *)
let report_query (rng : Rng.t) (q : int) : string =
  let pick a = a.(Rng.int rng (Array.length a)) in
  let range lo hi = lo + Rng.int rng (hi - lo + 1) in
  match q with
  | 0 ->
      Printf.sprintf
        "select c_custkey from customer where %d < (select sum(o_totalprice) from orders \
         where o_custkey = c_custkey)"
        (range 300_000 700_000)
  | 1 ->
      let region = pick [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |] in
      Printf.sprintf
        "select s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment \
         from part, supplier, partsupp, nation, region \
         where p_partkey = ps_partkey and s_suppkey = ps_suppkey \
         and p_size = %d and p_type like '%%BRASS' \
         and s_nationkey = n_nationkey and n_regionkey = r_regionkey and r_name = '%s' \
         and ps_supplycost = (select min(ps_supplycost) from partsupp, supplier, nation, region \
         where p_partkey = ps_partkey and s_suppkey = ps_suppkey \
         and s_nationkey = n_nationkey and n_regionkey = r_regionkey and r_name = '%s') \
         order by s_acctbal desc, n_name, s_name, p_partkey limit 100"
        (range 1 50) region region
  | 2 ->
      Printf.sprintf
        "select sum(l_extendedprice) / 7.0 as avg_yearly from lineitem, part \
         where p_partkey = l_partkey and p_brand = 'Brand#%d%d' and p_container = '%s' \
         and l_quantity < (select 0.2 * avg(l_quantity) from lineitem l2 \
         where l2.l_partkey = part.p_partkey)"
        (range 1 5) (range 1 5)
        (pick [| "MED BOX"; "SM CASE"; "LG PACK"; "JUMBO PKG"; "WRAP BOX" |])
  | 3 ->
      Printf.sprintf
        "select sum(l_extendedprice) / 7.0 as avg_yearly from lineitem, part \
         where p_partkey = l_partkey \
         and l_quantity < (select 0.%d * avg(l_quantity) from lineitem l2 \
         where l2.l_partkey = part.p_partkey)"
        (range 3 7)
  | 4 ->
      "select n_name, sum(l_extendedprice) as revenue, count(*) as lines \
       from nation, supplier, lineitem \
       where s_nationkey = n_nationkey and l_suppkey = s_suppkey \
       group by n_name order by n_name"
  | 5 ->
      Printf.sprintf
        "select s_name from supplier where exists \
         (select ps_suppkey from partsupp where ps_suppkey = s_suppkey and ps_availqty > %d) \
         order by s_name"
        (range 8000 9900)
  | 6 ->
      Printf.sprintf
        "select o_orderkey, o_totalprice from orders \
         where o_totalprice > (select %d.5 * avg(o2.o_totalprice) from orders o2 \
         where o2.o_custkey = orders.o_custkey) \
         order by o_totalprice desc limit 20"
        (range 1 2)
  | _ ->
      "select c_custkey from customer \
       where not exists (select o_orderkey from orders where o_custkey = c_custkey) \
       and c_acctbal > (select avg(c2.c_acctbal) from customer c2 \
       where c2.c_nationkey = customer.c_nationkey) \
       order by c_custkey"

let report_queries = 8
let variants_per_query = 4

(* The orders reads take the queries in.  serve-ingest reads the
   revenue query (no literals, tables no append touches) twice: with
   appends a fifth of its operations and each query once, its median
   fell exactly on the boundary between two queries' latency clusters
   and jumped between them from run to run. *)
let report_rotation = [| 0; 1; 2; 3; 4; 5; 6; 7 |]
let serve_rotation = [| 0; 1; 2; 3; 4; 5; 6; 7; 4 |]

(* The pool slot of the [n]th read: the query [rotation] names, in a
   variant drawn from [rng]. *)
let read_slot rotation (rng : Rng.t) (n : int) : int =
  rotation.(n mod Array.length rotation) + (report_queries * Rng.int rng variants_per_query)

(* [variants_per_query] draws of each query; duplicates are kept, so
   the pool's shape does not depend on the seed. *)
let report_pool (rng : Rng.t) : string array =
  Array.init (report_queries * variants_per_query) (fun i -> report_query rng (i mod report_queries))

(* ------------------------------------------------------------------ *)
(* Workloads.                                                         *)
(* ------------------------------------------------------------------ *)

type cache_mark = { hits : float; misses : float; stale : float }

let cache_mark eng =
  match Engine.cache_stats eng with
  | Some c ->
      { hits = float_of_int c.plan_hits;
        misses = float_of_int c.plan_misses;
        stale = float_of_int c.plan_invalidations;
      }
  | None -> { hits = 0.; misses = 0.; stale = 0. }

let no_mark = { hits = 0.; misses = 0.; stale = 0. }

let cache_delta st (a : cache_mark) (b : cache_mark) =
  count st "cache.hits" (b.hits -. a.hits);
  count st "cache.misses" (b.misses -. a.misses);
  count st "cache.invalidations" (b.stale -. a.stale)

let exec_counters st prefix (e : Engine.execution) =
  count st (prefix ^ ".rows_processed") (float_of_int e.rows_processed);
  count st (prefix ^ ".apply_invocations") (float_of_int e.apply_invocations);
  count st (prefix ^ ".bridge_crossings") (float_of_int e.bridge_crossings);
  count st (prefix ^ ".apply_bindings") (float_of_int e.apply_bindings);
  count st (prefix ^ ".apply_dedup_hits") (float_of_int e.apply_dedup_hits)

(* Numeric predicate ranges of the generator's catalog model. *)
let num_ranges : (string, bool * float * float) Hashtbl.t =
  let h = Hashtbl.create 32 in
  List.iter
    (fun (m : Testgen.Qgen.tmodel) ->
      List.iter (fun (col, is_int, lo, hi) -> Hashtbl.replace h col (is_int, lo, hi)) m.nums)
    Testgen.Qgen.model;
  h

(* Redraw every numeric predicate constant of a generated statement
   the way the generator draws it. *)
let fresh_literals (rng : Rng.t) (spec : Testgen.Qgen.spec) : Testgen.Qgen.spec =
  let open Testgen.Qgen in
  let num (n : num_pred) =
    match Hashtbl.find_opt num_ranges n.n_col with
    | Some (is_int, lo, hi) ->
        let v = lo +. (Rng.float rng *. (hi -. lo)) in
        { n with n_const = (if is_int then Float.of_int (int_of_float v) else v) }
    | None -> n
  in
  let rec block (b : block) =
    { b with b_nums = List.map num b.b_nums; b_subs = List.map sub b.b_subs }
  and sub = function
    | SExists (neg, b) -> SExists (neg, block b)
    | SIn (outer, b, inner) -> SIn (outer, block b, inner)
    | SAggCmp (outer, c, f, col, b) -> SAggCmp (outer, c, f, col, block b)
  in
  { spec with s_body = block spec.s_body; s_join_nums = List.map num spec.s_join_nums }

(* The statement shapes adhoc-cold plans: the first [adhoc_shapes]
   cases of one generator seed, unfiltered.  The benchmark's seed
   draws their literals. *)
let adhoc_shape_seed = 1
let adhoc_shapes = 48

(* adhoc-cold: generated statements on the engine the CLI's [run]
   uses (cache on, row engine).  Each pass plans every shape once on a
   fresh engine with freshly drawn literals, so every statement is a
   new plan-cache key.  Planning dominates. *)
let adhoc_cold st ~seed ~seconds =
  let setup () =
    let db = Datagen.Tpch_gen.database ~sf:0.01 () in
    let eng = Engine.create db in
    Engine.enable_cache eng;
    (eng, 0.)
  in
  let first = repeated_setup st ~setup ~release:ignore in
  let db = Engine.database first in
  let eng = ref first in
  let pl = planner_of db in
  let shapes = Array.init adhoc_shapes (fun case -> Testgen.Qgen.spec_of ~seed:adhoc_shape_seed ~case) in
  let rng = Rng.create seed in
  let checks = ref [] in
  timed_loop st ~seconds ~every:2 ~round:adhoc_shapes (fun i ->
      let case = i mod adhoc_shapes in
      if i > 0 && case = 0 then
        untimed st (fun () ->
            cache_delta st no_mark (cache_mark !eng);
            eng := Engine.create db;
            Engine.enable_cache !eng);
      let sql = untimed st (fun () -> Testgen.Qgen.render (fresh_literals rng shapes.(case))) in
      let t0 = Clock.now () in
      match
        let p = span st ~op:i "engine.prepare" (fun () -> Engine.prepare !eng sql) in
        span st ~op:i "exec.run" (fun () -> Engine.execute ~budget !eng p)
      with
      | e ->
          record st (Clock.now () -. t0);
          untimed st (fun () ->
              exec_counters st "exec" e;
              if i < adhoc_shapes && (case + seed) land 3 = 0 then
                checks := (sql, digest e.result) :: !checks;
              if st.traced then plan_check st ~op:i pl !eng sql)
      | exception ex ->
          st.failed <- st.failed + 1;
          Printf.printf "failed: %s: %s\n" (Printexc.to_string ex) sql);
  cache_delta st no_mark (cache_mark !eng);
  (* the correlated-only row engine is the oracle *)
  let oracle = Engine.create db in
  let unchecked = ref 0 in
  List.iter
    (fun (sql, d) ->
      match
        Engine.execute ~budget:oracle_budget oracle
          (Engine.prepare ~config:Optimizer.Config.correlated_only oracle sql)
      with
      | e when digest e.result = d -> ()
      | _ ->
          st.failed <- st.failed + 1;
          Printf.printf "wrong bag against the correlated oracle: %s\n" sql
      | exception _ -> incr unchecked)
    !checks;
  Printf.printf "oracle checks: %d compared, %d beyond the oracle's row budget\n"
    (List.length !checks - !unchecked) !unchecked

(* report-warm: the eight report queries on the vector engine over a
   warmed plan cache.  The vector executor does nearly all the work. *)
let report_warm st ~seed ~seconds =
  let pool = report_pool (Rng.create seed) in
  let setup () =
    let db = Datagen.Tpch_gen.database ~sf:0.2 () in
    let eng = Engine.create db in
    Engine.enable_cache eng;
    Array.iter (fun sql -> ignore (Engine.prepare eng sql)) pool;
    (eng, 0.)
  in
  let eng = repeated_setup st ~setup ~release:ignore in
  let rng = Rng.create (seed lxor 0x5eed) in
  (* per pool slot: the prepared plan and the vector bag's digest *)
  let seen : (Engine.prepared * string) option array = Array.make (Array.length pool) None in
  let mark0 = cache_mark eng in
  timed_loop st ~seconds ~every:report_queries ~round:report_queries (fun i ->
      let v = read_slot report_rotation rng i in
      let sql = pool.(v) in
      let t0 = Clock.now () in
      match
        let p = span st ~op:i "engine.prepare" (fun () -> Engine.prepare eng sql) in
        let e =
          span st ~op:i "vexec.run" (fun () -> Engine.execute ~budget ~mode:`Vector eng p)
        in
        (p, e)
      with
      | p, e ->
          record st (Clock.now () -. t0);
          untimed st (fun () ->
              exec_counters st "vexec" e;
              (* the hit path's own work, replayed for the trace *)
              if st.traced then begin
                let ast =
                  span st ~op:i ~parent:"hit" "sqlfront.parse" (fun () ->
                      Sqlfront.Parser.parse sql)
                in
                ignore (span st ~op:i ~parent:"hit" "cache.canon" (fun () -> Cache.Canon.analyze ast))
              end;
              let d = digest e.result in
              match seen.(v) with
              | None -> seen.(v) <- Some (p, d)
              | Some (_, d0) when d0 = d -> ()
              | Some _ ->
                  st.failed <- st.failed + 1;
                  Printf.printf "vector bag changed between runs: %s\n" sql)
      | exception ex ->
          st.failed <- st.failed + 1;
          Printf.printf "failed: %s: %s\n" (Printexc.to_string ex) sql);
  cache_delta st mark0 (cache_mark eng);
  (* the row engine on the same plan is the reference *)
  let pl = planner_of (Engine.database eng) in
  Array.iteri
    (fun v slot ->
      match slot with
      | None -> ()
      | Some (p, d) ->
          (match Engine.execute ~budget ~mode:`Row eng p with
          | e when digest e.result = d -> ()
          | _ | (exception _) ->
              st.failed <- st.failed + 1;
              Printf.printf "vector bag differs from the row bag: %s\n" pool.(v));
          if st.traced then plan_check st ~op:(-1) pl eng pool.(v))
    seen

(* Recursively delete a directory the benchmark created. *)
let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_bytes dir ~prefix =
  Array.fold_left
    (fun acc f ->
      if String.starts_with ~prefix f then acc + (Unix.stat (Filename.concat dir f)).st_size
      else acc)
    0 (Sys.readdir dir)

let wal_tail = 200
let serve_sf = 0.05

(* Service worker domains, and requests kept in flight.  With two, the
   host's slow stretches cost the service far more than the reference
   kernel (ten seeds: raw throughput 44–107 qps while kernel time moved
   9.2–13 ms), so normalised figures spread 20–55%. *)
let serve_domains = 1

(* A new order with a fresh key; [k] numbers the appends. *)
let new_order (rng : Rng.t) ~first_key ~customers k : Value.t array =
  [| Value.Int (first_key + k);
     Value.Int (1 + Rng.int rng customers);
     Value.Str "O";
     Value.Float (float_of_int (1000 + Rng.int rng 400_000));
     Value.Date (Value.date_of_ymd 1998 1 1 + Rng.int rng 200);
     Value.Str "3-MEDIUM";
  |]

let count_rows eng table =
  Storage.Table.row_count (Storage.Database.table (Engine.database eng) table)

(* serve-ingest: reads through the service (cache on) with every fifth
   operation a journaled append to orders, which makes the next cached
   plan over orders stale.  Set-up is crash recovery: snapshot plus a
   WAL tail. *)
let serve_ingest st ~seed ~seconds =
  let dir = Printf.sprintf "_perfbench/serve-%d" (Unix.getpid ()) in
  remove_tree dir;
  (try Sys.mkdir "_perfbench" 0o755 with Sys_error _ -> ());
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let rng = Rng.create seed in
  let customers = ref 0 and first_key = ref 0 in
  (* the store: snapshot of the generated data, then a WAL tail *)
  (let src = Datagen.Tpch_gen.database ~sf:serve_sf () in
   let eng = Engine.open_db ~dir (Catalog.tpch ()) in
   List.iter
     (fun name ->
       Engine.load_table eng name (Storage.Table.to_rows (Storage.Database.table src name)))
     (Catalog.table_names src.catalog);
   ignore (Engine.snapshot eng);
   customers := count_rows eng "customer";
   first_key := count_rows eng "orders" + 1;
   for k = 0 to wal_tail - 1 do
     Engine.append_row eng "orders" (new_order rng ~first_key:!first_key ~customers:!customers k)
   done;
   Engine.close_store eng);
  let config = { Service.default_config with domains = serve_domains; enable_cache = true } in
  let recovered = ref (None : Storage.Durable.recovery option) in
  let setup () =
    let t0 = Clock.now () in
    let eng = Engine.open_db ~dir (Catalog.tpch ()) in
    let recovery = Clock.now () -. t0 in
    recovered := Engine.recovery eng;
    (Service.create_with ~config eng, recovery)
  in
  let svc = repeated_setup st ~setup ~release:Service.shutdown in
  let eng = Service.engine svc in
  let base_rows = count_rows eng "orders" in
  let pool = report_pool rng in
  let pl = planner_of (Engine.database eng) in
  let appended = ref 0 in
  let inflight = Queue.create () in
  let replans = ref [] in
  let mark = ref (cache_mark eng) in
  let reply_done i sql (r : Service.reply) =
    match r.outcome with
    | Ok e ->
        record st r.total_s;
        count st "service.queued_s" r.queued_s;
        count st "service.total_s" r.total_s;
        count st "service.retries" (float_of_int r.retries);
        count st "service.reads" 1.;
        count st "vexec.run_s" e.elapsed_s;
        exec_counters st "vexec" e;
        if st.traced then begin
          (* replans since the last reply, replayed at the next
             quiescent point *)
          let m = cache_mark eng in
          let n = m.misses -. !mark.misses +. (m.stale -. !mark.stale) in
          mark := m;
          for _ = 1 to int_of_float n do
            replans := (i, sql) :: !replans
          done
        end
    | Error err ->
        st.failed <- st.failed + 1;
        Printf.printf "failed: %s: %s\n" (Service.error_to_string err) sql
  in
  let await_one () =
    let i, sql, ticket = Queue.pop inflight in
    reply_done i sql (Service.await svc ticket)
  in
  let drain () =
    while not (Queue.is_empty inflight) do
      await_one ()
    done;
    List.iter (fun (i, sql) -> untimed st (fun () -> plan_check st ~op:i pl eng sql)) !replans;
    replans := []
  in
  let wal0 = dir_bytes dir ~prefix:"wal-" in
  let stats0 = Service.stats svc in
  let mark0 = cache_mark eng in
  let reads = ref 0 in
  (* a round holds whole cycles of appends (5 operations) and of the
     read rotation (9 reads) *)
  timed_loop st ~seconds ~every:15 ~round:45 ~drain (fun i ->
      if i mod 5 = 4 then begin
        (* no more busy threads than worker domains *)
        if Queue.length inflight >= serve_domains then await_one ();
        let row = new_order rng ~first_key:!first_key ~customers:!customers (wal_tail + !appended) in
        let t0 = Clock.now () in
        match span st ~op:i "storage.append" (fun () -> Service.append_row svc "orders" row) with
        | () ->
            record st (Clock.now () -. t0);
            incr appended
        | exception ex ->
            st.failed <- st.failed + 1;
            Printf.printf "append failed: %s\n" (Printexc.to_string ex)
      end
      else begin
        if Queue.length inflight >= serve_domains then await_one ();
        let sql = pool.(read_slot serve_rotation rng !reads) in
        incr reads;
        match Service.submit svc (Service.request sql) with
        | Ok ticket -> Queue.push (i, sql, ticket) inflight
        | Error err ->
            st.failed <- st.failed + 1;
            Printf.printf "refused: %s\n" (Service.error_to_string err)
      end);
  cache_delta st mark0 (cache_mark eng);
  let stats1 = Service.stats svc in
  count st "service.shed"
    (float_of_int (stats1.shed + stats1.shed_dispatch - stats0.shed - stats0.shed_dispatch));
  count st "storage.wal_bytes" (float_of_int (dir_bytes dir ~prefix:"wal-" - wal0));
  count st "storage.appends" (float_of_int !appended);
  (match !recovered with
  | Some r -> count st "storage.replayed_entries" (float_of_int r.rec_entries_replayed)
  | None -> ());
  (* quiesced: every acknowledged append is visible, and the service's
     cached reads agree with a fresh uncached engine *)
  let expect = base_rows + !appended in
  (match (Service.run svc (Service.request "select count(*) from orders")).outcome with
  | Ok { result = { rows = [ [| Value.Int n |] ]; _ }; _ } when n = expect -> ()
  | _ ->
      st.failed <- st.failed + 1;
      Printf.printf "orders row count differs from recovered + acknowledged (%d)\n" expect);
  let fresh = Engine.create (Engine.database eng) in
  for q = 0 to report_queries - 1 do
    let sql = pool.(q) in
    match (Service.run svc (Service.request sql)).outcome with
    | Ok e when digest e.result = digest (Engine.query ~budget fresh sql) -> ()
    | _ | (exception _) ->
        st.failed <- st.failed + 1;
        Printf.printf "service read differs from a fresh uncached engine: %s\n" sql
  done;
  Service.shutdown svc

(* ------------------------------------------------------------------ *)
(* Metrics.                                                           *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile of a sorted array *)
let pct (a : float array) p =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* The highest percentile on a fixed ladder with at least ten samples
   beyond it. *)
let tail_rank n =
  List.find_opt (fun p -> float_of_int n *. (1. -. p) >= 10.) [ 0.99; 0.95; 0.9; 0.75 ]
  |> Option.value ~default:0.5

let quartile_spread xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let m = median xs in
  if m = 0. then 0. else (pct a 0.75 -. pct a 0.25) /. m

let end_to_end st (f : float array) =
  let norm w raw = if w < Array.length f then raw *. f.(w) else raw *. f.(Array.length f - 1) in
  let lat = Array.of_list (List.map (fun (w, raw) -> norm w raw) st.lat) in
  Array.sort compare lat;
  let n = Array.length lat in
  let busy = List.rev st.busy |> List.mapi norm |> List.fold_left ( +. ) 0. in
  let tail = tail_rank n in
  let geomean =
    exp (Array.fold_left (fun acc x -> acc +. log (Float.max x 1e-9)) 0. lat /. float_of_int (max 1 n))
  in
  [ ("setup_s", median st.setup, "s");
    ("throughput_qps", float_of_int st.ops /. busy, "1/s");
    ("latency_p50_ms", pct lat 0.5 *. 1e3, "ms");
    ("latency_tail_ms", pct lat tail *. 1e3, "ms");
    ("latency_geomean_ms", geomean *. 1e3, "ms");
    ("peak_heap_mb", float_of_int (Gc.quick_stat ()).top_heap_words *. 8. /. 1048576., "MB");
  ]

let per_layer st (f : float array) =
  let norm w raw =
    if Array.length f = 0 then raw else raw *. f.(min w (Array.length f - 1))
  in
  let ops = float_of_int (max 1 st.ops) in
  let span_ms name =
    List.fold_left
      (fun acc s -> if s.op >= 0 && s.name = name then acc +. norm s.win (s.t1 -. s.t0) else acc)
      0. st.spans
    *. 1e3 /. ops
  in
  let per_op name = counter st name /. ops in
  let ratio a b = if b = 0. then 0. else a /. b in
  let lookups = counter st "cache.hits" +. counter st "cache.misses" +. counter st "cache.invalidations" in
  (* self time of the parent spans not covered by their children *)
  let unaccounted =
    let parents = Hashtbl.create 64 and covered = Hashtbl.create 64 in
    List.iter
      (fun s ->
        let key = (s.op, s.t0) in
        if s.name = "plan" then Hashtbl.replace parents key (s.t1 -. s.t0);
        if s.parent = "plan" then
          Hashtbl.replace covered s.op
            ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt covered s.op)))
      st.spans;
    let total = Hashtbl.fold (fun _ d acc -> acc +. d) parents 0. in
    let child = Hashtbl.fold (fun _ d acc -> acc +. d) covered 0. in
    ratio (total -. child) total
  in
  let ks = List.map (fun (k : Kernel.sample) -> k.seconds *. 1e3) st.kernels in
  let reads = counter st "service.reads" in
  let appends = counter st "storage.appends" in
  [ ("sqlfront.parse_ms", span_ms "sqlfront.parse", "ms");
    ("sqlfront.bind_ms", span_ms "sqlfront.bind", "ms");
    ("cache.canon_ms", span_ms "cache.canon", "ms");
    ("cache.hit_ratio", ratio (counter st "cache.hits") lookups, "ratio");
    ("cache.stale_ratio", ratio (counter st "cache.invalidations") lookups, "ratio");
    ("cache.invalidations", counter st "cache.invalidations", "count");
    ("engine.prepare_ms", span_ms "engine.prepare", "ms");
    ("normalize.run_ms", span_ms "normalize.run", "ms");
    ("optimizer.search_ms", span_ms "optimizer.search", "ms");
    ("optimizer.explored", per_op "optimizer.explored", "count");
    ("relalg.verify_ms", span_ms "relalg.verify", "ms");
    ("analysis.lint_ms", span_ms "analysis.lint", "ms");
    ("exec.run_ms", span_ms "exec.run", "ms");
    ("exec.rows_processed", per_op "exec.rows_processed", "count");
    ("exec.apply_invocations", per_op "exec.apply_invocations", "count");
    ("vexec.run_ms",
      span_ms "vexec.run" +. (counter st "vexec.run_s" *. 1e3 /. ops), "ms");
    ("vexec.rows_processed", per_op "vexec.rows_processed", "count");
    ("vexec.bridge_crossings", per_op "vexec.bridge_crossings", "count");
    ("vexec.apply_dedup_ratio",
      ratio (counter st "vexec.apply_dedup_hits")
        (counter st "vexec.apply_dedup_hits" +. counter st "vexec.apply_bindings"),
      "ratio");
    ("storage.recovery_s", median st.recovery, "s");
    ("storage.replayed_entries", counter st "storage.replayed_entries", "count");
    ("storage.append_ms", ratio (span_ms "storage.append" *. ops) appends, "ms");
    ("storage.wal_bytes_per_row", ratio (counter st "storage.wal_bytes") appends, "B/row");
    ("service.queued_ms", ratio (counter st "service.queued_s" *. 1e3) reads, "ms");
    ("service.total_ms", ratio (counter st "service.total_s" *. 1e3) reads, "ms");
    ("service.retries", counter st "service.retries", "count");
    ("service.shed", counter st "service.shed", "count");
    ("gc.alloc_mb_per_op", per_op "gc.alloc_words" *. 8. /. 1048576., "MB/op");
    ("gc.minor_collections", counter st "gc.minor_collections", "count");
    ("gc.major_collections", counter st "gc.major_collections", "count");
    ("host.ref_kernel_ms", median ks, "ms");
    ("host.ref_kernel_spread", quartile_spread ks, "ratio");
    ("host.ref_kernel_promoted_words",
      median (List.map (fun (k : Kernel.sample) -> k.promoted_words) st.kernels), "words");
    ("trace.unaccounted_share", unaccounted, "ratio");
    ("trace.overhead_share",
      ratio (counter st "trace.traced_s" -. counter st "trace.untraced_s") (counter st "trace.untraced_s"),
      "ratio");
    ("trace.plan_checks", counter st "trace.plan_checks", "count");
    ("trace.plan_cost_mismatches", counter st "trace.plan_cost_mismatches", "count");
  ]

(* Spans stay in memory during the run and are written out here. *)
let write_spans st ~workload ~seed =
  (try Sys.mkdir "_perfbench" 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "_perfbench/spans-%s-%d.jsonl" workload seed in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"op\":%d,\"name\":%S,\"parent\":%S,\"window\":%d,\"t0\":%.9f,\"t1\":%.9f}\n"
        s.op s.name s.parent s.win s.t0 s.t1)
    (List.rev st.spans);
  close_out oc;
  Printf.printf "spans written to %s\n" path

let workloads =
  [ ("adhoc-cold", adhoc_cold); ("report-warm", report_warm); ("serve-ingest", serve_ingest) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME adhoc-cold | report-warm | serve-ingest");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some f when !seconds > 0 && (!trace = 0 || !trace = 1) -> f
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let st = make_st (!trace = 1) in
  run st ~seed:!seed ~seconds:!seconds;
  let f = factors st in
  let metrics = if st.traced then per_layer st f else end_to_end st f in
  (* the same figures without host normalisation, for comparison *)
  if not st.traced then
    Printf.printf "raw %s\n"
      (String.concat " "
         (List.map
            (fun (n, v, _) -> Printf.sprintf "%s=%.5g" n v)
            (List.tl (end_to_end st (Array.make (Array.length f) 1.)))));
  Printf.printf "latency_tail_ms is p%g over %d samples\n"
    (tail_rank (List.length st.lat) *. 100.) (List.length st.lat);
  let ks = List.map (fun (k : Kernel.sample) -> k.seconds *. 1e3) st.kernels in
  Printf.printf
    "host.ref_kernel_ms median %.3f, quartile spread %.3f over %d samples, promoted words %g; \
     setup reps %s\n"
    (median ks) (quartile_spread ks) (List.length ks)
    (median (List.map (fun (k : Kernel.sample) -> k.promoted_words) st.kernels))
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") st.setup));
  if st.traced then write_spans st ~workload:!workload ~seed:!seed;
  let attempted = max 1 st.ops in
  let failed = min attempted st.failed in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %.10g, \"unit\": %S}" name v unit)
          metrics))
