(* Benchmark harness: regenerates the paper's evaluation artifacts and
   records the ledgers behind the `make verify` bench gates.

   Experiments (DESIGN.md Section 3):
     e1  Figure 1  strategy lattice for the motivating query
     e3  Figures 6/7  SegmentApply plans and timings for Q17
     e4  Figure 8 analog  per-configuration elapsed-time table
     e5  Figure 9 left  Q2 across configurations and scale factors
     e6  Figure 9 right  Q17 across configurations and scale factors
     e7  syntax independence (Section 1.2)
     e8  ablations: outerjoin simplification, eager aggregation,
         GroupBy reordering
   (e2, the Figures 2/3/5 tree shapes, is asserted structurally in
   test/test_normalize.ml and printed by examples/decorrelation_walkthrough.)

   Usage:
     bench/main.exe              -- run everything, paper-style tables
     bench/main.exe e5 e6        -- selected experiments
     bench/main.exe --smoke      -- row vs vector sweep of every workload x config
     bench/main.exe --properties -- property-rewrite operator census
     bench/main.exe --concurrent -- service scaling at 1/2/4/8 domains
     bench/main.exe --durability -- WAL/snapshot write, recovery and replay
     bench/main.exe --cache      -- warm plan-phase speedup, batch CSE win

   Each ledger mode writes _bench/<mode>.jsonl, one JSON object per line,
   and every row has the same fields:

     {"bench": <mode>, "workload": <name>, "config": <optimizer config
      or variant>, "exec_mode": "row" | "vector" | null, "sf": <scale
      factor>, "reps": <repetitions, fastest kept>, "rows": <result rows>,
      "bag": <MD5 hex of the sorted row rendering, Engine.bag>,
      "metrics": {<name>: <number>, ...}}

   A mode chooses only its cells and the metric names it fills in.  All
   of a mode's failed gates are reported on stderr, then it exits 2.
   The committed BENCH_N.json files are earlier ledgers, kept as
   history; speed claims come from perfbench/. *)

let fmt = Printf.printf

(* --- infrastructure -------------------------------------------------- *)

let db_cache : (float, Storage.Database.t) Hashtbl.t = Hashtbl.create 4

let database sf =
  match Hashtbl.find_opt db_cache sf with
  | Some db -> db
  | None ->
      let db = Datagen.Tpch_gen.database ~sf () in
      Hashtbl.replace db_cache sf db;
      db

(* the fastest of [reps] runs of [f], which returns its own elapsed
   seconds with its result *)
let fastest reps f =
  let best = ref (f ()) in
  for _ = 2 to reps do
    let r = f () in
    if fst r < fst !best then best := r
  done;
  !best

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

type measured = {
  plan : Engine.prepared;
  exec : Engine.execution;  (* the fastest of the repetitions *)
  bag : string list;
}

(* The one measure step: execute a prepared plan [reps] times (warm
   caches, less scheduler noise) and keep the fastest execution. *)
let measure ?mode ?collect_metrics ?(reps = 1) eng (plan : Engine.prepared) =
  let _, exec =
    fastest reps (fun () ->
        let e = Engine.execute ?mode ?collect_metrics eng plan in
        (e.Engine.elapsed_s, e))
  in
  { plan; exec; bag = Engine.bag exec.Engine.result.rows }

let run_config label ?(config = Optimizer.Config.full) ?must ?(repeat = 1) db sql =
  let eng = Engine.create db in
  (label, measure ~reps:repeat eng (Engine.prepare ~config ?must eng sql))

let elapsed (m : measured) = m.exec.Engine.elapsed_s

let check_consistent (runs : (string * measured) list) =
  match runs with
  | [] -> ()
  | (first, m0) :: rest ->
      List.iter
        (fun (label, m) ->
          if m.bag <> m0.bag then begin
            Printf.eprintf "INCONSISTENT RESULTS between %s and %s\n%!" first label;
            exit 2
          end)
        rest

let print_table header rows =
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w c -> max w (String.length c)) acc row)
      (List.map String.length header)
      rows
  in
  let line cells =
    fmt "| %s |\n"
      (String.concat " | " (List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths cells))
  in
  line header;
  fmt "|%s|\n" (String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter line rows

let seconds f = Printf.sprintf "%.3f" f

let geomean = function
  | [] -> 0.
  | xs ->
      exp (List.fold_left (fun a x -> a +. log (Float.max 1e-6 x)) 0. xs
           /. float_of_int (List.length xs))

(* configurations = the "query processor technology levels" of DESIGN.md *)
let configs =
  [ ("correlated", Optimizer.Config.correlated_only);
    ("decorrelated", Optimizer.Config.decorrelated_only);
    ("full", Optimizer.Config.full)
  ]

(* --- E1: Figure 1, the strategy lattice ------------------------------ *)

let e1 () =
  fmt "\n=== E1 (Figure 1): strategy lattice for the motivating query ===\n";
  fmt "Each strategy is forced via a SQL formulation + optimizer level; SF=0.02.\n\n";
  let db = database 0.02 in
  let no_oj = { Optimizer.Config.decorrelated_only with simplify_oj = false } in
  let strategies =
    [ ("correlated execution", Workloads.q1_subquery, Optimizer.Config.correlated_only);
      ("outerjoin then aggregate (Dayal)", Workloads.q1_subquery, no_oj);
      ("simplified: join then aggregate", Workloads.q1_subquery,
       Optimizer.Config.decorrelated_only);
      ("aggregate then join (Kim)", Workloads.q1_derived, Optimizer.Config.decorrelated_only);
      ("cost-based choice (full)", Workloads.q1_subquery, Optimizer.Config.full)
    ]
  in
  let runs =
    List.map (fun (label, sql, config) -> run_config label ~config db sql) strategies
  in
  check_consistent runs;
  print_table
    [ "strategy"; "elapsed (s)"; "rows"; "apply invocations" ]
    (List.map
       (fun (label, m) ->
         [ label; seconds (elapsed m); string_of_int (List.length m.bag);
           string_of_int m.exec.Engine.apply_invocations ])
       runs);
  fmt "\nAll strategies returned identical results (%d rows).\n"
    (List.length (snd (List.hd runs)).bag)

(* --- E3: Figures 6/7, SegmentApply on Q17 ----------------------------- *)

let e3 () =
  fmt "\n=== E3 (Figures 6/7): segmented execution of Q17 ===\n";
  let db = database 0.02 in
  let has_sa_op o =
    Relalg.Op.exists_op
      (function Relalg.Algebra.SegmentApply _ -> true | _ -> false)
      o
  in
  let sa_only =
    { Optimizer.Config.full with correlated_exec = false; local_agg = false }
  in
  let runs =
    [ run_config "correlated" ~config:Optimizer.Config.correlated_only db Workloads.q17_all_parts;
      run_config "decorrelated (flattened)" ~config:Optimizer.Config.decorrelated_only db
        Workloads.q17_all_parts;
      run_config "segmented (SegmentApply)" ~config:sa_only ~must:has_sa_op db
        Workloads.q17_all_parts;
      run_config "full (cost-based)" db Workloads.q17_all_parts
    ]
  in
  check_consistent runs;
  let segmented = (snd (List.nth runs 2)).plan.Engine.plan in
  fmt "SegmentApply present in chosen plan: %b\n" (has_sa_op segmented);
  fmt "\nChosen plan (compare with the paper's Figure 7):\n%s\n"
    (Relalg.Pp.to_string segmented);
  print_table
    [ "strategy"; "elapsed (s)"; "speedup vs correlated" ]
    (let base = elapsed (snd (List.hd runs)) in
     List.map
       (fun (label, m) ->
         [ label; seconds (elapsed m);
           Printf.sprintf "%.1fx" (base /. Float.max 1e-6 (elapsed m)) ])
       runs)

(* --- E4: Figure 8 analog ---------------------------------------------- *)

let e4 () =
  fmt "\n=== E4 (Figure 8 analog): per-configuration elapsed times, SF=0.02 ===\n";
  fmt "The paper's table compares DBMS products; we compare optimizer\n";
  fmt "technology levels of this engine on identical hardware.\n\n";
  let db = database 0.02 in
  let rows =
    List.map
      (fun (qname, sql) ->
        let per_config =
          List.map (fun (cname, config) -> run_config cname ~config db sql) configs
        in
        check_consistent per_config;
        (qname, per_config))
      Workloads.all_named
  in
  print_table
    ([ "query" ] @ List.map fst configs)
    (List.map
       (fun (qname, per_config) ->
         qname :: List.map (fun (_, m) -> seconds (elapsed m)) per_config)
       rows);
  fmt "\n";
  print_table
    ([ "metric" ] @ List.map fst configs)
    [ "geometric mean (s)"
      :: List.mapi
           (fun i _ ->
             Printf.sprintf "%.4f"
               (geomean (List.map (fun (_, pc) -> elapsed (snd (List.nth pc i))) rows)))
           configs
    ]

(* --- E5/E6: Figure 9 -------------------------------------------------- *)

let sweep name sql sfs () =
  fmt "\n=== %s across configurations and scale factors ===\n" name;
  fmt "(the paper's x-axis is processor count on vendor hardware; ours is\n";
  fmt " the optimizer technology level, swept over data scale)\n\n";
  let rows =
    List.map
      (fun sf ->
        let db = database sf in
        let per_config =
          List.map (fun (cname, config) -> run_config cname ~config db sql) configs
        in
        check_consistent per_config;
        (sf, per_config))
      sfs
  in
  print_table
    ([ "SF"; "rows" ] @ List.map fst configs @ [ "full speedup" ])
    (List.map
       (fun (sf, per_config) ->
         let times = List.map (fun (_, m) -> elapsed m) per_config in
         let corr = List.nth times 0 and full = List.nth times 2 in
         (Printf.sprintf "%.3f" sf
          :: string_of_int (List.length (snd (List.hd per_config)).bag)
          :: List.map seconds times)
         @ [ Printf.sprintf "%.0fx" (corr /. Float.max 1e-6 full) ])
       rows)

let e5 = sweep "E5 (Figure 9, left): TPC-H Q2" Workloads.q2 [ 0.02; 0.05; 0.1 ]
let e6 = sweep "E6 (Figure 9, right): TPC-H Q17" Workloads.q17_all_parts [ 0.01; 0.02; 0.05 ]

(* --- E7: syntax independence ------------------------------------------ *)

let e7 () =
  fmt "\n=== E7: syntax independence (Section 1.2) ===\n";
  let db = database 0.02 in
  let formulations =
    [ ("correlated subquery", Workloads.q1_subquery);
      ("outerjoin + aggregate", Workloads.q1_outerjoin_agg);
      ("join + aggregate", Workloads.q1_join_agg);
      ("derived table (Kim)", Workloads.q1_derived)
    ]
  in
  let runs = List.map (fun (n, sql) -> run_config n db sql) formulations in
  check_consistent runs;
  print_table
    [ "formulation"; "elapsed (s)"; "plan cost"; "rows" ]
    (List.map
       (fun (n, m) ->
         [ n; seconds (elapsed m); Printf.sprintf "%.0f" m.plan.Engine.plan_cost;
           string_of_int (List.length m.bag) ])
       runs);
  let canons =
    List.map (fun (_, m) -> Relalg.Fingerprint.of_op m.plan.Engine.plan) runs
  in
  let distinct = List.length (List.sort_uniq compare canons) in
  fmt "\ndistinct chosen plans among 4 formulations: %d (1-2 expected: the\n" distinct;
  fmt "derived-table form may pick an equivalent-cost lattice member)\n"

(* --- E8: ablations ----------------------------------------------------- *)

let e8 () =
  fmt "\n=== E8: ablations of individual primitives ===\n";
  let db = database 0.02 in
  (* (a) outerjoin simplification *)
  let no_oj = { Optimizer.Config.decorrelated_only with simplify_oj = false } in
  let a_on =
    run_config "oj-simplify on" ~config:Optimizer.Config.decorrelated_only ~repeat:7 db
      Workloads.q1_subquery
  in
  let a_off = run_config "oj-simplify off" ~config:no_oj ~repeat:7 db Workloads.q1_subquery in
  check_consistent [ a_on; a_off ];
  (* (b) eager local aggregation *)
  let no_local =
    { Optimizer.Config.full with local_agg = false; segment_apply = false;
      correlated_exec = false }
  in
  let with_local = { no_local with local_agg = true } in
  let b_on = run_config "eager agg on" ~config:with_local ~repeat:7 db Workloads.revenue_per_nation in
  let b_off = run_config "eager agg off" ~config:no_local ~repeat:7 db Workloads.revenue_per_nation in
  check_consistent [ b_on; b_off ];
  (* (c) GroupBy reordering *)
  let no_reorder =
    { Optimizer.Config.full with groupby_reorder = false; local_agg = false;
      segment_apply = false }
  in
  let c_on = run_config "groupby reorder on" ~repeat:7 db Workloads.q2 in
  let c_off = run_config "groupby reorder off" ~config:no_reorder ~repeat:7 db Workloads.q2 in
  check_consistent [ c_on; c_off ];
  let t (_, m) = seconds (elapsed m) in
  print_table
    [ "ablation"; "variant"; "elapsed (s)" ]
    [ [ "outerjoin simplification"; "on"; t a_on ];
      [ ""; "off"; t a_off ];
      [ "eager local aggregation"; "on"; t b_on ];
      [ ""; "off"; t b_off ];
      [ "GroupBy reordering"; "on"; t c_on ];
      [ ""; "off"; t c_off ]
    ]

(* --- ledgers ----------------------------------------------------------- *)

type row = {
  workload : string;
  config : string;
  exec_mode : Engine.exec_mode option;  (* None: no query was executed *)
  sf : float;
  reps : int;
  rows : int;
  bag : string list;
  metrics : (string * float) list;
}

let row ~workload ~config ?exec_mode ~sf ~reps ?rows bag metrics =
  { workload; config; exec_mode; sf; reps;
    rows = Option.value rows ~default:(List.length bag); bag; metrics }

(* the counters every executed cell records *)
let exec_metrics (m : measured) =
  [ ("elapsed_s", elapsed m);
    ("apply_invocations", float_of_int m.exec.Engine.apply_invocations);
    ("rows_processed", float_of_int m.exec.Engine.rows_processed);
    ("plan_cost", m.plan.Engine.plan_cost)
  ]

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.6g" x
  else "null"

let row_to_json bench r =
  let str = Relalg.Json.string in
  Printf.sprintf
    "{\"bench\":%s,\"workload\":%s,\"config\":%s,\"exec_mode\":%s,\"sf\":%s,\
     \"reps\":%d,\"rows\":%d,\"bag\":%s,\"metrics\":{%s}}"
    (str bench) (str r.workload) (str r.config)
    (match r.exec_mode with Some m -> str (Engine.exec_mode_name m) | None -> "null")
    (json_number r.sf) r.reps r.rows
    (str (Digest.to_hex (Digest.string (String.concat "\n" r.bag))))
    (String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ json_number v) r.metrics))

(* Gates only record their failures: a mode runs every cell, and the
   runner reports everything that failed before exiting 2. *)
let failures = ref []

let gate ok format =
  Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) format

(* --- smoke: row vs vector --------------------------------------------- *)

(* Every named workload under every configuration at SF 0.01, executed
   on the row interpreter and on the vectorized engine; the full
   configuration's row run is repeated with the metrics tree on, to
   record the observability layer's overhead.  The queries run
   sub-millisecond here, so each cell keeps the fastest of 15 runs: a
   smaller sample is dominated by scheduler jitter.

   Gates: equal row and vector bags; no plan crosses the row-engine
   bridge (bridge_crossings = 0: every bench plan vectorizes fully);
   every cell's vector run at >= 0.95x the row engine. *)

let smoke () =
  let sf = 0.01 and reps = 15 in
  let eng = Engine.create (database sf) in
  List.concat_map
    (fun (qname, sql) ->
      List.concat_map
        (fun (cname, config) ->
          let plan = Engine.prepare ~config eng sql in
          let r = measure ~mode:`Row ~reps eng plan in
          let v = measure ~mode:`Vector ~reps eng plan in
          let speedup = elapsed r /. Float.max 1e-9 (elapsed v) in
          let crossings = v.exec.Engine.bridge_crossings in
          gate (r.bag = v.bag) "row/vector disagreement on %s under %s" qname cname;
          gate (crossings = 0)
            "%s under %s: %d subtrees crossed the bridge to the row engine" qname cname
            crossings;
          gate (speedup >= 0.95) "%s/%s vector ran at %.2fx the row engine (>= 0.95x)"
            qname cname speedup;
          let with_metrics =
            if cname = "full" then
              [ ("elapsed_s_with_metrics",
                 elapsed (measure ~collect_metrics:true ~reps eng plan)) ]
            else []
          in
          let cell exec_mode (m : measured) extra =
            row ~workload:qname ~config:cname ~exec_mode ~sf ~reps m.bag
              (exec_metrics m @ extra)
          in
          [ cell `Row r with_metrics;
            cell `Vector v
              [ ("speedup_vs_row", speedup);
                ("bridge_crossings", float_of_int crossings);
                ("apply_batches", float_of_int v.exec.Engine.apply_batches);
                ("apply_bindings", float_of_int v.exec.Engine.apply_bindings);
                ("apply_dedup_hits", float_of_int v.exec.Engine.apply_dedup_hits)
              ]
          ])
        configs)
    Workloads.all_named

(* --- properties: operator census -------------------------------------- *)

(* Every workload (the named set plus the property-targeted ones)
   compiled with the property-proven rewrites off and on, the operator
   census of both chosen plans recorded and both plans executed.

   Gates: equal bags before and after; at least one workload's plan
   loses a GroupBy, a Max1row or an outer join. *)

let properties () =
  let sf = 0.01 in
  let eng = Engine.create (database sf) in
  let census o =
    let count p =
      let rec go n o = List.fold_left go (if p o then n + 1 else n) (Relalg.Op.children o) in
      float_of_int (go 0 o)
    in
    let open Relalg.Algebra in
    [ ("groupbys", count (function GroupBy _ -> true | _ -> false));
      ("max1rows", count (function Max1row _ -> true | _ -> false));
      ("outerjoins",
       count (function
         | Join { kind = LeftOuter; _ } | Apply { kind = LeftOuter; _ } -> true
         | _ -> false));
      ("nodes", float_of_int (Relalg.Op.count_ops o))
    ]
  in
  let variants =
    [ ("no-property-rewrites", { Optimizer.Config.full with property_rewrites = false });
      ("full", Optimizer.Config.full)
    ]
  in
  let eliminations = ref 0 in
  let rows =
    List.concat_map
      (fun (qname, sql) ->
        let runs =
          List.map
            (fun (cname, config) ->
              let m = measure eng (Engine.prepare ~config eng sql) in
              (cname, m, census m.plan.Engine.plan))
            variants
        in
        let (_, before, c0), (_, after, c1) = (List.nth runs 0, List.nth runs 1) in
        gate (before.bag = after.bag) "property rewrites changed the bag of %s" qname;
        let lost =
          List.exists
            (fun k -> List.assoc k c1 < List.assoc k c0)
            [ "groupbys"; "max1rows"; "outerjoins" ]
        in
        if lost then incr eliminations;
        List.map
          (fun (cname, (m : measured), c) ->
            row ~workload:qname ~config:cname ~exec_mode:`Row ~sf ~reps:1
              m.bag (exec_metrics m @ c))
          runs)
      Workloads.property_named
  in
  gate (!eliminations > 0)
    "no workload lost a GroupBy, Max1row or outer join under the property rewrites";
  rows

(* --- concurrent: service scaling ---------------------------------------- *)

(* The concurrent query service at 1/2/4/8 worker domains over the
   Apply-free workloads (the full configuration's chosen plan executes
   zero Apply invocations: the fully decorrelated queries whose parallel
   speedup the paper's techniques unlock).  Every reply is checked
   against the single-threaded row oracle.

   Requested domain counts are clamped to the host's cores and each
   distinct clamped count runs once: oversubscribed counts measure
   scheduler interleaving, not scaling.  Clamped or skipped rows carry
   oversubscribed = 1, skipped ones skipped = 1.

   Gates: every reply's bag equals the oracle's; no request fails;
   4-domain throughput >= 2x single-domain, on hosts with >= 4 cores
   only (on smaller hosts the domains share cores and the flat profile
   is recorded with the core count). *)

let concurrent () =
  let sf = 0.01 and requests = 160 in
  let db = database sf in
  let eng = Engine.create db in
  let cores = Domain.recommended_domain_count () in
  let exec_mode = Service.default_config.Service.exec_mode in
  let apply_free =
    List.filter_map
      (fun (name, sql) ->
        let m = measure ~mode:`Row eng (Engine.prepare eng sql) in
        if m.exec.Engine.apply_invocations = 0 then Some (name, sql, m.bag) else None)
      Workloads.all_named
  in
  let workload = String.concat "+" (List.map (fun (n, _, _) -> n) apply_free) in
  let oracle = List.concat_map (fun (_, _, b) -> b) apply_free in
  let throughput_at = Hashtbl.create 4 in
  let run_at domains =
    let config = { Service.default_config with domains; max_queue = requests + 8 } in
    let t = Service.create ~config db in
    let reqs =
      List.init requests (fun i ->
          let name, sql, bag = List.nth apply_free (i mod List.length apply_free) in
          let session = Printf.sprintf "s%d" (i mod (2 * domains)) in
          (name, bag, Service.request ~session sql))
    in
    let secs, replies =
      timed (fun () -> Service.run_many t (List.map (fun (_, _, r) -> r) reqs))
    in
    let failed = ref 0 in
    List.iter2
      (fun (name, bag, _) (r : Service.reply) ->
        match r.Service.outcome with
        | Ok e ->
            gate (Engine.bag e.Engine.result.rows = bag)
              "concurrent disagreement on %s at %d domains" name domains
        | Error err ->
            incr failed;
            gate false "request failed on %s at %d domains: %s" name domains
              (Service.error_to_string err))
      reqs replies;
    let s = Service.stats t in
    Service.shutdown t;
    let throughput = float_of_int requests /. secs in
    Hashtbl.replace throughput_at domains throughput;
    let lat = s.Service.Stats.latency in
    [ ("elapsed_s", secs); ("throughput_rps", throughput);
      ("latency_p50_s", lat.p50); ("latency_p95_s", lat.p95);
      ("latency_p99_s", lat.p99); ("latency_max_s", lat.max);
      ("retried", float_of_int s.Service.Stats.retried);
      ("degraded", float_of_int s.Service.Stats.degraded);
      ("failed", float_of_int !failed)
    ]
  in
  gate (apply_free <> []) "no Apply-free workloads found";
  fmt "concurrent service bench: %d requests over %s (SF %.3f, %d cores)\n%!" requests
    workload sf cores;
  (* a count runs clamped to the cores, unless the previous count
     already ran on all of them *)
  let rows =
    List.map
      (fun want ->
        let domains = min want cores in
        let cell ~reps bag metrics =
          row ~workload ~config:"full" ~exec_mode ~sf ~reps bag
            ([ ("requested", float_of_int want); ("cores", float_of_int cores);
               ("oversubscribed", if want > domains then 1. else 0.) ]
            @ metrics)
        in
        if want / 2 >= cores then cell ~reps:0 [] [ ("skipped", 1.) ]
        else cell ~reps:requests oracle (("domains", float_of_int domains) :: run_at domains))
      (if apply_free = [] then [] else [ 1; 2; 4; 8 ])
  in
  let speedup =
    match (Hashtbl.find_opt throughput_at 1, Hashtbl.find_opt throughput_at 4) with
    | Some r1, Some r4 when r1 > 0. -> r4 /. r1
    | _ -> 0.
  in
  fmt "speedup 4-vs-1: %.2fx on %d cores\n" speedup cores;
  gate (cores < 4 || speedup >= 2.0)
    "4-domain throughput only %.2fx single-domain (>= 2x required on %d cores)" speedup cores;
  rows

(* --- durability: WAL and snapshots -------------------------------------- *)

(* Journaled table loads and per-append fsync throughput through the
   WAL, snapshot write and snapshot-based recovery, and cold recovery
   from the WAL alone (replay), at two scale factors.  A row's bag is
   the recovered per-table row counts.

   Gates: each recovery restores exactly the source row counts plus the
   appends; replay applies exactly one entry per mutation. *)

let durability () =
  let open Storage in
  let appends = 300 in
  let rec rm_rf path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  let scratch name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sq-bench-dur-%d-%s" (Unix.getpid ()) name)
  in
  let dir_bytes ~(suffix : string) (dir : string) =
    Array.fold_left
      (fun acc f ->
        if Filename.check_suffix f suffix then
          acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
        else acc)
      0 (Sys.readdir dir)
  in
  let cat = Catalog.tpch () in
  let tables = List.sort compare (Catalog.table_names cat) in
  let marker i =
    [| Relalg.Value.Int (20_000_000 + i); Relalg.Value.Int 1; Relalg.Value.Str "F";
       Relalg.Value.Float 1000.; Relalg.Value.Date 9000; Relalg.Value.Str "bench"
    |]
  in
  let counts db ~extra_orders =
    List.map
      (fun t ->
        Printf.sprintf "%s|%d" t
          (Table.row_count (Database.table db t) + if t = "orders" then extra_orders else 0))
      tables
  in
  let cell sf =
    let db = database sf in
    let rows_of t = Table.to_rows (Database.table db t) in
    let total_rows =
      List.fold_left (fun a t -> a + Table.row_count (Database.table db t)) 0 tables
    in
    let want = counts db ~extra_orders:appends in
    let recovered what st =
      let got = counts (Durable.db st) ~extra_orders:0 in
      let missing a b = String.concat ", " (List.filter (fun x -> not (List.mem x b)) a) in
      gate (got = want) "%s at SF %.2f recovered [%s], want [%s]" what sf (missing got want)
        (missing want got);
      got
    in
    let journal dir =
      let st = Durable.open_db ~dir cat in
      let load_s, () =
        timed (fun () -> List.iter (fun t -> Durable.load st t (rows_of t)) tables)
      in
      let append_s, () =
        timed (fun () ->
            for i = 1 to appends do
              Durable.append st "orders" (marker i)
            done)
      in
      (st, load_s, append_s)
    in
    (* snapshot path: rotate, then recover from the anchor *)
    let dir = scratch (Printf.sprintf "snap-%.2f" sf) in
    let st, load_s, append_s = journal dir in
    let wal_bytes = dir_bytes ~suffix:".log" dir in
    let snapshot_write_s, _ = timed (fun () -> Durable.rotate st) in
    let snapshot_bytes = (Unix.stat (Snapshot.snapshot_path ~dir 1)).Unix.st_size in
    Durable.close st;
    let snapshot_recover_s, st2 = timed (fun () -> Durable.open_db ~dir cat) in
    let snap_bag = recovered "snapshot recovery" st2 in
    Durable.close st2;
    rm_rf dir;
    (* replay path: the same mutations recovered from the WAL alone *)
    let dir2 = scratch (Printf.sprintf "wal-%.2f" sf) in
    let st3, _, _ = journal dir2 in
    Durable.close st3;
    let wal_replay_s, st4 = timed (fun () -> Durable.open_db ~dir:dir2 cat) in
    let wal_bag = recovered "WAL replay" st4 in
    let replayed = (Durable.recovery_info st4).Durable.rec_entries_replayed in
    Durable.close st4;
    rm_rf dir2;
    let mutations = List.length tables + appends in
    gate (replayed = mutations) "WAL replay at SF %.2f applied %d entries, want %d" sf
      replayed mutations;
    let rows = total_rows + appends in
    let per_s n s = float_of_int n /. Float.max 1e-9 s in
    let cell config bag metrics =
      row ~workload:"tpch" ~config ~sf ~reps:1 ~rows bag metrics
    in
    [ cell "snapshot" snap_bag
        [ ("appends", float_of_int appends);
          ("journal_load_s", load_s); ("journal_rows_per_s", per_s total_rows load_s);
          ("append_s", append_s); ("appends_per_s", per_s appends append_s);
          ("wal_bytes", float_of_int wal_bytes);
          ("snapshot_write_s", snapshot_write_s);
          ("snapshot_bytes", float_of_int snapshot_bytes);
          ("snapshot_recover_s", snapshot_recover_s)
        ];
      cell "wal-replay" wal_bag
        [ ("wal_replay_s", wal_replay_s); ("replay_rows_per_s", per_s rows wal_replay_s);
          ("entries_replayed", float_of_int replayed);
          ("mutations", float_of_int mutations)
        ]
    ]
  in
  List.concat_map cell [ 0.01; 0.1 ]

(* --- cache: plan-phase speedup and batch CSE ---------------------------- *)

(* Two halves.

   (a) Plan phase: for every named workload, the cold path (parse ->
       normalize -> cost-based search -> verify) is timed against the
       warm path (parse -> canonicalize -> template rebind, search and
       verification skipped) on a cache-enabled engine.

   (b) Batch CSE: the q17 family with the global-average threshold —
       three statements sharing the decorrelated aggregate over
       lineitem — run through [Engine.query_many] (shared subplans
       materialized once) against the same prepared statements executed
       one by one.  Plans are warm on both sides, so the ratio isolates
       the execution-phase CSE effect; each rep runs on a fresh engine
       so materialization cost is inside the measurement.

   Gates: every warm prepare is a plan-cache hit; the cached plan's bag
   equals a fresh uncached optimization's; plan-phase geomean speedup
   >= 5x; every batch item's bag equals its sequential run's; the batch
   selects >= 1 CSE with >= 1 materialization; median batch win >= 1.2x. *)

let cache_bench () =
  let sf = 0.01 in
  let eng = Engine.create (database sf) in
  Engine.enable_cache eng;
  let prepare_s ?use_cache reps sql =
    fastest reps (fun () -> timed (fun () -> Engine.prepare ?use_cache eng sql))
  in
  let plan_rows =
    List.map
      (fun (qname, sql) ->
        let cold_s, _ = prepare_s ~use_cache:false 3 sql in
        ignore (Engine.prepare eng sql);
        (* primed: the template is in the cache *)
        let warm_s, p = prepare_s 10 sql in
        gate (p.Engine.cache = Some `Hit) "warm prepare of %s was not a plan-cache hit" qname;
        let cached = measure eng p in
        let fresh = measure eng (Engine.prepare ~use_cache:false eng sql) in
        gate (cached.bag = fresh.bag) "the cached plan of %s returned a different bag" qname;
        let speedup = cold_s /. Float.max 1e-9 warm_s in
        row ~workload:qname ~config:"full" ~exec_mode:`Row ~sf ~reps:10
          cached.bag
          (exec_metrics cached
          @ [ ("cold_prepare_s", cold_s); ("warm_prepare_s", warm_s); ("speedup", speedup) ]))
      Workloads.all_named
  in
  let plan_geomean = geomean (List.map (fun r -> List.assoc "speedup" r.metrics) plan_rows) in
  fmt "plan-phase speedup (geomean over %d workloads): %.1fx\n%!" (List.length plan_rows)
    plan_geomean;
  gate (plan_geomean >= 5.0) "plan-phase speedup %.1fx below the 5x floor" plan_geomean;
  (* (b) batch CSE win on the q17 family *)
  let sf = 0.02 in
  let db = database sf in
  let shared = "(select 0.2 * avg(l2.l_quantity) from lineitem l2)" in
  let family =
    [ Printf.sprintf
        "select sum(l_extendedprice) / 7.0 as avg_yearly from lineitem, part \
         where p_partkey = l_partkey and p_brand = 'Brand#23' and l_quantity < %s"
        shared;
      Printf.sprintf "select count(*) as small_lines from lineitem where l_quantity < %s"
        shared;
      Printf.sprintf
        "select l_returnflag, sum(l_extendedprice) as rev from lineitem \
         where l_quantity < %s group by l_returnflag"
        shared
    ]
  in
  let eng_seq = Engine.create db in
  let seq_preps = List.map (Engine.prepare ~use_cache:false eng_seq) family in
  let seq_bags = List.map (fun p -> (measure eng_seq p).bag) seq_preps in
  let reps = 7 in
  let batch_rows =
    List.init reps (fun rep ->
        let eng = Engine.create db in
        Engine.enable_cache eng;
        List.iter (fun sql -> ignore (Engine.prepare eng sql)) family;
        let batch_s, b = timed (fun () -> Engine.query_many eng family) in
        let seq_s, () =
          timed (fun () -> List.iter (fun p -> ignore (Engine.execute eng_seq p)) seq_preps)
        in
        let bags =
          List.map
            (fun (it : Engine.batch_item) ->
              Engine.bag it.Engine.item_execution.Engine.result.rows)
            b.Engine.items
        in
        List.iteri
          (fun i (got, want) ->
            gate (got = want) "batch item %d returned a different bag (rep %d)" i (rep + 1))
          (List.combine bags seq_bags);
        let stats = Option.get (Engine.cache_stats eng) in
        let materializations = stats.Engine.cse_materializations in
        let win = seq_s /. Float.max 1e-9 batch_s in
        row ~workload:"q17-family" ~config:"full" ~exec_mode:`Row ~sf ~reps:1
          (List.concat bags)
          [ ("batch_s", batch_s); ("seq_s", seq_s); ("win", win);
            ("cse_count", float_of_int b.Engine.cse_count);
            ("substitutions", float_of_int b.Engine.cse_substitutions);
            ("materializations", float_of_int materializations)
          ])
  in
  let first k = List.assoc k (List.hd batch_rows).metrics in
  gate (first "cse_count" >= 1. && first "materializations" >= 1.)
    "the batch selected no CSE (count %.0f, materializations %.0f)" (first "cse_count")
    (first "materializations");
  let win_median =
    List.nth (List.sort compare (List.map (fun r -> List.assoc "win" r.metrics) batch_rows))
      (reps / 2)
  in
  fmt "batch CSE win (median of %d reps): %.2fx\n%!" reps win_median;
  gate (win_median >= 1.2) "batch CSE win %.2fx below the 1.2x floor" win_median;
  plan_rows @ batch_rows

(* --- driver ------------------------------------------------------------- *)

(* Run one ledger mode: print its rows, write them to
   _bench/<name>.jsonl, then report every failed gate and exit 2 if
   there was one. *)
let run_ledger name cells =
  let rows = cells () in
  let dir = "_bench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".jsonl") in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun r -> Out_channel.output_string oc (row_to_json name r ^ "\n")) rows);
  List.iter
    (fun r ->
      fmt "  %-14s %-20s %-6s sf=%g %s\n" r.workload r.config
        (Option.fold ~none:"-" ~some:Engine.exec_mode_name r.exec_mode) r.sf
        (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ json_number v) r.metrics)))
    rows;
  fmt "wrote %s (%d rows)\n%!" path (List.length rows);
  match List.rev !failures with
  | [] -> ()
  | fs ->
      List.iter (Printf.eprintf "%s GATE FAILED: %s\n%!" name) fs;
      exit 2

let ledgers =
  [ ("smoke", smoke); ("properties", properties); ("concurrent", concurrent);
    ("durability", durability); ("cache", cache_bench)
  ]

let all_experiments =
  [ ("e1", e1); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7); ("e8", e8) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match List.find_opt (fun (name, _) -> List.mem ("--" ^ name) args) ledgers with
  | Some (name, cells) -> run_ledger name cells
  | None ->
      let selected =
        match List.filter (fun a -> List.mem_assoc a all_experiments) args with
        | [] -> all_experiments
        | names -> List.map (fun n -> (n, List.assoc n all_experiments)) names
      in
      fmt "Orthogonal Optimization of Subqueries and Aggregation - benchmark harness\n";
      fmt "(reproducing the evaluation of Galindo-Legaria & Joshi, SIGMOD 2001)\n";
      List.iter (fun (_, f) -> f ()) selected;
      fmt "\nAll experiment result sets were cross-checked between configurations.\n"
