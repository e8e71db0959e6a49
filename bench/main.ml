(* Benchmark harness: regenerates the paper's evaluation artifacts.

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
     bench/main.exe            -- run everything, paper-style tables
     bench/main.exe e5 e6      -- selected experiments
     bench/main.exe --bechamel -- statistically robust timings (Bechamel)
     bench/main.exe --smoke    -- tiny-scale CI sweep (row + vector), writes BENCH_7.json
     bench/main.exe --properties -- property-rewrite operator census (before/after
                                  the symbolic property engine), writes BENCH_9.json
     bench/main.exe --concurrent -- service scaling at 1/2/4/8 domains (clamped
                                  to the host's cores), writes BENCH_6.json
     bench/main.exe --durability -- WAL/snapshot write, recovery and replay
                                  timings, writes BENCH_8.json
     bench/main.exe --cache      -- caching tier: warm plan-phase speedup and
                                  the query_many batch CSE win, writes BENCH_10.json
*)

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

type run = {
  label : string;
  elapsed : float;
  rows : int;
  applies : int;
  cost : float;
  result : string list;  (* sorted row renderings, for equality checks *)
}

let run_config label ?(config = Optimizer.Config.full) ?must ?(repeat = 1) db sql : run =
  let eng = Engine.create db in
  let p = Engine.prepare ~config ?must eng sql in
  let e = Engine.execute eng p in
  (* take the fastest of [repeat] executions (warm caches, less noise) *)
  let e =
    let best = ref e in
    for _ = 2 to repeat do
      let e' = Engine.execute eng p in
      if e'.elapsed_s < !best.elapsed_s then best := e'
    done;
    !best
  in
  let rendered =
    List.sort compare
      (List.map
         (fun r ->
           String.concat "|" (Array.to_list (Array.map Relalg.Value.to_string r)))
         e.result.rows)
  in
  { label;
    elapsed = e.elapsed_s;
    rows = List.length e.result.rows;
    applies = e.apply_invocations;
    cost = p.plan_cost;
    result = rendered;
  }

let check_consistent (runs : run list) =
  match runs with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun r ->
          if r.result <> first.result then begin
            Printf.eprintf "INCONSISTENT RESULTS between %s and %s\n%!" first.label r.label;
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
    (List.map (fun r -> [ r.label; seconds r.elapsed; string_of_int r.rows; string_of_int r.applies ]) runs);
  fmt "\nAll strategies returned identical results (%d rows).\n" (List.hd runs).rows

(* --- E3: Figures 6/7, SegmentApply on Q17 ----------------------------- *)

let e3 () =
  fmt "\n=== E3 (Figures 6/7): segmented execution of Q17 ===\n";
  let db = database 0.02 in
  let eng = Engine.create db in
  let has_sa_op o =
    Relalg.Op.exists_op
      (function Relalg.Algebra.SegmentApply _ -> true | _ -> false)
      o
  in
  let sa_only =
    { Optimizer.Config.full with correlated_exec = false; local_agg = false }
  in
  let p = Engine.prepare ~config:sa_only ~must:has_sa_op eng Workloads.q17_all_parts in
  fmt "SegmentApply present in chosen plan: %b\n" (has_sa_op p.plan);
  fmt "\nChosen plan (compare with the paper's Figure 7):\n%s\n" (Relalg.Pp.to_string p.plan);
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
  print_table
    [ "strategy"; "elapsed (s)"; "speedup vs correlated" ]
    (let base = (List.hd runs).elapsed in
     List.map
       (fun r ->
         [ r.label; seconds r.elapsed;
           Printf.sprintf "%.1fx" (base /. Float.max 1e-6 r.elapsed) ])
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
          List.map (fun (cname, config) -> (cname, run_config cname ~config db sql)) configs
        in
        check_consistent (List.map snd per_config);
        (qname, per_config))
      Workloads.all_named
  in
  print_table
    ([ "query" ] @ List.map fst configs)
    (List.map
       (fun (qname, per_config) ->
         qname :: List.map (fun (_, r) -> seconds r.elapsed) per_config)
       rows);
  fmt "\n";
  print_table
    ([ "metric" ] @ List.map fst configs)
    [ "geometric mean (s)"
      :: List.mapi
           (fun i _ ->
             Printf.sprintf "%.4f"
               (geomean (List.map (fun (_, pc) -> (snd (List.nth pc i)).elapsed) rows)))
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
         let elapsed = List.map (fun r -> r.elapsed) per_config in
         let corr = List.nth elapsed 0 and full = List.nth elapsed 2 in
         (Printf.sprintf "%.3f" sf
          :: string_of_int (List.hd per_config).rows
          :: List.map seconds elapsed)
         @ [ Printf.sprintf "%.0fx" (corr /. Float.max 1e-6 full) ])
       rows)

let e5 = sweep "E5 (Figure 9, left): TPC-H Q2" Workloads.q2 [ 0.02; 0.05; 0.1 ]
let e6 = sweep "E6 (Figure 9, right): TPC-H Q17" Workloads.q17_all_parts [ 0.01; 0.02; 0.05 ]

(* --- E7: syntax independence ------------------------------------------ *)

let e7 () =
  fmt "\n=== E7: syntax independence (Section 1.2) ===\n";
  let db = database 0.02 in
  let eng = Engine.create db in
  let formulations =
    [ ("correlated subquery", Workloads.q1_subquery);
      ("outerjoin + aggregate", Workloads.q1_outerjoin_agg);
      ("join + aggregate", Workloads.q1_join_agg);
      ("derived table (Kim)", Workloads.q1_derived)
    ]
  in
  let prepared = List.map (fun (n, sql) -> (n, Engine.prepare eng sql)) formulations in
  let runs = List.map (fun (n, sql) -> run_config n db sql) formulations in
  check_consistent runs;
  print_table
    [ "formulation"; "elapsed (s)"; "plan cost"; "rows" ]
    (List.map2
       (fun (n, _) r ->
         [ n; seconds r.elapsed; Printf.sprintf "%.0f" r.cost;
           string_of_int r.rows ])
       prepared runs);
  let canons =
    List.map (fun (_, p) -> Relalg.Fingerprint.of_op p.Engine.plan) prepared
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
  print_table
    [ "ablation"; "variant"; "elapsed (s)" ]
    [ [ "outerjoin simplification"; "on"; seconds a_on.elapsed ];
      [ ""; "off"; seconds a_off.elapsed ];
      [ "eager local aggregation"; "on"; seconds b_on.elapsed ];
      [ ""; "off"; seconds b_off.elapsed ];
      [ "GroupBy reordering"; "on"; seconds c_on.elapsed ];
      [ ""; "off"; seconds c_off.elapsed ]
    ]

(* --- smoke mode: BENCH_7.json ------------------------------------------ *)

(* CI artifact: run every named workload under every configuration at a
   tiny scale factor — in both execution modes (row interpreter and the
   vectorized engine) — and dump per-run counters as JSON, plus a
   metrics-enabled row-mode re-run of the full configuration to measure
   the observability layer's overhead.  The two modes' result bags are
   cross-checked on every run; a disagreement aborts the bench.

   Two regression gates guard the vectorized engine: every cell must
   run at >= 0.95x the row engine (batched Apply killed the last
   systematic vector-mode regressions), and no plan may cross the
   row-engine bridge (bridge_crossings = 0 — every bench plan is fully
   vectorized). *)

let smoke ?(out = "BENCH_7.json") () =
  let sf = 0.01 in
  let db = database sf in
  let eng = Engine.create db in
  let repeat = 15 in
  let time_execute ?collect_metrics ?mode p =
    (* fastest of [repeat]: warm caches, less scheduler noise; the
       smoke queries run sub-millisecond at SF 0.01, so a small sample
       is dominated by scheduler jitter *)
    let best = ref (Engine.execute ?collect_metrics ?mode eng p) in
    for _ = 2 to repeat do
      let e = Engine.execute ?collect_metrics ?mode eng p in
      if e.Engine.elapsed_s < !best.Engine.elapsed_s then best := e
    done;
    !best
  in
  let bag (e : Engine.execution) =
    List.sort compare
      (List.map
         (fun r -> String.concat "|" (Array.to_list (Array.map Relalg.Value.to_string r)))
         e.Engine.result.rows)
  in
  let regressions = ref [] in
  let entries =
    List.concat_map
      (fun (qname, sql) ->
        List.concat_map
          (fun (cname, config) ->
            let p = Engine.prepare ~config eng sql in
            let e_row = time_execute ~mode:`Row p in
            let e_vec = time_execute ~mode:`Vector p in
            if bag e_row <> bag e_vec then begin
              Printf.eprintf "ROW/VECTOR DISAGREEMENT on %s under %s\n%!" qname cname;
              exit 2
            end;
            if e_vec.Engine.bridge_crossings > 0 then begin
              Printf.eprintf
                "BRIDGE CROSSING on %s under %s: %d subtrees fell back to the row \
                 engine (bench plans must vectorize fully)\n%!"
                qname cname e_vec.Engine.bridge_crossings;
              exit 2
            end;
            let speedup_vs_row =
              e_row.Engine.elapsed_s /. Float.max 1e-9 e_vec.Engine.elapsed_s
            in
            if speedup_vs_row < 0.95 then
              regressions := (qname, cname, speedup_vs_row) :: !regressions;
            let entry mode (e : Engine.execution) extra =
              Printf.sprintf
                "  {\"query\":%s,\"config\":%s,\"exec_mode\":%s,\"elapsed_s\":%.6f,\
                 \"rows\":%d,\"apply_invocations\":%d,\"rows_processed\":%d,\
                 \"plan_cost\":%.2f%s}"
                (Exec.Metrics.json_string qname)
                (Exec.Metrics.json_string cname)
                (Exec.Metrics.json_string mode)
                e.Engine.elapsed_s (List.length e.Engine.result.rows)
                e.Engine.apply_invocations e.Engine.rows_processed p.Engine.plan_cost
                extra
            in
            let metrics_elapsed =
              (* overhead probe only on the plan we actually ship *)
              if cname = "full" then
                Printf.sprintf ",\"elapsed_s_with_metrics\":%.6f"
                  (time_execute ~collect_metrics:true p).Engine.elapsed_s
              else ""
            in
            let vector_extra =
              Printf.sprintf
                ",\"speedup_vs_row\":%.2f,\"bridge_crossings\":%d,\"apply_batches\":%d,\
                 \"apply_bindings\":%d,\"apply_dedup_hits\":%d"
                speedup_vs_row e_vec.Engine.bridge_crossings e_vec.Engine.apply_batches
                e_vec.Engine.apply_bindings e_vec.Engine.apply_dedup_hits
            in
            [ entry "row" e_row metrics_elapsed; entry "vector" e_vec vector_extra ])
          configs)
      Workloads.all_named
  in
  let json =
    Printf.sprintf "{\"sf\":%.3f,\"repeat\":%d,\"runs\":[\n%s\n]}\n" sf repeat
      (String.concat ",\n" entries)
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  fmt "wrote %s (%d runs: %d workloads x %d configs x 2 exec modes, SF %.3f)\n" out
    (List.length entries) (List.length Workloads.all_named) (List.length configs) sf;
  if !regressions <> [] then begin
    List.iter
      (fun (q, c, s) ->
        Printf.eprintf
          "VECTOR REGRESSION: %s/%s ran at %.2fx the row engine (>= 0.95x required)\n%!"
          q c s)
      (List.rev !regressions);
    exit 2
  end

(* --- properties mode: BENCH_9.json ------------------------------------- *)

(* CI artifact for the symbolic property engine: compile every workload
   (the standard named set plus the property-targeted ones) with the
   property-proven rewrites off and on, and record the operator census
   of both chosen plans — GroupBys, Max1rows, outer joins, total nodes
   — together with costs and row counts.  Both plans execute and the
   bags are cross-checked (a disagreement aborts).  The gate: at least
   one workload's final plan must demonstrably lose a GroupBy, a
   Max1row or an outer join. *)

let properties ?(out = "BENCH_9.json") () =
  let sf = 0.01 in
  let db = database sf in
  let eng = Engine.create db in
  let count_ops o =
    let open Relalg.Algebra in
    let groupbys = ref 0
    and max1rows = ref 0
    and outerjoins = ref 0
    and nodes = ref 0 in
    let rec walk op =
      incr nodes;
      (match op with
      | GroupBy _ -> incr groupbys
      | Max1row _ -> incr max1rows
      | Join { kind = LeftOuter; _ } | Apply { kind = LeftOuter; _ } ->
          incr outerjoins
      | _ -> ());
      List.iter walk (Relalg.Op.children op)
    in
    walk o;
    (!groupbys, !max1rows, !outerjoins, !nodes)
  in
  let bag (e : Engine.execution) =
    List.sort compare
      (List.map
         (fun r -> String.concat "|" (Array.to_list (Array.map Relalg.Value.to_string r)))
         e.Engine.result.rows)
  in
  let before_cfg = { Optimizer.Config.full with property_rewrites = false } in
  let after_cfg = Optimizer.Config.full in
  let wins = ref 0 in
  let entries =
    List.map
      (fun (qname, sql) ->
        let p_before = Engine.prepare ~config:before_cfg eng sql in
        let p_after = Engine.prepare ~config:after_cfg eng sql in
        let e_before = Engine.execute eng p_before in
        let e_after = Engine.execute eng p_after in
        if bag e_before <> bag e_after then begin
          Printf.eprintf "PROPERTY-REWRITE DISAGREEMENT on %s\n%!" qname;
          exit 2
        end;
        let gb0, m0, oj0, n0 = count_ops p_before.Engine.plan in
        let gb1, m1, oj1, n1 = count_ops p_after.Engine.plan in
        let lost_operator = gb1 < gb0 || m1 < m0 || oj1 < oj0 in
        if lost_operator then incr wins;
        fmt
          "  %-14s groupbys %d->%d  max1rows %d->%d  outerjoins %d->%d  nodes \
           %d->%d  cost %.0f->%.0f%s\n%!"
          qname gb0 gb1 m0 m1 oj0 oj1 n0 n1 p_before.Engine.plan_cost
          p_after.Engine.plan_cost
          (if lost_operator then "  [operator eliminated]" else "");
        Printf.sprintf
          "  {\"query\":%s,\"rows\":%d,\"operator_eliminated\":%b,\
           \"before\":{\"groupbys\":%d,\"max1rows\":%d,\"outerjoins\":%d,\
           \"nodes\":%d,\"cost\":%.2f},\
           \"after\":{\"groupbys\":%d,\"max1rows\":%d,\"outerjoins\":%d,\
           \"nodes\":%d,\"cost\":%.2f}}"
          (Exec.Metrics.json_string qname)
          (List.length e_after.Engine.result.rows)
          lost_operator gb0 m0 oj0 n0 p_before.Engine.plan_cost gb1 m1 oj1 n1
          p_after.Engine.plan_cost)
      Workloads.property_named
  in
  let json =
    Printf.sprintf
      "{\"sf\":%.3f,\"workloads\":%d,\"operator_eliminations\":%d,\"runs\":[\n%s\n]}\n"
      sf
      (List.length Workloads.property_named)
      !wins
      (String.concat ",\n" entries)
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  fmt "wrote %s (%d workloads, %d with an operator eliminated; bags cross-checked)\n"
    out
    (List.length Workloads.property_named)
    !wins;
  if !wins = 0 then begin
    Printf.eprintf
      "PROPERTY BENCH GATE: no workload lost a GroupBy, Max1row or outer join \
       under the property rewrites\n%!";
    exit 2
  end

(* --- concurrent mode: BENCH_6.json ------------------------------------- *)

(* CI artifact for the service layer: drive the concurrent query
   service at 1/2/4/8 worker domains over the Apply-free workloads
   (detected from the chosen plans: zero Apply invocations under the
   full configuration) and record throughput and latency percentiles
   per domain count.  Every reply is still differentially checked
   against the single-threaded row oracle — a wrong bag aborts.

   Requested domain counts are clamped to the host's cores and each
   distinct clamped count runs once: oversubscribed counts measure
   scheduler interleaving, not scaling — minutes of bench time for a
   misleadingly sub-1x row.  Clamped or skipped rows carry
   ["oversubscribed": true] in the artifact so downstream dashboards
   don't read them as regressions.

   The scaling assertion (4-domain throughput >= 2x single-domain) only
   fires when the host actually has >= 4 cores; on smaller hosts the
   domain counts interleave on one core and the artifact records the
   (physically expected) flat profile together with the core count. *)

let concurrent ?(out = "BENCH_6.json") () =
  let sf = 0.01 in
  let db = database sf in
  let eng = Engine.create db in
  let bag rows =
    List.sort compare
      (List.map
         (fun r -> String.concat "|" (Array.to_list (Array.map Relalg.Value.to_string r)))
         rows)
  in
  (* Apply-free = the full configuration's chosen plan executes zero
     Apply invocations (fully decorrelated); these are the workloads
     whose parallel speedup the paper's techniques unlock *)
  let apply_free =
    List.filter_map
      (fun (name, sql) ->
        let p = Engine.prepare eng sql in
        let e = Engine.execute ~mode:`Row eng p in
        if e.Engine.apply_invocations = 0 then
          Some (name, sql, bag e.Engine.result.rows)
        else None)
      Workloads.all_named
  in
  if apply_free = [] then begin
    Printf.eprintf "no Apply-free workloads found\n%!";
    exit 2
  end;
  let requests = 160 in
  let cores = Domain.recommended_domain_count () in
  let run_at domains =
    let config =
      { Service.default_config with domains; max_queue = requests + 8 }
    in
    let t = Service.create ~config db in
    let reqs =
      List.init requests (fun i ->
          let name, sql, oracle = List.nth apply_free (i mod List.length apply_free) in
          ( name,
            oracle,
            Service.request ~session:(Printf.sprintf "s%d" (i mod (2 * domains))) sql ))
    in
    let started = Unix.gettimeofday () in
    let replies = Service.run_many t (List.map (fun (_, _, r) -> r) reqs) in
    let elapsed = Unix.gettimeofday () -. started in
    List.iter2
      (fun (name, oracle, _) (r : Service.reply) ->
        match r.Service.outcome with
        | Ok e ->
            if bag e.Engine.result.Exec.Executor.rows <> oracle then begin
              Printf.eprintf "CONCURRENT DISAGREEMENT on %s at %d domains\n%!" name
                domains;
              exit 2
            end
        | Error err ->
            Printf.eprintf "request failed on %s at %d domains: %s\n%!" name domains
              (Service.error_to_string err);
            exit 2)
      reqs replies;
    let s = Service.stats t in
    Service.shutdown t;
    let throughput = float_of_int requests /. elapsed in
    fmt "  %d domain(s): %6.1f req/s  (%.2fs, %s)\n%!" domains throughput elapsed
      (Service.Stats.percentiles_to_string s.Service.Stats.latency);
    (domains, elapsed, throughput, s)
  in
  fmt "concurrent service bench: %d requests over %s (SF %.3f, %d cores)\n%!" requests
    (String.concat ", " (List.map (fun (n, _, _) -> n) apply_free))
    sf cores;
  let plan =
    let seen = Hashtbl.create 4 in
    List.map
      (fun want ->
        let domains = min want cores in
        if (want = 8 && cores < 2) || Hashtbl.mem seen domains then (want, None)
        else begin
          Hashtbl.add seen domains ();
          (want, Some domains)
        end)
      [ 1; 2; 4; 8 ]
  in
  let runs =
    List.map
      (fun (want, action) ->
        match action with
        | None ->
            fmt "  %d domain(s): skipped (host has %d core(s))\n%!" want cores;
            (want, None)
        | Some domains -> (want, Some (run_at domains)))
      plan
  in
  let speedup =
    let rps d =
      List.find_map
        (fun (_, r) ->
          match r with
          | Some (d', _, t, _) when d' = d -> Some t
          | _ -> None)
        runs
    in
    match (rps 1, rps 4) with
    | Some r1, Some r4 when r1 > 0. -> r4 /. r1
    | _ -> 0.
  in
  let json =
    Printf.sprintf
      "{\"sf\":%.3f,\"requests\":%d,\"cores\":%d,\"workloads\":[%s],\
       \"speedup_4_vs_1\":%.2f,\"runs\":[\n%s\n]}\n"
      sf requests cores
      (String.concat ","
         (List.map (fun (n, _, _) -> Exec.Metrics.json_string n) apply_free))
      speedup
      (String.concat ",\n"
         (List.map
            (fun (want, r) ->
              match r with
              | None ->
                  Printf.sprintf
                    "  {\"requested\":%d,\"skipped\":true,\"oversubscribed\":true}"
                    want
              | Some (domains, elapsed, throughput, s) ->
                  Printf.sprintf
                    "  {\"requested\":%d,\"domains\":%d,\"oversubscribed\":%b,\
                     \"elapsed_s\":%.3f,\"throughput_rps\":%.1f,\
                     \"latency\":%s,\"retried\":%d,\"degraded\":%d}"
                    want domains (want > domains) elapsed throughput
                    (Service.Stats.percentiles_to_json s.Service.Stats.latency)
                    s.Service.Stats.retried s.Service.Stats.degraded)
            runs))
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  fmt "wrote %s (speedup 4-vs-1: %.2fx on %d cores)\n" out speedup cores;
  if cores >= 4 && speedup < 2.0 then begin
    Printf.eprintf
      "SCALING REGRESSION: 4-domain throughput only %.2fx single-domain (>= 2x \
       required on %d cores)\n%!"
      speedup cores;
    exit 2
  end

(* --- durability mode: BENCH_8.json ------------------------------------- *)

(* Durability-layer bench: journaled table loads and per-append fsync
   throughput through the WAL, snapshot write and snapshot-based
   recovery, and cold recovery from a WAL alone (replay), at two scale
   factors.  Every recovery is gated on restoring exactly the source
   row counts — a wrong recovered state aborts the bench. *)

let durability ?(out = "BENCH_8.json") () =
  let module Durable = Storage.Durable in
  let module Table = Storage.Table in
  let module Db = Storage.Database in
  let appends = 300 in
  let now = Unix.gettimeofday in
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
  let cell sf =
    let db = database sf in
    let rows_of t = Table.to_rows (Db.table db t) in
    let total_rows =
      List.fold_left (fun a t -> a + Table.row_count (Db.table db t)) 0 tables
    in
    (* the recovery gate: exactly the committed state, nothing else *)
    let expect_counts what (st : Durable.t) ~(extra_orders : int) =
      List.iter
        (fun t ->
          let want =
            Table.row_count (Db.table db t)
            + if t = "orders" then extra_orders else 0
          in
          let got = Table.row_count (Db.table (Durable.db st) t) in
          if got <> want then begin
            Printf.eprintf
              "DURABILITY RECOVERY MISMATCH (%s, SF %.2f): table %s has %d rows, \
               want %d\n%!"
              what sf t got want;
            exit 2
          end)
        tables
    in
    let journal dir =
      let st = Durable.open_db ~dir cat in
      let t0 = now () in
      List.iter (fun t -> Durable.load st t (rows_of t)) tables;
      let load_s = now () -. t0 in
      let t0 = now () in
      for i = 1 to appends do
        Durable.append st "orders" (marker i)
      done;
      (st, load_s, now () -. t0)
    in
    (* snapshot path: rotate, then recover from the anchor *)
    let dir = scratch (Printf.sprintf "snap-%.2f" sf) in
    let st, load_s, append_s = journal dir in
    let wal_bytes = dir_bytes ~suffix:".log" dir in
    let t0 = now () in
    ignore (Durable.rotate st);
    let snapshot_write_s = now () -. t0 in
    let snapshot_bytes =
      (Unix.stat (Storage.Snapshot.snapshot_path ~dir 1)).Unix.st_size
    in
    Durable.close st;
    let t0 = now () in
    let st2 = Durable.open_db ~dir cat in
    let snapshot_recover_s = now () -. t0 in
    expect_counts "snapshot recovery" st2 ~extra_orders:appends;
    Durable.close st2;
    rm_rf dir;
    (* replay path: the same mutations recovered from the WAL alone *)
    let dir2 = scratch (Printf.sprintf "wal-%.2f" sf) in
    let st3, _, _ = journal dir2 in
    Durable.close st3;
    let t0 = now () in
    let st4 = Durable.open_db ~dir:dir2 cat in
    let wal_replay_s = now () -. t0 in
    expect_counts "WAL replay" st4 ~extra_orders:appends;
    let replayed = (Durable.recovery_info st4).Durable.rec_entries_replayed in
    Durable.close st4;
    rm_rf dir2;
    let mutations = List.length tables + appends in
    if replayed <> mutations then begin
      Printf.eprintf "DURABILITY REPLAY MISMATCH (SF %.2f): %d entries, want %d\n%!"
        sf replayed mutations;
      exit 2
    end;
    fmt
      "SF %.2f: %6d rows  load %.3fs  %d appends %.3fs (%.0f/s)  snapshot %.3fs \
       (%d B)  snap-recover %.3fs  wal-replay %.3fs (%.0f rows/s)\n%!"
      sf total_rows load_s appends append_s
      (float_of_int appends /. Float.max 1e-9 append_s)
      snapshot_write_s snapshot_bytes snapshot_recover_s wal_replay_s
      (float_of_int (total_rows + appends) /. Float.max 1e-9 wal_replay_s);
    Printf.sprintf
      "  {\"sf\":%.2f,\"rows\":%d,\"appends\":%d,\"journal_load_s\":%.6f,\
       \"journal_rows_per_s\":%.0f,\"append_s\":%.6f,\"appends_per_s\":%.0f,\
       \"wal_bytes\":%d,\"snapshot_write_s\":%.6f,\"snapshot_bytes\":%d,\
       \"snapshot_recover_s\":%.6f,\"wal_replay_s\":%.6f,\"replay_rows_per_s\":%.0f,\
       \"entries_replayed\":%d}"
      sf total_rows appends load_s
      (float_of_int total_rows /. Float.max 1e-9 load_s)
      append_s
      (float_of_int appends /. Float.max 1e-9 append_s)
      wal_bytes snapshot_write_s snapshot_bytes snapshot_recover_s wal_replay_s
      (float_of_int (total_rows + appends) /. Float.max 1e-9 wal_replay_s)
      replayed
  in
  let cells = List.map cell [ 0.01; 0.1 ] in
  let json =
    Printf.sprintf "{\"appends\":%d,\"cells\":[\n%s\n]}\n" appends
      (String.concat ",\n" cells)
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  fmt "wrote %s (%d scale factors; every recovery row-count gated)\n" out
    (List.length cells)

(* --- cache mode: BENCH_10.json ------------------------------------------ *)

(* CI artifact for the caching tier.  Two halves:

   (a) plan-phase speedup: for every named workload, the cold path
       (parse -> normalize -> cost-based search -> verify) is timed
       against the warm path (parse -> canonicalize -> template rebind,
       search and verification skipped) on a cache-enabled engine.
       Warm prepares must report a plan-cache hit and the cached plan's
       result bag must equal a fresh uncached optimization's.
       Gate: geometric-mean speedup >= 5x.

   (b) batch CSE win: the q17 family with the global-average threshold
       — three statements sharing the decorrelated aggregate over
       lineitem — executed via [Engine.query_many] (shared subplans
       materialized once) against the same prepared statements executed
       sequentially.  Plans are warm on both sides, so the ratio
       isolates the execution-phase CSE effect; each rep runs on a
       fresh engine so materialization cost is inside the measurement.
       Item bags are cross-checked against the sequential runs.
       Gates: median win >= 1.2x, >= 1 CSE selected, >= 1
       materialization. *)

let cache_bench ?(out = "BENCH_10.json") () =
  let bag rows =
    List.sort compare
      (List.map
         (fun r -> String.concat "|" (Array.to_list (Array.map Relalg.Value.to_string r)))
         rows)
  in
  (* (a) plan-phase: cold optimization vs warm template rebind *)
  let sf_plan = 0.01 in
  let db = database sf_plan in
  let eng = Engine.create db in
  Engine.enable_cache eng;
  let time_best n f =
    let best = ref infinity in
    for _ = 1 to n do
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let plan_rows =
    List.map
      (fun (qname, sql) ->
        let cold_s =
          time_best 3 (fun () -> ignore (Engine.prepare ~use_cache:false eng sql))
        in
        ignore (Engine.prepare eng sql);
        (* prime: template inserted *)
        let warm_p = ref None in
        let warm_s = time_best 10 (fun () -> warm_p := Some (Engine.prepare eng sql)) in
        let p = Option.get !warm_p in
        if p.Engine.cache <> Some `Hit then begin
          Printf.eprintf "CACHE BENCH: warm prepare of %s was not a plan-cache hit\n%!"
            qname;
          exit 2
        end;
        let cached_bag = bag (Engine.execute eng p).Engine.result.rows in
        let fresh_bag =
          bag
            (Engine.execute eng (Engine.prepare ~use_cache:false eng sql))
              .Engine.result.rows
        in
        if cached_bag <> fresh_bag then begin
          Printf.eprintf "CACHE BENCH: cached plan of %s returned a different bag\n%!"
            qname;
          exit 2
        end;
        let speedup = cold_s /. Float.max 1e-9 warm_s in
        fmt "  %-14s cold %7.3f ms  warm %7.3f ms  speedup %6.1fx\n%!" qname
          (cold_s *. 1e3) (warm_s *. 1e3) speedup;
        (qname, cold_s, warm_s, speedup))
      Workloads.all_named
  in
  let plan_geomean = geomean (List.map (fun (_, _, _, s) -> s) plan_rows) in
  fmt "plan-phase speedup (geomean over %d workloads): %.1fx\n%!"
    (List.length plan_rows) plan_geomean;
  (* (b) batch CSE win on the q17 family (global-average threshold) *)
  let sf_batch = 0.02 in
  let db = database sf_batch in
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
  let seq_bags =
    List.map (fun p -> bag (Engine.execute eng_seq p).Engine.result.rows) seq_preps
  in
  let reps = 7 in
  let cells =
    List.init reps (fun rep ->
        let eng = Engine.create db in
        Engine.enable_cache eng;
        List.iter (fun sql -> ignore (Engine.prepare eng sql)) family;
        let t0 = Unix.gettimeofday () in
        let b = Engine.query_many eng family in
        let batch_s = Unix.gettimeofday () -. t0 in
        let t1 = Unix.gettimeofday () in
        List.iter (fun p -> ignore (Engine.execute eng_seq p)) seq_preps;
        let seq_s = Unix.gettimeofday () -. t1 in
        List.iteri
          (fun i (it : Engine.batch_item) ->
            if bag it.Engine.item_execution.Engine.result.rows <> List.nth seq_bags i
            then begin
              Printf.eprintf "CACHE BENCH: batch item %d returned a different bag\n%!" i;
              exit 2
            end)
          b.Engine.items;
        let s = Option.get (Engine.cache_stats eng) in
        let win = seq_s /. Float.max 1e-9 batch_s in
        fmt
          "  rep %d: batch %.3fs  sequential %.3fs  win %.2fx  (%d CSEs, %d \
           substitutions, %d materializations)\n%!"
          (rep + 1) batch_s seq_s win b.Engine.cse_count b.Engine.cse_substitutions
          s.Engine.cse_materializations;
        (batch_s, seq_s, win, b.Engine.cse_count, b.Engine.cse_substitutions,
         s.Engine.cse_materializations))
  in
  let wins = List.map (fun (_, _, w, _, _, _) -> w) cells in
  let win_median = List.nth (List.sort compare wins) (reps / 2) in
  let _, _, _, cse_count, substitutions, materializations = List.hd cells in
  fmt "batch CSE win (median of %d reps): %.2fx\n%!" reps win_median;
  let json =
    Printf.sprintf
      "{\"sf_plan\":%.3f,\"sf_batch\":%.3f,\"plan_speedup_geomean\":%.2f,\
       \"plan_cache\":[\n%s\n],\
       \"batch\":{\"family_size\":%d,\"reps\":%d,\"win_median\":%.3f,\
       \"cse_count\":%d,\"substitutions\":%d,\"materializations\":%d,\
       \"cells\":[\n%s\n]}}\n"
      sf_plan sf_batch plan_geomean
      (String.concat ",\n"
         (List.map
            (fun (q, c, w, s) ->
              Printf.sprintf
                "  {\"query\":%s,\"cold_s\":%.6f,\"warm_s\":%.6f,\"speedup\":%.2f}"
                (Exec.Metrics.json_string q) c w s)
            plan_rows))
      (List.length family) reps win_median cse_count substitutions materializations
      (String.concat ",\n"
         (List.map
            (fun (b, s, w, _, _, _) ->
              Printf.sprintf "  {\"batch_s\":%.6f,\"seq_s\":%.6f,\"win\":%.2f}" b s w)
            cells))
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  fmt "wrote %s (plan-phase geomean %.1fx, batch win median %.2fx)\n" out plan_geomean
    win_median;
  if plan_geomean < 5.0 then begin
    Printf.eprintf
      "CACHE BENCH GATE: plan-phase speedup %.1fx below the 5x floor\n%!" plan_geomean;
    exit 2
  end;
  if cse_count < 1 || materializations < 1 then begin
    Printf.eprintf "CACHE BENCH GATE: the batch selected no CSE (count %d, mats %d)\n%!"
      cse_count materializations;
    exit 2
  end;
  if win_median < 1.2 then begin
    Printf.eprintf
      "CACHE BENCH GATE: batch CSE win %.2fx below the 1.2x floor\n%!" win_median;
    exit 2
  end

(* --- Bechamel mode ----------------------------------------------------- *)

let run_bechamel () =
  let open Bechamel in
  let db = database 0.01 in
  let eng = Engine.create db in
  let bench name config sql =
    let p = Engine.prepare ~config eng sql in
    Test.make ~name (Staged.stage (fun () -> ignore (Engine.execute eng p)))
  in
  let tests =
    [ bench "e1-lattice/correlated" Optimizer.Config.correlated_only Workloads.q1_subquery;
      bench "e1-lattice/full" Optimizer.Config.full Workloads.q1_subquery;
      bench "e3-q17seg/full" Optimizer.Config.full Workloads.q17_all_parts;
      bench "e4-exists/full" Optimizer.Config.full Workloads.exists_workload;
      bench "e5-q2/correlated" Optimizer.Config.correlated_only Workloads.q2;
      bench "e5-q2/full" Optimizer.Config.full Workloads.q2;
      bench "e6-q17/correlated" Optimizer.Config.correlated_only Workloads.q17;
      bench "e6-q17/full" Optimizer.Config.full Workloads.q17;
      bench "e7-ojform/full" Optimizer.Config.full Workloads.q1_outerjoin_agg;
      bench "e8-revenue/full" Optimizer.Config.full Workloads.revenue_per_nation
    ]
  in
  let test = Test.make_grouped ~name:"subquery-opt" tests in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  fmt "\n=== Bechamel timings (ns per run, OLS estimate) ===\n";
  let entries = ref [] in
  Hashtbl.iter
    (fun name result ->
      let est =
        match Analyze.OLS.estimates result with Some [ e ] -> e | _ -> Float.nan
      in
      entries := (name, est) :: !entries)
    results;
  List.iter
    (fun (name, est) -> fmt "%-28s %14.0f ns/run\n" name est)
    (List.sort compare !entries)

(* --- driver ------------------------------------------------------------- *)

let all_experiments =
  [ ("e1", e1); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7); ("e8", e8) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--smoke" args then smoke ()
  else if List.mem "--properties" args then properties ()
  else if List.mem "--concurrent" args then concurrent ()
  else if List.mem "--durability" args then durability ()
  else if List.mem "--cache" args then cache_bench ()
  else if List.mem "--bechamel" args then run_bechamel ()
  else begin
    let selected =
      match List.filter (fun a -> List.mem_assoc a all_experiments) args with
      | [] -> all_experiments
      | names -> List.map (fun n -> (n, List.assoc n all_experiments)) names
    in
    fmt "Orthogonal Optimization of Subqueries and Aggregation - benchmark harness\n";
    fmt "(reproducing the evaluation of Galindo-Legaria & Joshi, SIGMOD 2001)\n";
    List.iter (fun (_, f) -> f ()) selected;
    fmt "\nAll experiment result sets were cross-checked between configurations.\n"
  end
