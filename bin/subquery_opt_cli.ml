(* Command-line interface: load a TPC-H database at a scale factor and
   run SQL against it, with plan inspection.

   Examples:
     subquery_opt run --sf 0.01 "select count(*) from orders"
     subquery_opt explain --sf 0.01 --stages \
       "select c_custkey from customer where 1000 < (select sum(o_totalprice) \
        from orders where o_custkey = c_custkey)"
     subquery_opt repl --sf 0.01 --level correlated
*)

open Cmdliner

let level_conv =
  let parse = function
    | "correlated" -> Ok Optimizer.Config.correlated_only
    | "decorrelated" -> Ok Optimizer.Config.decorrelated_only
    | "full" -> Ok Optimizer.Config.full
    | s -> Error (`Msg ("unknown optimizer level: " ^ s))
  in
  let print fmtr c = Format.pp_print_string fmtr (Optimizer.Config.name_of c) in
  Arg.conv (parse, print)

let sf_arg =
  let doc = "TPC-H scale factor for the generated database (0.001 or more)." in
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok sf -> (
        try
          ignore (Datagen.Tpch_gen.expected_rows sf);
          Ok sf
        with Invalid_argument m -> Error (`Msg m))
    | Error _ as e -> e
  in
  let sf = Arg.conv (parse, Arg.conv_printer Arg.float) in
  Arg.(value & opt sf 0.01 & info [ "sf" ] ~docv:"SF" ~doc)

let seed_arg =
  let doc = "Data generator seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let level_arg =
  let doc =
    "Optimizer level: correlated (execute subqueries as written), decorrelated \
     (flattening + outerjoin simplification), or full (all techniques)."
  in
  Arg.(value & opt level_conv Optimizer.Config.full & info [ "level" ] ~docv:"LEVEL" ~doc)

let sql_arg =
  let doc = "The SQL query." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)

let exec_mode_conv =
  let parse = function
    | "row" -> Ok `Row
    | "vector" -> Ok `Vector
    | s -> Error (`Msg ("unknown exec mode: " ^ s))
  in
  let print fmtr m = Format.pp_print_string fmtr (Engine.exec_mode_name m) in
  Arg.conv (parse, print)

let exec_mode_arg =
  let doc =
    "Execution engine: row (tuple-at-a-time interpreter, the semantic oracle) or \
     vector (batch-at-a-time columnar executor running every operator natively; \
     same bags and runtime errors as row)."
  in
  Arg.(value & opt exec_mode_conv `Row & info [ "exec-mode" ] ~docv:"MODE" ~doc)

(* --- resource budgets and fault injection --------------------------- *)

let timeout_arg =
  let doc = "Wall-clock budget in seconds; the query is cancelled when it trips." in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS" ~doc)

let max_rows_arg =
  let doc = "Budget on rows processed by executor operators." in
  Arg.(value & opt (some int) None & info [ "max-rows" ] ~docv:"N" ~doc)

let max_apply_arg =
  let doc = "Budget on Apply invocations (correlated work)." in
  Arg.(value & opt (some int) None & info [ "max-apply" ] ~docv:"N" ~doc)

let budget_of timeout max_rows max_apply =
  let b = Exec.Budget.make ?max_rows ?max_apply ?timeout_s:timeout () in
  if Exec.Budget.is_unlimited b then None else Some b

let fault_conv =
  let parse s =
    match Exec.Faults.parse s with Ok spec -> Ok spec | Error m -> Error (`Msg m)
  in
  let print fmtr s = Format.pp_print_string fmtr (Exec.Faults.spec_to_string s) in
  Arg.conv (parse, print)

let fault_arg =
  let doc =
    "Inject executor faults, e.g. join:nth:3 (fail the 3rd join evaluation), \
     any:p:0.01:seed:7 (1% per-operator failure, seeded), groupby:every:10."
  in
  Arg.(value & opt (some fault_conv) None & info [ "fault" ] ~docv:"SPEC" ~doc)

let resilient_arg =
  let doc =
    "On a recoverable failure (runtime error, budget trip, injected fault), retry \
     the query on the correlated-execution fallback plan."
  in
  Arg.(value & flag & info [ "resilient" ] ~doc)

let with_engine sf seed f =
  Printf.eprintf "loading TPC-H at SF %.3f (seed %d)...\n%!" sf seed;
  let db = Datagen.Tpch_gen.database ~seed ~sf () in
  f (Engine.create db)

(* Typed-diagnostic wrapper: pipeline failures print structured errors
   and exit 1 instead of dumping a raw OCaml exception. *)
let or_die sql f =
  match Engine.Errors.protect ~sql f with
  | Ok v -> v
  | Error e ->
      Printf.eprintf "%s\n%!" (Engine.Errors.to_string e);
      exit 1

let no_cache_arg =
  let doc = "Disable the plan/CSE caching tier (on by default for this command)." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let run_cmd =
  let action sf seed config mode timeout max_rows max_apply fault resilient no_cache sql =
    with_engine sf seed (fun eng ->
        if not no_cache then Engine.enable_cache eng;
        let budget = budget_of timeout max_rows max_apply in
        let faults = Option.map Exec.Faults.create fault in
        or_die sql (fun () ->
            if resilient then begin
              let r = Engine.query_resilient ~config ?budget ?faults eng sql in
              print_endline (Engine.format_result r.execution.result);
              (match r.primary_error with
              | Some err ->
                  Printf.printf "\ndegraded: primary plan failed (%s); served by %s\n"
                    (Engine.Errors.to_string err) r.served_by
              | None -> Printf.printf "\nserved by %s\n" r.served_by);
              Printf.printf "elapsed: %.3fs\n" r.execution.elapsed_s
            end
            else begin
              let p = Engine.prepare ~config eng sql in
              let e = Engine.execute ?budget ?faults ~mode eng p in
              print_endline (Engine.format_result e.result);
              let source =
                match p.Engine.cache with
                | Some `Hit -> "   plan: cached"
                | Some (`Miss | `Stale) | None -> ""
              in
              Printf.printf "\nelapsed: %.3fs   plan cost: %.0f   alternatives: %d%s\n"
                e.elapsed_s p.plan_cost p.explored source
            end))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a SQL query and print the result.")
    Term.(
      const action $ sf_arg $ seed_arg $ level_arg $ exec_mode_arg $ timeout_arg
      $ max_rows_arg $ max_apply_arg $ fault_arg $ resilient_arg $ no_cache_arg $ sql_arg)

let fuzz_seed_arg =
  let doc =
    "Check the generated fuzz query with this generator seed instead of a SQL \
     argument (replay a fuzz failure; combine with --case)."
  in
  Arg.(value & opt (some int) None & info [ "fuzz-seed" ] ~docv:"SEED" ~doc)

let case_arg =
  let doc = "Fuzz case number within the seed's stream." in
  Arg.(value & opt int 0 & info [ "case" ] ~docv:"N" ~doc)

let float_digits_arg =
  let doc =
    "Round floats to $(docv) significant digits before comparing result bags \
     (plans that join in a different order sum floats in a different order).  \
     Defaults to exact comparison, or to 6 when replaying with --fuzz-seed."
  in
  Arg.(value & opt (some int) None & info [ "float-digits" ] ~docv:"N" ~doc)

let check_cmd =
  let sql_opt_arg =
    let doc = "The SQL query to check; omit to check the built-in TPC-H workloads." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)
  in
  let action sf seed config mode timeout max_rows max_apply fuzz_seed case float_digits
      sql =
    with_engine sf seed (fun eng ->
        let budget = budget_of timeout max_rows max_apply in
        let queries =
          match (fuzz_seed, sql) with
          | Some fs, _ ->
              [ (Printf.sprintf "fuzz %d:%d" fs case, Testgen.Qgen.sql_of ~seed:fs ~case) ]
          | None, Some sql -> [ ("query", sql) ]
          | None, None -> Workloads.all_named
        in
        let float_digits =
          match (float_digits, fuzz_seed) with
          | (Some _ as d), _ -> d
          | None, Some _ -> Some Testgen.Fuzz.float_digits
          | None, None -> None
        in
        let failed = ref 0 in
        List.iter
          (fun (name, sql) ->
            let report =
              or_die sql (fun () ->
                  Engine.check ~candidate:config ~mode ?budget ?float_digits eng sql)
            in
            if not report.Engine.agree then incr failed;
            Printf.printf "%-14s %s" name (Engine.format_check_report report))
          queries;
        if !failed > 0 then begin
          Printf.eprintf "%d of %d checks FAILED\n%!" !failed (List.length queries);
          exit 1
        end)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential check: run the query under the chosen level and under \
          correlated execution (the semantic oracle) and compare result bags.  With \
          --exec-mode vector, the candidate side runs on the columnar executor, \
          making this the row-vs-vector differential harness.")
    Term.(
      const action $ sf_arg $ seed_arg $ level_arg $ exec_mode_arg $ timeout_arg
      $ max_rows_arg $ max_apply_arg $ fuzz_seed_arg $ case_arg $ float_digits_arg
      $ sql_opt_arg)

let lint_cmd =
  let sql_opt_arg =
    let doc = "The SQL query to lint; omit to sweep the built-in TPC-H workloads." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)
  in
  let strict_arg =
    let doc = "Exit non-zero on WARNING findings too, not just ERROR." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let action sf seed config strict sql =
    with_engine sf seed (fun eng ->
        let queries =
          match sql with Some s -> [ ("query", s) ] | None -> Workloads.all_named
        in
        let errors = ref 0 and warnings = ref 0 in
        List.iter
          (fun (name, sql) ->
            let p = or_die sql (fun () -> Engine.prepare ~config eng sql) in
            List.iter
              (fun (f : Analysis.Lint.finding) ->
                match f.severity with
                | Analysis.Lint.Error -> incr errors
                | Analysis.Lint.Warning -> incr warnings
                | Analysis.Lint.Info -> ())
              p.Engine.lint;
            Printf.printf "%-14s %s\n" name (Analysis.Lint.summary p.Engine.lint);
            List.iter
              (fun f -> Printf.printf "  %s\n" (Analysis.Lint.finding_to_string f))
              p.Engine.lint)
          queries;
        if !errors > 0 || (strict && !warnings > 0) then begin
          Printf.eprintf "lint: %d error(s), %d warning(s)\n%!" !errors !warnings;
          exit 1
        end)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze optimized plans: residual correlation, simplifiable \
          outerjoins, redundant grouping, contradictory or tautological predicates, \
          dead columns, cross-type comparisons.  Without SQL, sweeps the built-in \
          TPC-H workloads; exits non-zero on any ERROR finding.")
    Term.(const action $ sf_arg $ seed_arg $ level_arg $ strict_arg $ sql_opt_arg)

let fuzz_cmd =
  let seeds_arg =
    let doc = "Generator seeds to sweep (one stream of cases per seed)." in
    Arg.(value & pos_all int [ 1; 2; 3; 4; 5 ] & info [] ~docv:"SEED" ~doc)
  in
  let cases_arg =
    let doc = "Cases to generate per seed." in
    Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let replay_arg =
    let doc = "Replay a single case number instead of sweeping (use one SEED)." in
    Arg.(value & opt (some int) None & info [ "case" ] ~docv:"N" ~doc)
  in
  let verbose_arg =
    let doc = "Print every case, not just failures." in
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc)
  in
  let cache_arg =
    let doc =
      "Check the caching tier instead: every case runs cold and then warm with \
       perturbed literals against a cache-enabled engine, each bag-compared to a \
       fresh uncached optimization of the same SQL."
    in
    Arg.(value & flag & info [ "cache" ] ~doc)
  in
  let action sf seed mode cases replay verbose cache timeout max_rows max_apply fault
      seeds =
    with_engine sf seed (fun eng ->
        let budget = budget_of timeout max_rows max_apply in
        let failures = ref 0 in
        List.iter
          (fun fuzz_seed ->
            let cfg =
              { (Testgen.Fuzz.default_config ~seed:fuzz_seed ~cases) with
                Testgen.Fuzz.only_case = replay;
                budget;
                fault;
                exec_mode = mode;
                cache;
              }
            in
            let summary =
              Testgen.Fuzz.run
                ~on_case:(fun r ->
                  if verbose || Testgen.Fuzz.is_failure r.outcome then
                    print_string (Testgen.Fuzz.format_case r))
                cfg eng
            in
            failures := !failures + List.length summary.Testgen.Fuzz.failures;
            Printf.printf "seed %d: %s\n%!" fuzz_seed (Testgen.Fuzz.format_summary summary))
          seeds;
        if !failures > 0 then begin
          Printf.eprintf "fuzz: %d failing cases\n%!" !failures;
          exit 1
        end)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate seeded random correlated-subquery queries, \
          run each under the full optimizer and the correlated oracle, and compare \
          result bags.  Failures shrink to a minimal reproducer; replay one with \
          --case (or `check --fuzz-seed`).  With --fault, checks the resilience \
          contract instead: agree with the clean oracle or die with a typed error.")
    Term.(
      const action $ sf_arg $ seed_arg $ exec_mode_arg $ cases_arg $ replay_arg
      $ verbose_arg $ cache_arg $ timeout_arg $ max_rows_arg $ max_apply_arg $ fault_arg
      $ seeds_arg)

let explain_cmd =
  let stages_arg =
    let doc = "Show every normalization stage (Figures 2/3/5 of the paper)." in
    Arg.(value & flag & info [ "stages" ] ~doc)
  in
  let analyze_arg =
    let doc =
      "Execute the chosen plan and annotate every operator with invocations, rows \
       in/out, wall time, index probes and hash-build sizes; includes the \
       optimizer's rule-firing trace."
    in
    Arg.(value & flag & info [ "analyze" ] ~doc)
  in
  let trace_arg =
    let doc = "Show the optimizer's per-round rule-firing trace (without executing)." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let json_arg =
    let doc = "Emit machine-readable JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let no_properties_arg =
    let doc =
      "Suppress the per-node property section (derived keys, functional \
       dependencies, non-nullable columns, cardinality intervals)."
    in
    Arg.(value & flag & info [ "no-properties" ] ~doc)
  in
  let sql_opt_arg =
    let doc = "The SQL query; omit to explain the built-in TPC-H bench workloads." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)
  in
  let action sf seed config mode stages analyze trace json no_properties sql =
    let properties = not no_properties in
    with_engine sf seed (fun eng ->
        let queries =
          match sql with Some s -> [ ("query", s) ] | None -> Workloads.all_named
        in
        if json then begin
          match sql with
          | Some s ->
              print_endline
                (or_die s (fun () ->
                     Engine.explain_json ~config ~analyze ~properties ~mode eng s))
          | None ->
              let objs =
                List.map
                  (fun (name, sql) ->
                    or_die sql (fun () ->
                        Printf.sprintf "{\"workload\":%s,\"explain\":%s}"
                          (Relalg.Json.string name)
                          (Engine.explain_json ~config ~analyze ~properties ~mode eng
                             sql)))
                  queries
              in
              print_endline ("[" ^ String.concat ",\n" objs ^ "]")
        end
        else
          List.iter
            (fun (name, sql) ->
              if List.length queries > 1 then Printf.printf "=== %s ===\n" name;
              or_die sql (fun () ->
                  if analyze then
                    print_string (Engine.explain_analyze ~config ~properties ~mode eng sql)
                  else begin
                    if stages then print_string (Engine.explain_stages ~config eng sql)
                    else print_string (Engine.explain ~config ~properties eng sql);
                    if trace then begin
                      let p = Engine.prepare ~config ~record_trace:true eng sql in
                      print_string "== optimizer trace ==\n";
                      match p.Engine.trace with
                      | Some tr -> print_string (Optimizer.Search.trace_to_string tr)
                      | None -> print_string "(cost-based search disabled)\n"
                    end
                  end);
              if List.length queries > 1 then print_newline ())
            queries)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the normalized tree and the chosen plan; --analyze executes it with \
          per-operator metrics (EXPLAIN ANALYZE), --trace shows the rule-firing \
          trace, --json emits machine-readable output.")
    Term.(
      const action $ sf_arg $ seed_arg $ level_arg $ exec_mode_arg $ stages_arg
      $ analyze_arg $ trace_arg $ json_arg $ no_properties_arg $ sql_opt_arg)

let repl_cmd =
  let action sf seed config =
    with_engine sf seed (fun eng ->
        print_endline "subquery_opt repl — terminate statements with ';', exit with \\q";
        let buf = Buffer.create 256 in
        let rec loop () =
          print_string (if Buffer.length buf = 0 then "sql> " else "  -> ");
          flush stdout;
          match input_line stdin with
          | exception End_of_file -> ()
          | line when String.trim line = "\\q" -> ()
          | line ->
              Buffer.add_string buf line;
              Buffer.add_char buf ' ';
              let s = Buffer.contents buf in
              (if String.contains line ';' then begin
                 Buffer.clear buf;
                 let sql = String.trim s in
                 let sql = String.sub sql 0 (String.index sql ';') in
                 try
                   if String.length sql >= 8 && String.sub sql 0 8 = "explain " then
                     print_string
                       (Engine.explain ~config eng
                          (String.sub sql 8 (String.length sql - 8)))
                   else print_endline (Engine.format_result (Engine.query ~config eng sql))
                 with e -> (
                   match Engine.Errors.of_exn ~sql e with
                   | Some err -> print_endline (Engine.Errors.to_string err)
                   | None -> raise e)
               end);
              loop ()
        in
        loop ())
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive SQL shell over the generated database.")
    Term.(const action $ sf_arg $ seed_arg $ level_arg)

(* --- durability ----------------------------------------------------- *)

let data_dir_arg =
  let doc =
    "Durable store directory (checksummed snapshots + write-ahead log).  Opened \
     with crash recovery: newest valid snapshot, WAL replay up to the first torn \
     record, index rebuild."
  in
  Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR" ~doc)

let data_dir_req =
  let doc = "Durable store directory." in
  Arg.(required & opt (some string) None & info [ "data-dir" ] ~docv:"DIR" ~doc)

let db_is_empty (db : Storage.Database.t) : bool =
  List.for_all
    (fun n -> Storage.Table.row_count (Storage.Database.table db n) = 0)
    (Catalog.table_names db.Storage.Database.catalog)

let print_recovery (eng : Engine.t) : unit =
  match Engine.recovery eng with
  | None -> ()
  | Some r ->
      Printf.eprintf "recovery: %s\n%!" (Storage.Durable.recovery_to_string r)

(* Open the store at [dir]; when it holds no rows yet, seed it with
   the generated TPC-H data through the journaled path. *)
let open_seeded ~dir ~sf ~seed : Engine.t =
  let eng = Engine.open_db ~dir (Catalog.tpch ()) in
  print_recovery eng;
  if db_is_empty (Engine.database eng) then begin
    Printf.eprintf "store is empty; seeding TPC-H at SF %.3f (seed %d)...\n%!" sf seed;
    let src = Datagen.Tpch_gen.database ~seed ~sf () in
    List.iter
      (fun name ->
        let rows = Storage.Table.to_rows (Storage.Database.table src name) in
        Engine.load_table eng name rows)
      (Catalog.table_names (Engine.database eng).Storage.Database.catalog)
  end;
  eng

let table_counts (db : Storage.Database.t) : string =
  Catalog.table_names db.Storage.Database.catalog
  |> List.sort compare
  |> List.map (fun n ->
         Printf.sprintf "  %-10s %8d rows" n
           (Storage.Table.row_count (Storage.Database.table db n)))
  |> String.concat "\n"

let snapshot_cmd =
  let action dir sf seed =
    or_die "" (fun () ->
        let eng = open_seeded ~dir ~sf ~seed in
        let epoch = Engine.snapshot eng in
        Engine.close_store eng;
        Printf.printf "snapshot written: %s (epoch %d)\n"
          (Storage.Snapshot.snapshot_path ~dir epoch)
          epoch)
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Open the durable store (seeding it with generated TPC-H data when \
          empty), write a checksummed snapshot of the committed state and rotate \
          the write-ahead log.")
    Term.(const action $ data_dir_req $ sf_arg $ seed_arg)

let recover_cmd =
  let action dir =
    or_die "" (fun () ->
        let eng = Engine.open_db ~dir (Catalog.tpch ()) in
        (match Engine.recovery eng with
        | Some r -> Printf.printf "recovery: %s\n" (Storage.Durable.recovery_to_string r)
        | None -> ());
        (match Engine.store eng with
        | Some s -> Printf.printf "epoch: %d\n" (Storage.Durable.epoch s)
        | None -> ());
        Printf.printf "%s\n" (table_counts (Engine.database eng));
        Engine.close_store eng)
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Run crash recovery on the durable store and report what was restored: \
          snapshot epoch, corrupt snapshots rejected, WAL records replayed, torn \
          bytes truncated, and per-table row counts.  Exits 1 with a typed storage \
          error when the on-disk state cannot be restored to an exact committed \
          prefix.")
    Term.(const action $ data_dir_req)

let restore_cmd =
  let action dir =
    or_die "" (fun () ->
        let eng = Engine.open_db ~dir (Catalog.tpch ()) in
        print_recovery eng;
        let epoch = Engine.snapshot eng in
        Engine.close_store eng;
        Printf.printf
          "restored committed state and compacted it into %s (epoch %d)\n"
          (Storage.Snapshot.snapshot_path ~dir epoch)
          epoch)
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:
         "Recover the committed state (newest valid snapshot + WAL replay) and \
          compact it into a fresh snapshot, rotating the log.  Use after \
          corruption was detected and worked around: the doctored file is \
          superseded by a newly verified one.")
    Term.(const action $ data_dir_req)

let serve_cmd =
  let domains_arg =
    let doc = "Worker domains in the service pool." in
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc = "Admission queue bound; submissions beyond it are shed." in
    Arg.(value & opt int 128 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Per-request deadline in seconds, measured from admission." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)
  in
  let sessions_arg =
    let doc = "Spread requests round-robin over this many sessions." in
    Arg.(value & opt int 4 & info [ "sessions" ] ~docv:"N" ~doc)
  in
  let max_cost_arg =
    let doc = "Optimizer-cost capacity; planned requests beyond it are shed." in
    Arg.(value & opt (some float) None & info [ "max-cost" ] ~docv:"COST" ~doc)
  in
  let json_arg =
    let doc = "Emit the final service statistics as JSON." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let cache_arg =
    let doc =
      "Enable the shared caching tier: workers prepare through one plan cache \
       (parameterized canonical forms, generation-based invalidation) and the \
       final statistics include hit/miss/invalidation counters."
    in
    Arg.(value & flag & info [ "cache" ] ~doc)
  in
  let action sf seed config mode domains queue deadline sessions max_cost fault json
      cache data_dir =
    let serve () =
        let service_config =
          { Service.default_config with
            domains;
            max_queue = queue;
            default_deadline_s = deadline;
            max_inflight_cost = max_cost;
            opt_config = config;
            exec_mode = mode;
            seed;
            enable_cache = cache;
          }
        in
        let t =
          match data_dir with
          | Some dir ->
              (* recovery-then-serve: the first admitted query already
                 sees exactly the committed prefix *)
              Service.create_with ~config:service_config (open_seeded ~dir ~sf ~seed)
          | None ->
              Printf.eprintf "loading TPC-H at SF %.3f (seed %d)...\n%!" sf seed;
              Service.create ~config:service_config (Datagen.Tpch_gen.database ~seed ~sf ())
        in
        (* one SQL statement per stdin line; all submitted before any
           reply is awaited, so overload behavior is observable *)
        let rec read acc i =
          match input_line stdin with
          | exception End_of_file -> List.rev acc
          | line when String.trim line = "" || (String.trim line).[0] = '#' -> read acc i
          | line ->
              let session = Printf.sprintf "s%d" (i mod max 1 sessions) in
              read ((i, Service.request ~session ?fault (String.trim line)) :: acc) (i + 1)
        in
        let reqs = read [] 0 in
        let replies = Service.run_many t (List.map snd reqs) in
        List.iter2
          (fun (i, req) (r : Service.reply) ->
            match r.Service.outcome with
            | Ok e ->
                Printf.printf "[%d %s] %d rows in %.3fs via %s%s%s\n" i req.Service.session
                  (List.length e.Engine.result.Exec.Executor.rows)
                  r.Service.total_s r.Service.served_by
                  (if r.Service.degraded then " (degraded)" else "")
                  (if r.Service.retries > 0 then
                     Printf.sprintf " (%d retries)" r.Service.retries
                   else "")
            | Error err ->
                Printf.printf "[%d %s] ERROR: %s\n" i req.Service.session
                  (Service.error_to_string err))
          reqs replies;
        let s = Service.stats t in
        Service.shutdown t;
        print_newline ();
        if json then print_endline (Service.Stats.to_json s)
        else print_string (Service.Stats.render s)
    in
    serve ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run SQL statements from stdin (one per line) through the concurrent query \
          service: a domain pool with bounded admission, per-request deadlines, \
          retry with backoff, per-session circuit breaking and crash-only workers.  \
          Prints each reply and the service statistics.")
    Term.(
      const action $ sf_arg $ seed_arg $ level_arg $ exec_mode_arg $ domains_arg
      $ queue_arg $ deadline_arg $ sessions_arg $ max_cost_arg $ fault_arg $ json_arg
      $ cache_arg $ data_dir_arg)

let () =
  let info =
    Cmd.info "subquery_opt"
      ~doc:
        "A query processor reproducing 'Orthogonal Optimization of Subqueries and \
         Aggregation' (Galindo-Legaria & Joshi, SIGMOD 2001)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; explain_cmd; lint_cmd; repl_cmd; check_cmd; fuzz_cmd; serve_cmd;
            snapshot_cmd; recover_cmd; restore_cmd ]))
