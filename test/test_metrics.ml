(* Observability layer tests: 3VL AND/OR/NOT semantics (truth tables and
   type errors), budget row-accounting in aggregation/set operators, the
   per-operator metrics tree, the optimizer search trace, and golden
   EXPLAIN ANALYZE output over bench workloads. *)

open Relalg
open Relalg.Algebra
module E = Exec.Executor

let db = lazy (Support.toy_db ())

let eval e =
  let ctx = E.make_ctx (Lazy.force db) in
  E.eval ctx E.empty_lookup e

let b v = Const (Value.Bool v)
let u = Const Value.Null
let i n = Const (Value.Int n)

let check_v msg expected e =
  Alcotest.(check string) msg (Value.to_string expected) (Value.to_string (eval e))

let check_type_error msg e =
  match eval e with
  | exception E.Runtime_error _ -> ()
  | v -> Alcotest.failf "%s: expected Runtime_error, got %s" msg (Value.to_string v)

(* --- Kleene three-valued logic ---------------------------------------- *)

let test_and_truth_table () =
  let t = Value.Bool true and f = Value.Bool false and n = Value.Null in
  (* the full 3x3 table *)
  check_v "T and T" t (And (b true, b true));
  check_v "T and F" f (And (b true, b false));
  check_v "T and U" n (And (b true, u));
  check_v "F and T" f (And (b false, b true));
  check_v "F and F" f (And (b false, b false));
  check_v "F and U" f (And (b false, u));
  check_v "U and T" n (And (u, b true));
  check_v "U and F" f (And (u, b false));
  check_v "U and U" n (And (u, u))

let test_or_truth_table () =
  let t = Value.Bool true and f = Value.Bool false and n = Value.Null in
  check_v "T or T" t (Or (b true, b true));
  check_v "T or F" t (Or (b true, b false));
  check_v "T or U" t (Or (b true, u));
  check_v "F or T" t (Or (b false, b true));
  check_v "F or F" f (Or (b false, b false));
  check_v "F or U" n (Or (b false, u));
  check_v "U or T" t (Or (u, b true));
  check_v "U or F" n (Or (u, b false));
  check_v "U or U" n (Or (u, u))

let test_not_truth_table () =
  check_v "not T" (Value.Bool false) (Not (b true));
  check_v "not F" (Value.Bool true) (Not (b false));
  check_v "not U" Value.Null (Not u)

let test_connective_type_errors () =
  (* non-boolean non-null operands are runtime type errors, matching
     [Not] — previously AND/OR silently coerced them to TRUE *)
  check_type_error "int and int" (And (i 1, i 2));
  check_type_error "true and int" (And (b true, i 1));
  check_type_error "null and int" (And (u, i 1));
  check_type_error "int or int" (Or (i 1, i 2));
  check_type_error "false or int" (Or (b false, i 1));
  check_type_error "null or int" (Or (u, i 1));
  check_type_error "not int" (Not (i 1));
  (* a decided left operand still short-circuits without evaluating
     (or type-checking) the right *)
  check_v "F and <bad>" (Value.Bool false) (And (b false, i 1));
  check_v "T or <bad>" (Value.Bool true) (Or (b true, i 1))

(* --- budget row accounting --------------------------------------------- *)

let budget_trips sql ~max_rows =
  let eng = Engine.create (Lazy.force db) in
  let budget = Exec.Budget.make ~max_rows () in
  match Engine.query ~budget eng sql with
  | exception Exec.Budget.Exceeded (Exec.Budget.Rows, p) ->
      Alcotest.(check bool)
        "progress counted past the cap" true
        (p.Exec.Budget.rows_processed > max_rows)
  | _ -> Alcotest.failf "max_rows=%d did not trip on %s" max_rows sql

let test_budget_counts_groupby () =
  (* scan 4 + select 4 = 8 stays under the cap; the GroupBy input rows
     push past it.  Before the fix only TableScan/Join/Apply advanced the
     counter, so this query ran to completion. *)
  let sql = "select dept, sum(salary) from emp where salary > 0 group by dept" in
  let eng = Engine.create (Lazy.force db) in
  Alcotest.(check int) "query works unbudgeted" 3 (List.length (Engine.query eng sql).rows);
  budget_trips sql ~max_rows:9

let test_budget_counts_scalar_agg () =
  budget_trips "select sum(salary) from emp" ~max_rows:5

let test_budget_counts_union_all () =
  (* two scans of bag account 3 + 3; the UnionAll inputs trip the cap *)
  budget_trips "select x from bag union all select x from bag" ~max_rows:8

(* --- per-operator metrics tree ----------------------------------------- *)

let rec tree_nodes (n : Exec.Metrics.node) : Exec.Metrics.node list =
  n :: List.concat_map tree_nodes n.children

let find_node label nodes =
  match
    List.find_opt
      (fun (n : Exec.Metrics.node) -> Support.contains (Lazy.force n.label) label)
      nodes
  with
  | Some n -> n
  | None ->
      Alcotest.failf "no metrics node labeled %s among [%s]" label
        (String.concat "; "
           (List.map (fun (n : Exec.Metrics.node) -> Lazy.force n.label) nodes))

let test_metrics_tree_counters () =
  let eng = Engine.create (Lazy.force db) in
  let p = Engine.prepare eng "select name from emp where salary > 150" in
  let e = Engine.execute ~collect_metrics:true eng p in
  let root =
    match e.Engine.metrics with
    | Some r -> r
    | None -> Alcotest.fail "collect_metrics:true returned no tree"
  in
  let nodes = tree_nodes root in
  let scan = find_node "Scan(emp)" nodes in
  Alcotest.(check int) "scan invocations" 1 scan.invocations;
  Alcotest.(check int) "scan rows out" 4 scan.rows_out;
  let sel = find_node "Select" nodes in
  Alcotest.(check int) "select rows in" 4 sel.rows_in;
  Alcotest.(check int) "select rows out" 3 sel.rows_out;
  Alcotest.(check int) "root rows out" 3 root.rows_out;
  (* execution without collect_metrics returns no tree *)
  let e2 = Engine.execute eng p in
  Alcotest.(check bool) "disabled by default" true (e2.Engine.metrics = None)

let test_metrics_hash_build_and_render () =
  let eng = Engine.create (Lazy.force db) in
  let p = Engine.prepare eng "select dept, sum(salary) from emp group by dept" in
  let e = Engine.execute ~collect_metrics:true eng p in
  let root = Option.get e.Engine.metrics in
  let gb = find_node "GroupBy" (tree_nodes root) in
  Alcotest.(check int) "groups built" 3 gb.hash_build_rows;
  Alcotest.(check int) "groupby rows in" 4 gb.rows_in;
  let text = Exec.Metrics.render ~times:false root in
  Alcotest.(check bool) "render shows counters" true
    (Support.contains text "(inv=1 in=4 out=3 hash-build=3)");
  Alcotest.(check bool) "render omits times" true (not (Support.contains text "time="));
  let json = Exec.Metrics.to_json root in
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " in json") true (Support.contains json field))
    [ "\"op\""; "\"invocations\""; "\"rows_in\""; "\"rows_out\""; "\"children\"" ]

let test_metrics_apply_fast_path () =
  let eng = Engine.create (Lazy.force db) in
  (* correlated execution: Apply probes dept's primary-key index once
     per emp row; the inner tree itself is never evaluated *)
  let p =
    Engine.prepare ~config:Optimizer.Config.correlated_only eng
      "select name from emp where exists (select did from dept where did = dept)"
  in
  let e = Engine.execute ~collect_metrics:true eng p in
  let nodes = tree_nodes (Option.get e.Engine.metrics) in
  let apply = find_node "Apply" nodes in
  Alcotest.(check int) "one probe per outer row" 4 apply.fast_path_hits;
  let inner_scan = find_node "Scan(dept)" nodes in
  Alcotest.(check int) "inner tree bypassed" 0 inner_scan.invocations;
  Alcotest.(check bool) "bypassed operators rendered as such" true
    (Support.contains (Exec.Metrics.render ~times:false apply) "[not executed]")

(* --- optimizer search trace -------------------------------------------- *)

let test_search_trace () =
  let eng = Engine.create (Lazy.force db) in
  let sql = "select dept, sum(salary) from emp, dept where dept = did group by dept" in
  let p = Engine.prepare ~record_trace:true eng sql in
  let tr =
    match p.Engine.trace with
    | Some tr -> tr
    | None -> Alcotest.fail "record_trace:true returned no trace"
  in
  Alcotest.(check bool) "rounds recorded" true (List.length tr.Optimizer.Search.rounds > 0);
  let fired_sum =
    List.fold_left
      (fun acc (r : Optimizer.Search.round_trace) ->
        List.fold_left (fun a (s : Optimizer.Search.rule_stat) -> a + s.fired) acc r.stats)
      0 tr.Optimizer.Search.rounds
  in
  Alcotest.(check int) "per-round stats sum to total" tr.Optimizer.Search.total_fired
    fired_sum;
  List.iter
    (fun (r : Optimizer.Search.round_trace) ->
      List.iter
        (fun (s : Optimizer.Search.rule_stat) ->
          Alcotest.(check int)
            ("kept+dups+invalid=fired for " ^ s.rule)
            s.fired
            (s.kept + s.dups + s.invalid))
        r.stats)
    tr.Optimizer.Search.rounds;
  Alcotest.(check bool) "text rendering" true
    (Support.contains (Optimizer.Search.trace_to_string tr) "search trace:");
  Alcotest.(check bool) "json rendering" true
    (Support.contains (Optimizer.Search.trace_to_json tr) "\"total_fired\"");
  (* tracing is not free-running: off by default, and absent entirely
     when the configuration disables the search *)
  Alcotest.(check bool) "off by default" true ((Engine.prepare eng sql).Engine.trace = None);
  let p0 =
    Engine.prepare ~config:Optimizer.Config.correlated_only ~record_trace:true eng sql
  in
  Alcotest.(check bool) "no search, no trace" true (p0.Engine.trace = None)

(* rule names reach the JSON trace as strings and must be escaped *)
let test_search_trace_json_escapes () =
  let open Optimizer.Search in
  let tr =
    { rounds =
        [ { round = 1;
            stats = [ { rule = "say \"hi\""; fired = 1; kept = 1; dups = 0; invalid = 0 } ];
            survivors = 1;
            best_cost_after = 1.
          }
        ];
      total_fired = 1;
      total_duplicates = 0;
      total_invalid = 0;
      quarantined = [];
      exhausted = false
    }
  in
  Alcotest.(check bool) "quote escaped" true
    (Support.contains (trace_to_json tr) "\"rule\":\"say \\\"hi\\\"\"")

(* --- EXPLAIN ANALYZE golden output ------------------------------------- *)

(* The analyzed-plan section (everything up to the optimizer trace,
   which later PRs will legitimately change as rules are added) for two
   bench workloads at SF 0.01, seed 42.  Row counts, operator shapes,
   fast-path hits and hash-build sizes are all deterministic;
   [times:false] omits the wall-clock figures. *)

let tpch = lazy (Datagen.Tpch_gen.database ~seed:42 ~sf:0.01 ())

(* Column ids come from a process-global counter, so their absolute
   values depend on which tests ran earlier in the binary; renumber
   [#id]s by first occurrence (as [Relalg.Fingerprint] does for plans)
   to make the rendering position-independent. *)
let renumber (s : string) : string =
  let buf = Buffer.create (String.length s) in
  let map = Hashtbl.create 16 in
  let next = ref 0 in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '#' then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      let id = String.sub s (!i + 1) (!j - !i - 1) in
      let canon =
        match Hashtbl.find_opt map id with
        | Some c -> c
        | None ->
            incr next;
            let c = string_of_int !next in
            Hashtbl.replace map id c;
            c
      in
      Buffer.add_char buf '#';
      Buffer.add_string buf (if id = "" then "" else canon);
      i := !j
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let analyzed_section (s : string) : string =
  let marker = "\n== optimizer trace ==" in
  let n = String.length s and m = String.length marker in
  let rec find i =
    if i + m > n then n else if String.sub s i m = marker then i else find (i + 1)
  in
  String.sub s 0 (find 0)

let golden_exists =
  "== subquery class ==\n\
   class 1 (fully flattened)\n\
   == chosen plan, analyzed (cost 837, seed 2109, 2 alternatives) ==\n\
   Project[s_name#1:=s_name#2]  (inv=1 in=10 out=10)\n\
  \  Apply(semi)  (inv=1 in=10 out=10 fast-path=10)\n\
  \    Scan(supplier)  (inv=1 in=0 out=10)\n\
  \    Select[((ps_suppkey#3 = s_suppkey#4) AND (ps_availqty#5 > 9000))]  [not executed]\n\
  \      Scan(partsupp)  [not executed]\n\n\
   10 rows, 30 rows processed, 10 apply invocations\n"

let golden_q1 =
  "== subquery class ==\n\
   class 1 (fully flattened)\n\
   == chosen plan, analyzed (cost 4555, seed 7510, 50 alternatives) ==\n\
   Project[c_custkey#1:=c_custkey#2]  (inv=1 in=99 out=99)\n\
  \  Select[(500000 < sum#3)]  (inv=1 in=150 out=99)\n\
  \    GroupBy[c_custkey#2][sum#3:=sum(o_totalprice#4)]  (inv=1 in=1500 out=150 hash-build=150)\n\
  \      Apply(inner)  (inv=1 in=150 out=1500 fast-path=150)\n\
  \        Scan(customer)  (inv=1 in=0 out=150)\n\
  \        Select[(o_custkey#5 = c_custkey#2)]  [not executed]\n\
  \          Scan(orders)  [not executed]\n\n\
   99 rows, 2049 rows processed, 150 apply invocations\n"

let test_explain_analyze_golden () =
  let eng = Engine.create (Lazy.force tpch) in
  let check_workload name sql golden =
    let out = Engine.explain_analyze ~times:false eng sql in
    Alcotest.(check string) (name ^ " analyzed plan") golden (renumber (analyzed_section out));
    Alcotest.(check bool) (name ^ " includes trace") true
      (Support.contains out "== optimizer trace ==\nsearch trace:")
  in
  check_workload "exists" Workloads.exists_workload golden_exists;
  check_workload "q1" Workloads.q1_subquery golden_q1

let test_explain_analyze_times_stable () =
  (* two runs differ only in wall-clock figures; with [times:false] the
     output is bit-identical *)
  let eng = Engine.create (Lazy.force tpch) in
  let once () = renumber (Engine.explain_analyze ~times:false eng Workloads.exists_workload) in
  Alcotest.(check string) "deterministic" (once ()) (once ())

let suite =
  [ Alcotest.test_case "AND truth table" `Quick test_and_truth_table;
    Alcotest.test_case "OR truth table" `Quick test_or_truth_table;
    Alcotest.test_case "NOT truth table" `Quick test_not_truth_table;
    Alcotest.test_case "connective type errors" `Quick test_connective_type_errors;
    Alcotest.test_case "budget counts GroupBy input" `Quick test_budget_counts_groupby;
    Alcotest.test_case "budget counts ScalarAgg input" `Quick test_budget_counts_scalar_agg;
    Alcotest.test_case "budget counts UnionAll input" `Quick test_budget_counts_union_all;
    Alcotest.test_case "metrics tree counters" `Quick test_metrics_tree_counters;
    Alcotest.test_case "metrics hash-build + render" `Quick test_metrics_hash_build_and_render;
    Alcotest.test_case "metrics Apply fast path" `Quick test_metrics_apply_fast_path;
    Alcotest.test_case "optimizer search trace" `Quick test_search_trace;
    Alcotest.test_case "search trace json escapes rule names" `Quick
      test_search_trace_json_escapes;
    Alcotest.test_case "explain analyze golden" `Quick test_explain_analyze_golden;
    Alcotest.test_case "explain analyze stable sans times" `Quick test_explain_analyze_times_stable
  ]
