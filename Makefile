# Convenience targets; `make verify` is the tier-1 gate.

.PHONY: all verify test faults fuzz fuzz-smoke fuzz-cache-smoke fuzz-cache vexec-smoke bench bench-smoke bench-properties bench-concurrent bench-durability bench-cache cache-hammer recover-smoke perf-smoke soak-smoke soak prove-rules lint-smoke plan-census plan-census-check loc clean

all:
	dune build

verify:
	dune build && dune runtest && $(MAKE) prove-rules && $(MAKE) lint-smoke && $(MAKE) fuzz-smoke && $(MAKE) fuzz-cache-smoke && $(MAKE) vexec-smoke && $(MAKE) bench-smoke && $(MAKE) bench-properties && $(MAKE) bench-cache && $(MAKE) cache-hammer && $(MAKE) recover-smoke && $(MAKE) perf-smoke && $(MAKE) plan-census-check

# bounded rule-soundness prover: every registered rewrite rule checked
# for bag equivalence over all databases with <= 2 rows per table
# (including NULLs); fails on any counterexample, untested rule, or a
# rule whose templates are all vacuous; writes the coverage table
# (templates / firings / databases / vacuity per rule) as an artifact
prove-rules:
	dune exec test/prove_main.exe -- 2 --coverage-out PROVER_COVERAGE.txt

# static plan analysis over the built-in TPC-H workloads; fails on any
# ERROR-severity finding
lint-smoke:
	dune exec bin/subquery_opt_cli.exe -- lint --sf 0.01

test:
	dune runtest

# lines of OCaml (.ml and .mli) in lib/ and bench/: the figure CHANGES
# and ROADMAP quote for the code's size
loc:
	@find lib bench \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l

# plan census: one line per Qgen statement (seeds 1-5 x 200 cases, SF
# 0.01, plan cache off) with the chosen plan's cost, explored count and
# plan-text MD5, then the MD5 of all lines; a planner speed-up must
# leave the final digest unchanged (see test/plan_census_main.ml).  To
# compare with a census saved from another build:
#   dune exec test/plan_census_main.exe -- --against OTHER_CENSUS.txt
# reports how many chosen costs rose, fell or stayed, lists every riser
# and the statements whose search reached max_alternatives on each
# side, and exits 1 if any cost rose
plan-census:
	dune exec test/plan_census_main.exe

# the census as a standing gate: compares this build's census with
# test/plan_census_baseline.txt (the census of the whole-plan search
# the memo replaced) and fails if any chosen cost rose; ~5 s on 2 cores
plan-census-check:
	dune exec test/plan_census_main.exe -- --against test/plan_census_baseline.txt

# fault-injection sweep across several seeds (see test/faults_main.ml)
faults:
	dune build @faults

# differential fuzzing: random correlated-subquery SQL, full optimizer
# vs. the correlated oracle (see test/fuzz_main.ml and lib/testgen/)
# 200 cases over 5 fixed seeds; replay one with
#   dune exec bin/subquery_opt_cli.exe -- fuzz --seed N --case M -v
fuzz-smoke:
	dune exec test/fuzz_main.exe -- 40 1 2 3 4 5

# the larger sweep behind the @fuzz alias (2000 cases, 10 seeds)
fuzz:
	dune build @fuzz

# caching-tier contract fuzz: every generated query runs cold and then
# warm with perturbed literals on a cache-enabled engine, each run
# bag-compared to a fresh uncached optimization of the same SQL
fuzz-cache-smoke:
	dune exec test/fuzz_main.exe -- --cache 40 1 2 3 4 5

# the full caching-tier sweep: 2000 cases over 5 seeds
fuzz-cache:
	dune exec test/fuzz_main.exe -- --cache 400 1 2 3 4 5

# row-vs-vector differential check: every workload x config executed in
# both modes and bag-compared, plus a vector-mode fuzz sweep
vexec-smoke:
	dune exec test/vexec_main.exe -- 40 1 2 3 4 5

bench:
	dune exec bench/main.exe

# The bench-* ledger modes below write _bench/<mode>.jsonl (one row
# schema, documented at the top of bench/main.ml) and exit 2 after
# reporting every failed gate.  The committed BENCH_N.json files are
# earlier ledgers, kept as history.

# tiny-scale sweep of every workload x config in both exec modes;
# gates on equal row/vector bags, bridge_crossings = 0 and per-cell
# vector speedup >= 0.95x row
bench-smoke:
	dune exec bench/main.exe -- --smoke

# property-rewrite operator census: every workload compiled with the
# symbolic property engine's rewrites off and on, operator counts and
# costs recorded, bags cross-checked; gates on at least one workload
# losing a GroupBy / Max1row / outer join
bench-properties:
	dune exec bench/main.exe -- --properties

# concurrent service scaling at 1/2/4/8 worker domains over the
# Apply-free workloads, every reply checked against the row oracle
# (the >= 2x scaling assertion fires only on hosts with >= 4 cores)
bench-concurrent:
	dune exec bench/main.exe -- --concurrent

# durability micro-bench: WAL journaling/append throughput, snapshot
# write, snapshot recovery and cold WAL replay at SF 0.01 and 0.1;
# every recovery is row-count gated
bench-durability:
	dune exec bench/main.exe -- --durability

# caching tier bench: warm plan-phase speedup (gated >= 5x geomean)
# and the query_many batch CSE win on the q17 family (gated >= 1.2x
# median with >= 1 materialization)
bench-cache:
	dune exec bench/main.exe -- --cache

# 4-domain cache-coherence hammer: mutators race cached plan hits and
# CSE batch reads; monotone-envelope checks during the race, exact
# bag comparison against a fresh engine after quiescing
cache-hammer:
	dune build @cache-hammer

# crash-recovery chaos sweep: the scripted writer is killed at every
# I/O operation under short-write / torn-write / bit-flip / fsync-lie
# faults; after each crash the store is reopened and all 8 benchmark
# workloads are bag-compared against the row oracle applied to exactly
# the committed mutation prefix (see test/recover_main.ml)
recover-smoke:
	dune build @recover

# end-to-end benchmark smoke: every perfbench workload for 5 s (seed 1,
# untraced); fails unless each run's final JSON line reports
# "correct": true and "failed": 0
perf-smoke:
	@for w in adhoc-cold report-warm serve-ingest; do \
	  out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 5 --trace 0 | tail -n 1); \
	  echo "$$w: $$out"; \
	  case "$$out" in \
	    *'"correct": true,'*'"failed": 0,'*) ;; \
	    *) echo "perf-smoke: $$w is not correct with 0 failed" >&2; exit 1 ;; \
	  esac; \
	done

# chaos soak of the concurrent query service: 2000 requests, 4 worker
# domains, injected faults, tight deadlines, forced overload and
# worker-killing chaos hooks; every success differentially checked
# against the single-threaded row oracle (see test/soak_main.ml)
soak-smoke:
	dune exec test/soak_main.exe -- 2000 4 1

# the longer sweep: 10000 requests across 8 domains
soak:
	dune exec test/soak_main.exe -- 10000 8 1

clean:
	dune clean
	rm -rf _bench
