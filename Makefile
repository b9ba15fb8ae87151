# Developer entry points for the Sailor reproduction.
#
#   make test                       tier-1 test suite
#   make lint                       project-invariant static analysis
#                                   (repro.analysis; rules + suppression
#                                   contract in CONTRACTS.md).  Exit 0 on
#                                   a clean tree, 1 on findings, 2 on
#                                   usage errors / rule crashes.
#   make bench                      planner/core micro-benchmarks + churn
#                                   replay benches -> $(BENCH_OUT)
#                                   (BENCH_SCALE=full by default, which
#                                   includes the 1024/2048/4096/8192-GPU
#                                   scale points; BENCH_SCALE=smoke skips
#                                   them), then runs the compare_bench.py
#                                   regression gate against
#                                   $(BENCH_BASELINE) and -- only on a
#                                   clean gate -- appends a one-line run
#                                   summary (git rev + BENCH_SCALE +
#                                   per-bench medians) to $(BENCH_HISTORY)
#   make bench-compare              diff $(BENCH_BASELINE) vs $(BENCH_OUT) on
#                                   median-of-rounds; fails on >20%
#                                   planner/simulator regression
#   make ci                         invariant lint (plus --help smokes of
#                                   the bench tooling), then tier-1 tests
#                                   + fast bench smoke subset
#                                   + the compare_bench.py regression gate,
#                                   with per-phase wall time printed.  The
#                                   smoke subset's budget bench asserts the
#                                   straggler certificates fire (nonzero
#                                   SearchStats.suffix_certified); the
#                                   128-GPU budget and 256-GPU points --
#                                   run once in the tier-1 phase -- assert
#                                   the candidate-ordering tail kills fire
#                                   (nonzero candidates_killed_unevaluated,
#                                   so a disarmed ordering path fails CI);
#                                   the 256-GPU min-cost point asserts the
#                                   dominated-family interval memo skips
#                                   whole families (nonzero
#                                   families_skipped), and tier-1 carries
#                                   the forced fused-combine on/off
#                                   equivalence smoke
#                                   (test_fused_combine_preserves_plans_
#                                   when_forced), so a disarmed family
#                                   gate or a drifting fused kernel fails
#                                   CI; and the
#                                   deadline/crash smokes assert the anytime
#                                   salvage path works (a 256-GPU plan at a
#                                   50 ms deadline returns a feasible plan
#                                   with a finite certified gap; a crash-
#                                   injected parallel plan loses zero
#                                   branches), so a silently-disarmed
#                                   certificate or salvage path fails CI
#                                   rather than just running slow.  The
#                                   churn-replay smoke asserts revisited
#                                   pools are answered from the search
#                                   context's plan memo (nonzero
#                                   ChurnReport.plan_memo_hits), so a
#                                   silently disarmed memo fails CI.
#   make profile                    cProfile one planner call (PROFILE_ARGS=...;
#                                   add --stats to dump the SearchStats
#                                   counters as JSON next to the profile,
#                                   --phases to split the wall time into
#                                   forward-build / backward-scoring /
#                                   suffix-solve / evaluation /
#                                   candidate-enumeration buckets)

PYTHON ?= python
BENCH_OUT ?= BENCH_new.json
BENCH_BASELINE ?= BENCH_seed.json
BENCH_CI_OUT ?= BENCH_ci.json
BENCH_HISTORY ?= BENCH_history.jsonl
# Scale toggle consumed by benchmarks/test_bench_core_micro.py: the
# 1024/2048/4096/8192-GPU planner points only run under BENCH_SCALE=full.
# `make bench` (the recorded set) defaults to full; `make ci`'s smoke
# subset to smoke.
BENCH_SCALE ?= full
# Bench smoke subset for `make ci`: every micro-bench plus the 32/64-GPU
# and budget-constrained planner points, plus the short churn-replay smoke
# (which asserts zero dropped events and >=1 incremental cache hit, so a
# silently-cold search context fails CI).  The 128/256/512 scale points
# still run *once* as correctness tests inside the tier-1 phase (ROADMAP
# defines tier-1 as the whole tree); the filter only skips their slower
# timed re-measurement and the 1000-event churn point (run `make bench`
# for the full recorded set).  The 1024/2048/4096/8192 points are
# additionally BENCH_SCALE-gated (skipped under smoke even without the
# filter).
CI_BENCH_FILTER ?= not 128 and not 256 and not 512 and not 1024 \
	and not 2048 and not 4096 and not 8192 and not 1000
PROFILE_ARGS ?=

.PHONY: test lint bench bench-compare ci profile

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis

# The history line is appended only after the compare gate passes (each
# recipe line is its own gate under `set -e` semantics: a failing compare
# stops make before the append), and it is stamped with BENCH_SCALE so
# full-scale points are never read against smoke runs.
bench:
	BENCH_SCALE=$(BENCH_SCALE) PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_bench_core_micro.py \
		benchmarks/test_bench_deadline.py \
		benchmarks/test_bench_reconfiguration.py \
		--benchmark-only -q --benchmark-json=$(BENCH_OUT)
	PYTHONPATH=src $(PYTHON) benchmarks/compare_bench.py \
		$(BENCH_BASELINE) $(BENCH_OUT)
	PYTHONPATH=src $(PYTHON) benchmarks/bench_history.py $(BENCH_OUT) \
		--history $(BENCH_HISTORY) --scale $(BENCH_SCALE)

bench-compare:
	PYTHONPATH=src $(PYTHON) benchmarks/compare_bench.py \
		$(BENCH_BASELINE) $(BENCH_OUT)

ci:
	@set -e; \
	tl=$$(date +%s); \
	PYTHONPATH=src $(PYTHON) -m repro.analysis; \
	PYTHONPATH=src $(PYTHON) benchmarks/compare_bench.py --help > /dev/null; \
	PYTHONPATH=src $(PYTHON) benchmarks/profile_planner.py --help > /dev/null; \
	t0=$$(date +%s); echo "[ci] lint + tooling smokes: $$((t0 - tl))s"; \
	PYTHONPATH=src $(PYTHON) -m pytest -x -q; \
	t1=$$(date +%s); echo "[ci] tier-1 tests: $$((t1 - t0))s"; \
	BENCH_SCALE=smoke PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_bench_core_micro.py \
		benchmarks/test_bench_deadline.py \
		benchmarks/test_bench_reconfiguration.py \
		--benchmark-only -q -k "$(CI_BENCH_FILTER)" \
		--benchmark-json=$(BENCH_CI_OUT); \
	t2=$$(date +%s); echo "[ci] bench smoke: $$((t2 - t1))s"; \
	PYTHONPATH=src $(PYTHON) benchmarks/compare_bench.py \
		$(BENCH_BASELINE) $(BENCH_CI_OUT); \
	t3=$$(date +%s); echo "[ci] bench compare: $$((t3 - t2))s"; \
	echo "[ci] total: $$((t3 - tl))s"

profile:
	PYTHONPATH=src $(PYTHON) benchmarks/profile_planner.py $(PROFILE_ARGS)
