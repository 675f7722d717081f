# Single entry point for "is this change shippable":
#
#   make verify     tier-1 pytest + the bench regression gate
#   make test       tier-1 pytest only
#   make bench      regenerate BENCH_transient.json (full workloads)
#   make bench-check  gate only: rerun committed workloads, fail on a
#                     >15% speedup regression vs BENCH_transient.json
#   make perf WORKLOAD=envelope_mc SEED=1 TRACE=0
#                   one repository-benchmark run (perfbench/run.py);
#                   TRACE=1 adds the per-layer metrics
#   make perf-pairs BASE=HEAD WORKLOAD=envelope_mc PAIRS=10
#                   alternating runs of BASE (a temporary git worktree)
#                   and the working tree; medians, quartiles, pairs won
#                   and the gain verdict per end-to-end metric;
#                   WORKLOAD=all runs every workload of BENCHMARK.json
#   make same-outputs BASE=HEAD WORKLOAD=all SEEDS=1,2
#                   one pass of each workload's jobs from BASE (a temporary
#                   git worktree) and from the working tree; fails unless
#                   every result's t, x and stats are identical;
#                   RTOL=1e-9 compares t and x to that relative tolerance
#                   instead and lists the stats that differ
#   make loc BASE=HEAD
#                   net lines (added - removed) per file under src/ and
#                   tests/ of the working tree against BASE, from
#                   git diff --numstat (stage new files first so they
#                   count), and the totals for src/ and tests/; then the
#                   line counts of the two engines' modules, the
#                   assembly and the campaign layer's runner.py and
#                   vectorized.py in the working tree, and transient.py
#                   plus batched.py (the one-stepping-core gate is 2.5k)
#   make solver-accuracy SEEDS=1,2,3
#                   backward and forward errors of plain splu and of the
#                   condensed sparse LU, and the Schur complement's
#                   ordering and fill, on the coil_mesh workload's linear
#                   systems per seed, the DC system labelled
#                   (benchmarks/solver_accuracy.py)
#   make importtime WORKLOAD=supply_loss_q
#                   one set-up-only run under python -X importtime: the
#                   set-up time and peak RSS, the 25 largest cumulative
#                   imports, the repro/scipy module counts and the names
#                   of the scipy subpackages loaded; WORKLOAD=all runs
#                   every workload (benchmarks/importtime.py)
#   make lockstep-cost
#                   microseconds per step of run_transient_batched at
#                   S = 1, 8, 32, 128 and 256 on the mc_lockstep netlist
#                   (in-process, interleaved, process time), the fitted
#                   fixed and per-sample-step costs, run_transient's
#                   microseconds per step on that netlist (rank-1) with
#                   trap, be, bdf2 and gear-3, and those of run_transient
#                   on the supply-loss tank (linear, fixed grid) with trap,
#                   be, bdf2 and gear-3; then one adaptive phased tank run
#                   (supply_loss_q's options, Q 47.2): microseconds per
#                   accepted step in its trap carrier and its gear-3
#                   settle phase.  Every row is also printed over a fixed
#                   bare-numpy reference loop timed in the same rounds,
#                   a ratio that holds still as the host's speed drifts
#                   (benchmarks/lockstep_cost.py)
#   make reach      which src/ functions the drivers reach (one pass of
#                   each perfbench workload, every example and bench, and
#                   run_perf.py --check, forked pool workers included);
#                   prints the unreached functions and lines per module
#                   (benchmarks/reach.py)
#
# The bench gate compares hardware-independent *speedups* (seed engine
# and golden runs are timed live on the same machine), so it is
# meaningful on any host.

PYTHON ?= python
PYTHONPATH_PREFIX = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}
WORKLOAD ?= envelope_mc
SEED ?= 1
TRACE ?= 0
BASE ?= HEAD
PAIRS ?= 10
SEEDS ?= 1,2
RTOL ?=

.PHONY: verify test bench bench-check perf perf-pairs same-outputs solver-accuracy importtime lockstep-cost reach loc

verify: test bench-check

test:
	$(PYTHONPATH_PREFIX) $(PYTHON) -m pytest -x -q

bench:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/run_perf.py

bench-check:
	$(PYTHONPATH_PREFIX) $(PYTHON) benchmarks/run_perf.py --check

perf:
	$(PYTHON) perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) --seconds 15 --trace $(TRACE)

perf-pairs:
	$(PYTHON) benchmarks/perf_pairs.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

same-outputs:
	$(PYTHON) benchmarks/same_outputs.py --base $(BASE) --workload $(WORKLOAD) --seeds $(SEEDS) $(if $(RTOL),--rtol $(RTOL))

solver-accuracy:
	$(PYTHON) benchmarks/solver_accuracy.py --seeds $(SEEDS)

importtime:
	$(PYTHON) benchmarks/importtime.py --workload $(WORKLOAD)

lockstep-cost:
	$(PYTHON) benchmarks/lockstep_cost.py

reach:
	$(PYTHON) benchmarks/reach.py

ENGINE_FILES = $(addprefix src/repro/circuits/,transient.py batched.py assembly.py) \
	$(addprefix src/repro/campaigns/,runner.py vectorized.py)

loc:
	@git diff --numstat $(BASE) -- src tests | awk '{ net = $$1 - $$2; split($$3, top, "/"); sum[top[1]] += net; printf "%+6d  %s\n", net, $$3 } END { for (d in sum) printf "%+6d  %s/ total\n", sum[d], d }'
	@wc -l $(ENGINE_FILES) | awk '$$2 != "total" { printf "%6d  %s\n", $$1, $$2 } NR <= 2 { engines += $$1 } END { printf "%6d  transient.py + batched.py\n", engines }'
