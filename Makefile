# Convenience targets; everything is plain dune underneath.
#
# JOBS controls the sweep executor: `make bench-json JOBS=8` runs every
# experiment's cells on 8 worker domains (0 = all cores). Tables are
# byte-identical at any JOBS — PERF2 machine-checks that claim.

JOBS ?= 1

# Seed for the runtime-chaos smoke; every fault decision derives from it
# through per-edge splitmix64 streams, so reruns are byte-identical.
UBPA_SEED ?= 7

.PHONY: all build test bench bench-fast bench-csv bench-json bench-check \
	bench-only bench-baseline bench-gate scale check check-full chaos \
	runtime runtime-chaos fmt fmt-check linkcheck examples clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe -- --jobs $(JOBS)

bench-fast:
	dune exec bench/main.exe -- --fast --jobs $(JOBS)

bench-csv:
	dune exec bench/main.exe -- --csv results/ --jobs $(JOBS)

# Machine-readable artifacts: one BENCH_<exp>.json per experiment, each
# carrying the table, timing, seeds, and pass/fail paper claims.
bench-json:
	dune exec bench/main.exe -- --json results/json/ --jobs $(JOBS)

# What CI runs: fast sweeps + the self-checking claim gate.
bench-check:
	dune exec bench/main.exe -- --fast --json results/json-fast/ --jobs $(JOBS)
	dune exec bin/bench_diff.exe -- --check-claims results/json-fast/

# Selected experiments only, with the claim gate:
# `make bench-only EXP=SCALE,RT3`.
bench-only:
	dune exec bench/main.exe -- --only $(EXP) --json results/json-only/ \
		--jobs $(JOBS)
	dune exec bin/bench_diff.exe -- --check-claims results/json-only/

# The arena core at scale: the full SCALE sweep — single-sender RB to
# n=10,000 and consensus to n=301 (55M deliveries) under the arena
# core, with the reference core rerunning the overlap sizes for the
# cross-core identity claim, the flat-allocation and shared-inbox
# claims and the RB state-per-pair claim gated. About 37 s serial on a
# 2-vCPU Xeon VM, peaking at 1.8 GB RSS: the consensus n=301 cell's
# candidate-echo buffer sets the peak, and the RB n=10,000 cell needs
# about 75 MB.
scale:
	dune exec bench/main.exe -- --only SCALE --json results/json-scale/ \
		--jobs $(JOBS)
	dune exec bin/bench_diff.exe -- --check-claims results/json-scale/

# Regenerate the committed refactor-gate baseline. PERF2 is included on
# purpose: its digests are independent of machine, --jobs, and pool
# backend, so the baseline pins executor determinism.
# SCALE and CX2 are re-run in full mode: their committed baselines carry
# the rows that are the scaling evidence — SCALE's n=10,000 delivery
# sweep, CX2's n=3,001 per-node √n·polylog(n) budget fits (CI's
# fast-mode exact diff skips cell comparison when the fast flags differ;
# the claims still gate), while timing/alloc cells everywhere are exempt
# from the exact diff by column name (Diff.exact_exempt_columns).
bench-baseline:
	dune exec bench/main.exe -- --fast --json bench/baseline/
	dune exec bench/main.exe -- --only SCALE --json bench/baseline/
	dune exec bench/main.exe -- --only CX2 --json bench/baseline/

# The refactor gate CI runs: fast sweeps diffed claim for claim and cell
# for cell against the committed baseline (wall-clock metadata exempt).
# `dune runtest` runs the timing-free part of it (bench/dune).
# The baseline was produced serially, so running the gate with JOBS > 1
# doubles as the parallel-vs-serial byte-identity check.
bench-gate:
	dune exec bench/main.exe -- --fast --json results/json-fast/ --jobs $(JOBS)
	dune exec bin/bench_diff.exe -- --exact bench/baseline results/json-fast/

# Exhaustive small-model safety checking (MC1): the six calibrated cells
# through `ubpa check`'s engine, then the claim gate over the verdicts.
# CI runs this on both compiler legs; `make bench-gate` additionally
# diffs the artifact byte-for-byte against bench/baseline/BENCH_MC1.json.
check:
	dune exec bench/main.exe -- --only MC1 --fast --json results/json-mc/ \
		--jobs $(JOBS)
	dune exec bin/bench_diff.exe -- --check-claims results/json-mc/

# Deeper, slower sweeps straight through the CLI — not part of any gate.
# On a 2-vCPU Xeon VM, serial: rb n=5 takes 0.2 s and consensus n=4 1.7 s;
# rb n=4 at 6 rounds takes 6.2 s at a 559 MB peak RSS (5 rounds: 1.9 s,
# 185 MB). `make check-full JOBS=0` uses every core for the frontier
# expansion.
check-full:
	dune exec bin/ubpa_cli.exe -- check --protocol rb -n 5 -f 1 \
		--max-rounds 3 --jobs $(JOBS) --expect verified
	dune exec bin/ubpa_cli.exe -- check --protocol consensus -n 4 -f 1 \
		--max-rounds 8 --jobs $(JOBS) --expect verified
	dune exec bin/ubpa_cli.exe -- check --protocol rb -n 4 -f 1 \
		--max-rounds 6 --jobs $(JOBS) --expect verified

# Fixed-seed chaos smoke sweep: randomized benign-fault schedules under
# the online safety monitors, per protocol and fault budget. Within the
# proven envelope every monitor must stay green; the over-budget end
# degrades with a first-violation report. See EXPERIMENTS.md (R1).
chaos:
	dune exec bin/ubpa_cli.exe -- chaos

# Networked-runtime smoke: per-node concurrent processes on both
# transports, each run gated by the lockstep-simulator oracle (the exit
# code is the verdict). See EXPERIMENTS.md (RT1) for the bench version.
# Then sizes past OCaml's 128-domain cap (n=130 in-process) and past
# select's FD_SETSIZE (the n=40 socket mesh), and consensus at n=40 on
# both transports, where a round's inbox holds hundreds of messages.
runtime:
	dune exec bin/ubpa_cli.exe -- run --runtime domains --protocol consensus -n 5
	dune exec bin/ubpa_cli.exe -- run --runtime socket --protocol consensus -n 5
	dune exec bin/ubpa_cli.exe -- run --runtime domains --protocol rb -n 5 \
		--max-rounds 6
	dune exec bin/ubpa_cli.exe -- run --runtime socket --protocol rb -n 5 \
		--max-rounds 6
	dune exec bin/ubpa_cli.exe -- run --runtime domains --protocol rb -n 130 \
		--max-rounds 3
	dune exec bin/ubpa_cli.exe -- run --runtime socket --protocol rb -n 40 \
		--max-rounds 3
	dune exec bin/ubpa_cli.exe -- run --runtime socket --protocol consensus -n 40
	dune exec bin/ubpa_cli.exe -- run --runtime domains --protocol consensus -n 40

# Fault-injected runtime smoke: seeded wire faults + process crashes on
# both transports, gated on graceful degradation (delivered-schedule
# oracle, monitors, agreement and decision of the nodes outside the
# plan), plus one deliberately beyond-budget cell (two of four nodes
# isolated, more than f = 1) that must produce its violation. Exit codes
# are the verdict. `make runtime-chaos UBPA_SEED=9` re-rolls every fault
# stream. The crash:0@3 cells crash the lowest id, which every survivor
# waits on first. See EXPERIMENTS.md (RT2) for the committed-baseline
# version.
runtime-chaos:
	dune exec bin/ubpa_cli.exe -- run --runtime domains --protocol consensus \
		-n 5 --seed $(UBPA_SEED) --round-ms 60 --faults "crash:1@3,loss=0.05"
	dune exec bin/ubpa_cli.exe -- run --runtime socket --protocol consensus \
		-n 5 --seed $(UBPA_SEED) --round-ms 60 --faults "crash:1@3,loss=0.05"
	dune exec bin/ubpa_cli.exe -- run --runtime domains --protocol consensus \
		-n 5 --seed $(UBPA_SEED) --round-ms 60 --faults "crash:0@3,loss=0.05"
	dune exec bin/ubpa_cli.exe -- run --runtime socket --protocol consensus \
		-n 5 --seed $(UBPA_SEED) --round-ms 60 --faults "crash:0@3,loss=0.05"
	dune exec bin/ubpa_cli.exe -- run --runtime domains --protocol rb -n 5 \
		--seed $(UBPA_SEED) --max-rounds 6 --round-ms 60 --faults "crash:2@2"
	dune exec bin/ubpa_cli.exe -- run --runtime socket --protocol rb -n 5 \
		--seed $(UBPA_SEED) --max-rounds 6 --round-ms 60 \
		--faults "delay:1@1..4=0.5x1,dup=0.05"
	dune exec bin/ubpa_cli.exe -- run --runtime domains --protocol consensus \
		-n 4 --seed 1 --max-rounds 12 \
		--faults "recv-omit:1@1..12=1.0,recv-omit:2@1..12=1.0" \
		--expect violation

fmt:
	dune build @fmt --auto-promote

fmt-check:
	dune build @fmt

# Dead-link gate over the repo's markdown (top level + docs/); CI runs it.
linkcheck:
	dune exec bin/md_linkcheck.exe

examples:
	dune exec examples/quickstart.exe
	dune exec examples/sensor_fusion.exe
	dune exec examples/event_ordering.exe
	dune exec examples/membership_rename.exe
	dune exec examples/kv_replica.exe
	dune exec examples/clock_sync.exe

clean:
	dune clean
