.PHONY: check build test cover bench benchdiff bench-all bench-pair chaos experiments

# The tier-1 gate (see ROADMAP.md): build + vet + tests under -race.
check:
	./check.sh

build:
	go build ./...

test:
	go test ./...

# Per-package statement coverage, one line per package.
cover:
	go test -cover ./... | grep -v '\[no test files\]'

# Engine, ledger, trace-codec, trace-generator, metrics-registry and
# served-query benchmarks, parsed into BENCH_core.json (cmd/benchjson) so every PR
# leaves a perf trajectory. Sequential and Parallel variants of each
# operator land side by side, as do the ledger's append cost (one
# fsync per record, the price of durable ε-accounting) and
# dpserver's BenchmarkServed* rows (six kinds × four sizes, through the
# HTTP handler at the server's default width); run with e.g.
# `make bench BENCHFLAGS='-cpu 1,4'` to add scaling points. -p 1: one
# package at a time, so no benchmark is timed against another package's
# load (on a 2-CPU host two ran at once and core's rows went missing).
# -run '^$': the tests are check's job, not five times over here.
BENCHPKGS := ./internal/core/... ./internal/sketch/... ./internal/ledger/... ./internal/trace/... ./internal/tracegen/... ./internal/obs ./internal/dpserver
bench:
	go test -p 1 -run '^$$' -bench=. -benchmem -count=5 $(BENCHFLAGS) $(BENCHPKGS) | go run ./cmd/benchjson > BENCH_core.json
	@echo "wrote BENCH_core.json"

# Re-run the benchmarks and diff against the checked-in baseline:
# per-benchmark ns/op and bytes/op deltas on stderr, nonzero exit when
# anything regressed beyond the threshold (tune with
# `make benchdiff BENCHDIFF_THRESHOLD=0.10`). The fresh document lands
# in BENCH_new.json for inspection; promote it with
# `mv BENCH_new.json BENCH_core.json` when the delta is intentional.
BENCHDIFF_THRESHOLD ?= 0.20
benchdiff:
	go test -p 1 -run '^$$' -bench=. -benchmem -count=5 $(BENCHFLAGS) $(BENCHPKGS) | go run ./cmd/benchjson -prev BENCH_core.json -threshold $(BENCHDIFF_THRESHOLD) > BENCH_new.json

# Paired runs of the repository benchmark (BENCHMARK.json) against an
# earlier revision — the routine every perf claim rests on: build
# ./bench at BASE (in a throwaway git worktree) and at the working
# tree, once, and for each workload in WORKLOAD run the two alternately
# N times with the driver's flags (the side that goes first alternates
# too) and print per-metric medians, quartiles and pairs won — one table
# per workload. A gain counts when the head wins at least nine pairs in
# ten and the medians differ by more than the distance between the
# base's quartiles; a row whose base quartiles are further apart than
# the metric's bound reads "unresolved". ~75 s per pair and workload.
#   make bench-pair BASE=HEAD~1 [WORKLOAD="scan-large spend-small mixed-live"] [N=10] [SEED=1]
WORKLOAD ?= spend-small
N ?= 10
SEED ?= 1
PAIR := .bench_build/pair
bench-pair:
	@test -n "$(BASE)" || { echo 'usage: make bench-pair BASE=<rev> [WORKLOAD="spend-small ..."] [N=10] [SEED=1]'; exit 64; }
	rm -rf $(PAIR) && git worktree prune && mkdir -p $(PAIR)
	git worktree add --detach $(PAIR)/base $(BASE)
	cd $(PAIR)/base && go build -o ../base.bin ./bench
	go build -o $(PAIR)/head.bin ./bench
	@for w in $(WORKLOAD); do \
		i=1; while [ $$i -le $(N) ]; do \
			order="base head"; [ $$((i % 2)) -eq 0 ] && order="head base"; \
			for side in $$order; do \
				dir=.; [ $$side = base ] && dir=$(PAIR)/base; \
				echo "$$w pair $$i/$(N): $$side"; \
				(cd $$dir && $(CURDIR)/$(PAIR)/$$side.bin -workload $$w -seed $(SEED) -seconds 30 -trace 0 | tail -n 1) >> $(PAIR)/$$side.$$w.jsonl || exit 1; \
			done; i=$$((i + 1)); \
		done; \
	done
	git worktree remove --force $(PAIR)/base
	@for w in $(WORKLOAD); do \
		echo "== $$w"; \
		go run ./cmd/benchjson -pairs $(PAIR)/base.$$w.jsonl $(PAIR)/head.$$w.jsonl || exit 1; \
	done

# Every table and figure of the paper's evaluation, in the paper's
# order, each followed by its wall time ("[fig1 completed in 812ms]").
# Pass cmd/experiments flags through EXPERIMENTS_FLAGS, e.g.
#   make experiments EXPERIMENTS_FLAGS='-run fig3 -seed 7'
experiments:
	go run ./cmd/experiments $(EXPERIMENTS_FLAGS)

# The original whole-repo benchmark sweep.
bench-all:
	go test -bench=. -benchmem ./...

# Randomized fault soak (see DESIGN.md §S30): seeded rounds of a
# concurrent query storm over a probabilistically failing filesystem,
# asserting the closed failure surface and the ε invariants — plus
# the kill-the-primary failover storm (DESIGN.md §S35): replicated
# pairs killed mid-storm and promoted, asserting zero budget drift,
# byte-identical idempotent replays, and clean ledger diffs. check.sh
# smoke-runs short slices of both; run `make chaos` before touching
# the ledger, the executor, replication, or the server lifecycle.
chaos:
	go test -race -run 'TestChaosStorm|TestFailoverStorm' -count=1 ./internal/dpserver -chaosdur 30s -failoverdur 30s -v
