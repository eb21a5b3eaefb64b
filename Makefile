# Developer targets for the julienne repository. `make check` is the
# CI gate: build + full tests, go vet under every build-tag set,
# race-testing the concurrency-sensitive packages (the facade's shared
# graph and recorder, the parallel substrate and its helper pool,
# bucket structure, algorithms, Ligra layer, obs recorder, leak
# checker, the serving layer) including a short property-test pass, the 32-bit test run, and the julienne_debug
# build with invariant assertions compiled in.

GO ?= go

.PHONY: all build test test32 vet fmt lint race debug chaos fuzz bench bench-smoke bench-check bench-go obs-demo serve-smoke loc check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test32 runs the short suite on a 32-bit layout, where the runtime
# panics on any 64-bit atomic that is not 8-aligned. Every field
# touched atomically is a typed sync/atomic value, which the compiler
# aligns; this run is what shows nothing slipped back to a raw int64.
test32:
	GOARCH=386 $(GO) test -short ./...

vet:
	$(GO) vet ./...

# gofmt -l prints nonconforming files; fail if any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs go vet (copylocks, atomic, nilfunc, lostcancel, ...) under
# each build-tag set, so the other half of every race/julienne_debug
# file pair and the chaos-injection hooks are type-checked too: a pair
# whose halves drift apart fails in the configuration that uses the
# missing or mismatched name; plus gofmt. The framework's contracts are
# carried by types and tests, not an analyzer (DESIGN.md §8).
lint: vet fmt
	$(GO) vet -tags race ./...
	$(GO) vet -tags julienne_debug ./...
	$(GO) vet -tags julienne_chaos ./...

# race includes the root package for api_race_test.go, which hammers
# every Recorder path from concurrent kernels while scraping the ring.
race:
	$(GO) test -race -short . ./internal/parallel/... ./internal/harness/... \
		./internal/bucket/... ./internal/obs/... \
		./internal/algo/... ./internal/ligra/... ./internal/proptest/... \
		./internal/bench/... ./internal/serve/...

# debug builds with the julienne_debug tag, which compiles invariant
# assertions into the bucket structure and Ligra layer and poisons
# every bucket-arena slice the moment its lifetime ends, then runs the
# assertion-sensitive suites under it — including the round driver
# bucket.Loop (fused and unfused) and every round body that consumes
# its bucket's slice (kcore, ∆-stepping, both set covers, densest,
# truss), so a stale read anywhere indexes out of range.
debug:
	$(GO) build -tags julienne_debug ./...
	$(GO) test -tags julienne_debug -short ./internal/bucket/... ./internal/proptest/... \
		./internal/algo/... ./internal/ligra/...

# chaos builds with the julienne_chaos tag, which compiles the
# schedule-driven fault-injection points into the parallel substrate
# and bucket structure, then runs the chaos suite under -race: injected
# worker panics must surface as a single wrapped PanicError on the
# caller, forced cancellations must leave the run re-runnable, and
# every schedule must leave goroutine counts and the scratch pool
# balanced (DESIGN.md §9). The parallel package's own chaos file drives
# the worker-site injection through every entry point of the scheduling
# core and requires that some schedule kills a pool helper mid-region.
# Nightly CI raises JULIENNE_CHAOS_SEEDS.
chaos:
	$(GO) build -tags julienne_chaos ./...
	$(GO) test -tags julienne_chaos -race -short ./internal/chaos/ ./internal/parallel/

# fuzz smoke: a bounded run of every fuzz target (CI nightly runs this;
# `go test -fuzz` accepts one target per package invocation).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzVarint -fuzztime $(FUZZTIME) ./internal/compress/
	$(GO) test -fuzz=FuzzDecode -fuzztime $(FUZZTIME) ./internal/compress/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/compress/
	$(GO) test -fuzz=FuzzReadText -fuzztime $(FUZZTIME) ./internal/graphio/
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime $(FUZZTIME) ./internal/graphio/
	$(GO) test -fuzz=FuzzReadBinary -fuzztime $(FUZZTIME) ./internal/graphio/

# bench regenerates the committed reports (BENCH_bucket.json and
# BENCH_algos.json in the repo root): every workload of the
# internal/bench registry at GOMAXPROCS 1 and NumCPU, by the one timing
# method. EXPERIMENTS.md's tables are `go run ./cmd/bench -print
# <artifact>` over those files. DESIGN.md §7 has the method and schema.
BENCH_OUT ?= .
bench:
	$(GO) run ./cmd/bench -dir $(BENCH_OUT)

# bench-smoke is the CI-sized run: small inputs, reports under
# bench-out/, gated on counters and never on wall time — the fusion
# ablation (fused road-graph rows extract fewer bucket rounds, wbfs at
# least 3x fewer) and the fork budget (wbfs on the road graph at P>1
# forks in only a small fraction of its rounds).
bench-smoke:
	$(GO) run ./cmd/bench -smoke -dir bench-out -check

# bench-check is the nightly gate: a full-budget run into bench-out/,
# held to the same two rules and compared with the committed root
# reports — at P=1 every n, m, rounds, obs counter and answer counter
# exactly, allocs_per_op within tolerance. A PR that changes rounds,
# counters or allocations without regenerating the files fails here.
bench-check:
	$(GO) run ./cmd/bench -dir bench-out -check .

# obs-demo smoke-tests the observability plane end to end: run
# `julienne kcore` with -http on an ephemeral port, scrape /metrics
# until the round-latency histogram is populated, and check /debug/obs.
# Needs curl. DESIGN.md §10 documents the exposed surface.
obs-demo:
	sh scripts/obs-demo.sh

# serve-smoke smoke-tests the analytics service end to end: boot
# cmd/served (built -race) on an ephemeral port, drive it with
# cmd/servedload (queries + async jobs), scrape /metrics for the serve
# counters, SIGTERM, and assert a clean drain. Needs curl. DESIGN.md
# §12 documents the serving architecture.
serve-smoke:
	sh scripts/serve-smoke.sh

# bench-go runs every registry row once under the testing harness
# (quick signal while iterating, and the way to profile one row: add
# -cpuprofile and narrow -bench to Workloads/<key>).
bench-go:
	$(GO) test -run xxx -bench Workloads -benchtime 1x .

# loc prints the size every simplification PR reports: non-test,
# non-fixture Go lines outside the gated benchmark.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' \
		-not -path './benchmark/*' | xargs cat | wc -l

check: build test lint race test32 debug chaos serve-smoke
	@echo "check: ok"
