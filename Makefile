# Developer targets for the julienne repository. `make check` is the
# CI gate: build + full tests, static checks, race-testing the
# concurrency-sensitive packages (the parallel substrate and its helper
# pool, bucket structure, algorithms, Ligra layer, obs recorder, leak
# checker, the serving layer) including a short property-test pass, and
# the julienne_debug build with invariant assertions compiled in.

GO ?= go

.PHONY: all build test vet fmt lint race debug chaos fuzz bench bench-smoke bench-go obs-demo serve-smoke loc check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt -l prints nonconforming files; fail if any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs the stock toolchain passes (go vet: copylocks, atomic,
# nilfunc, lostcancel, ...) plus julvet, the in-repo multichecker that
# enforces the framework's concurrency contracts (DESIGN.md §8):
# atomicmix, atomicalign, tagdrift, norandtime — four per-package
# analyzers, no interprocedural layer. Contracts the APIs carry
# themselves (typed obs handles, parallel.WithScratch, serve's refusals
# table and its one query wrapper over admission.with, debug-poisoned
# bucket arenas) need no analyzer. The tagged invocations re-analyze
# the tree with the other half of each race/julienne_debug file pair
# (and the chaos-injection hooks) active.
lint: vet
	$(GO) run ./cmd/julvet ./...
	$(GO) run ./cmd/julvet -tags race ./...
	$(GO) run ./cmd/julvet -tags julienne_debug ./...
	$(GO) run ./cmd/julvet -tags julienne_chaos ./...

race:
	$(GO) test -race -short ./internal/parallel/... ./internal/harness/... \
		./internal/bucket/... ./internal/obs/... \
		./internal/algo/... ./internal/ligra/... ./internal/proptest/... \
		./internal/bench/... ./internal/serve/...

# debug builds with the julienne_debug tag, which compiles invariant
# assertions into the bucket structure and Ligra layer and poisons
# every bucket-arena slice the moment its lifetime ends, then runs the
# assertion-sensitive suites under it — including every algorithm that
# consumes NextBucket's slice (kcore, the ∆-stepping wave driver under
# fused and unfused, set cover, densest, truss), so a stale read anywhere
# indexes out of range.
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

# bench regenerates the committed performance baseline
# (BENCH_bucket.json / BENCH_algos.json in the repo root), including
# the before/after comparison against the pinned pre-arena numbers.
# bench-smoke is the CI-sized variant: small inputs, no comparison,
# output under bench-out/. See DESIGN.md §7 for the report schema.
BENCH_OUT ?= .
bench:
	$(GO) run ./cmd/bench -out $(BENCH_OUT)

# bench-smoke also gates the fusion ablation: the fused grid-family
# entries must extract fewer bucket rounds than their unfused
# counterparts (obs counter, not wall time), wbfs at least 3x fewer.
# And the fork budget: wbfs on the grid family at P>1 — thousands of
# tiny frontiers — may fork in only a small fraction of its rounds
# (parallel.forked against rounds, counters again, never wall time).
bench-smoke:
	$(GO) run ./cmd/bench -smoke -assert-fusion -assert-forks -out bench-out

# obs-demo smoke-tests the observability plane end to end: run kcore
# with -http on an ephemeral port, scrape /metrics until the
# round-latency histogram is populated, and check /debug/obs. Needs
# curl. DESIGN.md §10 documents the exposed surface.
obs-demo:
	sh scripts/obs-demo.sh

# serve-smoke smoke-tests the analytics service end to end: boot
# cmd/served (built -race) on an ephemeral port, drive it with
# cmd/servedload (queries + async jobs), scrape /metrics for the serve
# counters, SIGTERM, and assert a clean drain. Needs curl. DESIGN.md
# §12 documents the serving architecture.
serve-smoke:
	sh scripts/serve-smoke.sh

# bench-go runs the raw go-test benchmarks once each (quick signal
# while iterating; use `make bench` for the reproducible reports).
bench-go:
	$(GO) test -run xxx -bench . -benchtime 1x .

# loc prints the size every simplification PR reports: non-test,
# non-fixture Go lines outside the gated benchmark.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' \
		-not -path './benchmark/*' | xargs cat | wc -l

check: build test lint fmt race debug chaos serve-smoke
	@echo "check: ok"
