# Ensemble reproduction — common development targets.

GO ?= go
# BENCH_OUT is where bench-gate records the parsed benchmark trajectory;
# override it to keep a run without clobbering the checked-in record.
BENCH_OUT ?= BENCH_PR25.json

.PHONY: all build test race verify examples bench bench-throughput bench-gate benchmark-module multiproc flight fuzz pooldebug clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race also vets: the engine and stacks are single-threaded by design,
# so the race detector plus vet is the cheap way to catch glue that
# violates that assumption.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# The pre-merge gate: vet, the full suite, and the internal packages
# under the race detector — the cluster tests in internal/core and
# internal/netsim run full stacks one-goroutine-per-member, so this is
# what proves the pooled hot path is safe under real concurrency.
verify:
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/...
	$(MAKE) examples
	$(MAKE) benchmark-module
	$(MAKE) bench-gate
	$(MAKE) multiproc

# The in-process examples are programs, not tests: each checks its own
# outcome and panics (or exits non-zero) when it does not hold, so
# running them is the check. Built first, so the timeout bounds the run
# and not the compile; udpchat is interactive and stays out.
EXAMPLES = quickstart totalorder failover partition bypass verify
examples:
	@for e in $(EXAMPLES); do \
		$(GO) build -o .example.bin ./examples/$$e || exit 1; \
		echo "== examples/$$e"; \
		timeout 120 ./.example.bin > .example.out 2>&1 || { s=$$?; cat .example.out; rm -f .example.bin .example.out; echo "examples/$$e: FAILED (exit $$s; 124 = timed out)"; exit 1; }; \
		tail -n 1 .example.out; \
	done; rm -f .example.bin .example.out

# benchmark/ is a module of its own (the repository benchmark builds
# from there), so the root `go vet ./...` and `go test ./...` never
# compile it: an exported-name change in transport, netsim or core would
# break it silently without this step.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The paper-table benchmarks (Tables 1, 2 and Figure 6).
bench:
	$(GO) test -run xxx -bench . -benchtime 2000x .

# The sustained-throughput gate: the 10-layer cast path must report
# 0 allocs/op for IMP, FUNC and MACH (see EXPERIMENTS.md).
bench-throughput:
	$(GO) test -run xxx -bench BenchmarkThroughput -benchtime 5000x .

# The batching + observability + dispatch regression gate. Every harness
# it runs drives the one wire path members use (Batcher -> 0xB9 frames ->
# FrameWalker.WalkLink): the 10-layer two-node throughput benchmarks
# (observed included) must stay at 0 allocs/op, the 8-member network
# runs must coalesce >= 2 sub-packets per frame, the 8-member MACH
# workload's bytes/msg must stay <= 0.487x the same run's computed
# unbatched-classic cost, turning the metrics registry + flight
# recorder on must keep >= 97% of the unobserved 8-member throughput,
# the multi-CCP dispatch family must keep the mixed workload's
# interpreted share <= 0.02 and emit control traffic compressed, the
# XFrameIdentity probe must stay byte-identical between Run and
# RunConcurrent, and the observability plane must measure latency for
# free: the _Obs benchmarks' live histograms at 0 allocs/op, the
# obs-ratio bar with live histograms, and complete causal-span
# reconstruction of the 8-member netsim run (SpanRecon, Gate 8). The
# parsed numbers are recorded in $(BENCH_OUT).
# The unit side runs 100x, not 1x: at one measured round, a GC landing
# mid-measurement (emptied sync.Pool victim cache, one refill) counts a
# stray alloc against the whole op. 100 rounds amortize the blip to 0
# while any real per-round allocation still reports >= 1 allocs/op.
# The mixed side runs 1x: the measurement floors itself at 600 rounds.
# The net pass carries the member-count scaling sweep (_Scale_ points at
# 16/64/256; fixed internal round counts, Gate 6 — every point is
# measured, about 20 s for both 256-member modes on 2 cores) and a hard
# -timeout so a scheduling regression at 256 members fails the gate
# instead of hanging verify.
bench-gate:
	$(GO) test -run xxx -bench 'BenchmarkThroughput_' -benchtime 100x . > .bench_gate_unit.out
	$(GO) test -run xxx -bench 'BenchmarkThroughputNet_' -benchtime 150x -timeout 15m . > .bench_gate_net.out
	$(GO) test -run xxx -bench '^BenchmarkMixedTraffic$$' -benchtime 1x . > .bench_gate_mixed.out
	$(GO) run ./cmd/bench-gate -unit .bench_gate_unit.out -net .bench_gate_net.out -mixed .bench_gate_mixed.out -out $(BENCH_OUT)
	rm -f .bench_gate_unit.out .bench_gate_net.out .bench_gate_mixed.out

# The multi-process equivalence gate: 4 ensemble-node processes on
# loopback run the seeded 10-layer MACH workload over real UDP and must
# deliver the exact per-member sequence of the in-process netsim run of
# the same seed (see DESIGN.md "Deployment"). The second run is the
# adversarial form: 8 processes with 5% seeded receive-side frame loss
# on every node and a forced mid-run generation bump, still required to
# match the loss-free reference byte for byte. Bounded wall time; skips
# itself (exit 0) when loopback UDP is unavailable; flight dumps from
# failed runs stay in .multiproc-artifacts/ for flight-diff.
multiproc:
	$(GO) build -o .ensemble-node.bin ./cmd/ensemble-node
	./.ensemble-node.bin -launch 4 -rounds 16 -size 128 -seed 42 -timeout 60s -artifacts .multiproc-artifacts
	./.ensemble-node.bin -launch 8 -rounds 8 -size 64 -seed 43 -loss 0.05 -lossseed 7 -bump 20 -timeout 90s -artifacts .multiproc-artifacts
	rm -f .ensemble-node.bin

# A short fuzzing smoke pass over the stateful wire-format decoders:
# the cross-frame walker under adversarial frames (seeded and cold
# mirrors) and the encode/decode round trip; and over retention: the
# message log against a map model, and the image decoder under arbitrary
# bytes. The checked-in seed corpora under internal/transport/testdata/fuzz/
# and the f.Add seeds run as regular tests in every `make test`; this
# target additionally mutates for a few seconds per target.
fuzz:
	$(GO) test -run xxx -fuzz FuzzXFrameWalkLink -fuzztime 10s ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzXFrameRoundTrip -fuzztime 10s ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzMsgLog -fuzztime 10s ./internal/layers/
	$(GO) test -run xxx -fuzz FuzzFromImage -fuzztime 10s ./internal/layers/

# A flight recording of the standard 8-member MACH workload (members as
# they ship), exported as Chrome trace_event JSON — open flight.trace.json
# in Perfetto (ui.perfetto.dev) or chrome://tracing; one track per
# member.
flight:
	$(GO) run ./cmd/ensemble-bench -flight flight.trace.json

# The full test suite with pool debugging forced on everywhere.
# -count=1 because internal/event reads ENSEMBLE_POOLDEBUG in its init,
# before the testing package starts logging environment reads: without
# it `go test` serves every package "(cached)" from a non-debug run.
pooldebug:
	ENSEMBLE_POOLDEBUG=1 $(GO) test -count=1 ./...

clean:
	$(GO) clean
	rm -f ensemble.test *.prof *.pprof flight.trace.json .bench_gate_*.out .ensemble-node.bin .example.bin .example.out
	rm -rf .multiproc-artifacts .bench_build
