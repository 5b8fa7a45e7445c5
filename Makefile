# Ensemble reproduction — common development targets.

GO ?= go

.PHONY: all build test race fmt verify examples bench bench-gate benchmark-module multiproc flight fuzz pooldebug loc clean

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

# gofmt over every Go file of the tree (the benchmark module included,
# dot-directories such as .bench_build left out): lists the files that
# are not formatted and fails if there is any.
fmt:
	@out=$$(find . -name '*.go' ! -path './.*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "not gofmt-formatted:"; echo "$$out"; exit 1; fi

# The pre-merge gate: vet, gofmt, the size report, the full suite, and the
# internal packages under the race detector — the cluster tests in
# internal/core and internal/netsim run full stacks
# one-goroutine-per-member, so this is what proves the pooled hot path
# is safe under real concurrency.
verify:
	$(GO) vet ./...
	$(MAKE) fmt
	$(MAKE) loc
	$(GO) test ./...
	$(GO) test -race ./internal/...
	$(MAKE) examples
	$(MAKE) benchmark-module
	$(MAKE) bench-gate
	$(MAKE) multiproc

# The in-process examples are programs, not tests: each checks its own
# outcome and panics (or exits non-zero) when it does not hold, so
# running them is the check. Built first, so the timeout bounds the run
# and not the compile; udpchat is interactive and stays out. The checker
# command runs too, on one predefined stack, one property selection and
# the FIFO trace-inclusion check, and fails on a non-zero exit.
EXAMPLES = quickstart totalorder failover partition bypass verify
CHECK_ARGS = -stack vsync -properties total-order,fragmentation -fifo
examples:
	@for e in $(EXAMPLES); do \
		$(GO) build -o .example.bin ./examples/$$e || exit 1; \
		echo "== examples/$$e"; \
		timeout 120 ./.example.bin > .example.out 2>&1 || { s=$$?; cat .example.out; rm -f .example.bin .example.out; echo "examples/$$e: FAILED (exit $$s; 124 = timed out)"; exit 1; }; \
		tail -n 1 .example.out; \
	done; rm -f .example.bin .example.out
	@$(GO) build -o .example.bin ./cmd/ensemble-check || exit 1; \
	echo "== cmd/ensemble-check $(CHECK_ARGS)"; \
	timeout 120 ./.example.bin $(CHECK_ARGS) > .example.out 2>&1 || { s=$$?; cat .example.out; rm -f .example.bin .example.out; echo "cmd/ensemble-check: FAILED (exit $$s; 124 = timed out)"; exit 1; }; \
	tail -n 1 .example.out; rm -f .example.bin .example.out

# benchmark/ is a module of its own (the repository benchmark builds
# from there), so the root `go vet ./...` and `go test ./...` never
# compile it: an exported-name change in transport, netsim or core would
# break it silently without this step.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The paper-table benchmarks (Tables 1, 2 and Figure 6).
bench:
	$(GO) test -run xxx -bench . -benchtime 2000x .

# The two regression bars whose subject is a timing (every bar on a
# count is a test in internal/bench, run by `make test`): turning the
# metrics registry + flight recorder on must keep >= 97% of the
# unobserved 8-member throughput (obs-ratio, the median of alternating
# back-to-back pairs), and the member-count scaling sweep (_Scale_
# points at 16/64/256) must hold its per-member floors relative to the
# 16-member point. One pass at 1x: the _Obs pair floors its own run
# length and the _Scale_ points run fixed round counts, so more
# iterations would only repeat them. The hard -timeout makes a
# scheduling regression at 256 members fail the gate instead of hanging
# verify.
bench-gate:
	$(GO) test -run xxx -bench 'BenchmarkThroughputNet_(8Members_MACH_Seq_Obs|.*_Scale_)' -benchtime 1x -timeout 15m . > .bench_gate_net.out
	$(GO) run ./cmd/bench-gate -net .bench_gate_net.out
	rm -f .bench_gate_net.out

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
# the sub walker under arbitrary bytes (stable and scratch links, each
# walked twice), the cross-frame walker under adversarial frames (seeded
# and cold mirrors) and the encode/decode round trips, across frames and
# within one (every sub form, the run form included); over retention: the
# message log against a map model, and the image decoder under arbitrary
# bytes; and over admission: a full image checked against the 10-layer
# and vsync stacks' wire contracts, and re-marshaled when admitted; and
# over the compiled receive path: sequences of compressed casts and order
# runs at a non-sequencer, which park and release; and over a plain
# member's receive path: wire images, compressed and full, rebuilt by
# the signature table or decoded as TLV. The
# checked-in seed corpora under internal/transport/testdata/fuzz/ and
# the f.Add seeds run as regular tests in every `make test`; this target
# additionally mutates for a few seconds per target.
fuzz:
	$(GO) test -run xxx -fuzz FuzzFrameWalker -fuzztime 10s ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzXFrameWalkLink -fuzztime 10s ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzXFrameRoundTrip -fuzztime 10s ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzDeltaRoundTrip -fuzztime 10s ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzMsgLog -fuzztime 10s ./internal/layers/
	$(GO) test -run xxx -fuzz FuzzFromImage -fuzztime 10s ./internal/layers/
	$(GO) test -run xxx -fuzz FuzzUnmarshalFor -fuzztime 10s ./internal/layers/
	$(GO) test -run xxx -fuzz FuzzEnginePacket -fuzztime 10s ./internal/opt/
	$(GO) test -run xxx -fuzz FuzzStackEnginePacket -fuzztime 10s ./internal/opt/

# A flight recording of the standard 8-member MACH workload (members as
# they ship), exported as Chrome trace_event JSON — open flight.trace.json
# in Perfetto (ui.perfetto.dev) or chrome://tracing; one track per
# member.
flight:
	$(GO) run ./cmd/ensemble-bench -flight flight.trace.json

# The size of the program: non-test Go lines per top-level directory
# ("." is the root package), each internal/ package on its own, and
# the total. benchmark/ is a module of its own and not counted.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' | sort | xargs wc -l | \
	awk '$$2 != "total" { n = split($$2, p, "/"); d = n == 2 ? "." : p[2]; s[d] += $$1; t += $$1; \
		if (d == "internal" && n > 3) s[d "/" p[3]] += $$1 } \
		END { for (d in s) printf "%7d  %s\n", s[d], d; printf "%7d  total\n", t }' | sort -k2

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
