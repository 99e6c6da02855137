GO ?= go

.PHONY: build test verify chaos chaos-agent soak bench bench-paper bench-quick bench-dataplane bench-tune bench-overhead bench-snapshot benchdiff lint-telemetry lint-fault fuzz-smoke fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the CI tier: compile everything, static checks, telemetry
# lint, full test suite under the race detector, and the benchmark
# harness's own vet and tests (bench/ is a module of its own, so the
# root ./... patterns do not reach it — this line is what catches an
# internal/ change that breaks the harness).
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) lint-telemetry
	$(MAKE) lint-fault
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) fuzz-smoke
	$(MAKE) bench-quick
	$(MAKE) bench-overhead
	$(MAKE) benchdiff

# benchdiff gates allocation regressions: when at least two dated
# BENCH_*.json snapshots exist, the oldest is the baseline and a >10%
# allocs/op regression in the newest fails the build. With a single
# snapshot only its internal seed/this_pr pairs are checked.
benchdiff:
	@set -- BENCH_*.json; \
	if [ ! -e "$$1" ]; then echo 'benchdiff: no BENCH_*.json snapshots, skipping'; exit 0; fi; \
	if [ $$# -ge 2 ]; then \
		old=$$1; while [ $$# -gt 1 ]; do shift; done; \
		$(GO) run ./scripts/benchdiff.go $$old $$1; \
	else \
		$(GO) run ./scripts/benchdiff.go $$1; \
	fi

# lint-telemetry forbids raw printf-style output in internal/ (tests
# excepted): library code must log through telemetry.Logger(), which
# is structured and off by default, never straight to stdout/stderr.
# It also keeps the metrics catalogue in sync: every pardis_* metric
# literal in code must have a DESIGN.md §9 row and vice versa.
lint-telemetry:
	@if grep -rn --include='*.go' -e 'fmt\.Print' -e 'log\.Print' internal/ | grep -v '_test\.go'; then \
		echo 'lint-telemetry: internal/ must log via telemetry.Logger(), not fmt/log printing'; \
		exit 1; \
	fi
	@echo 'lint-telemetry: ok'
	@$(GO) run ./scripts/metricscat.go DESIGN.md internal cmd

# lint-fault enforces the chaos naming convention: every test that
# drives the fault-injection transport (directly or through a fixture)
# must be named TestFault*, so `make chaos`/`make soak` cover it.
lint-fault:
	@$(GO) run ./scripts/faultlint.go internal cmd

# fuzz-smoke runs every Fuzz* target in the wire-facing packages for a
# short burst each (10s by default) — enough to catch a freshly
# introduced decoder panic in CI without a dedicated fuzz farm.
FUZZTIME ?= 10s
fuzz-smoke:
	@for pkg in ./internal/cdr ./internal/giop ./internal/idl ./internal/ior; do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# chaos runs only the fault-injection suites (TestFault*): retry,
# failover, deadlines, breakers, graceful drain, and SPMD
# partial-failure verdicts, all driven through transport.Faulty under
# the race detector. Add -short for the abbreviated plans.
chaos:
	$(GO) test -run Fault -race ./...

# chaos-agent loops only the agent-loss suites (agent killed mid-burst,
# asymmetric blackhole, partition-then-heal, breaker flap) — the
# control-plane replication proofs — SOAK_COUNT times under the race
# detector. Cheaper than a full soak when iterating on the agent.
chaos-agent:
	$(GO) test -run 'Fault(Agent|Peer)' -race -count $(SOAK_COUNT) \
		-timeout 30m ./internal/agent/

# soak loops the chaos suites SOAK_COUNT times under the race detector
# — timing-sensitive failure modes (heartbeat expiry racing a kill,
# agent restart mid-burst, lease reclamation) rarely show on a single
# pass. Packages limited to those with TestFault* suites to keep the
# loop hot.
SOAK_COUNT ?= 10
soak: chaos-agent
	$(GO) test -run Fault -race -count $(SOAK_COUNT) -timeout 30m \
		./internal/agent/ ./internal/naming/ ./internal/orb/ \
		./internal/spmd/ ./internal/transport/

# bench runs the one benchmark harness (BENCHMARK.json + bench/): all
# four workloads over loopback TCP, one result line each. See
# bench/README.md for single workloads, traced runs and -compare.
bench:
	$(GO) run -C bench .

# bench-paper runs the root testing.B benches, one per paper
# table/figure plus ablations, once each.
bench-paper:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-quick is the hot-path smoke ration run as part of verify: one
# short pass over the framing, sequence-codec and invoke benchmarks
# with allocation counts, enough to spot a pooling or vectorization
# regression without the cost of a full benchmark run.
bench-quick:
	$(GO) test -run '^$$' -benchtime 100x -benchmem \
		-bench 'WriteMessage|FrameReader|AcquireEncoder' ./internal/giop/
	$(GO) test -run '^$$' -benchtime 100x -benchmem \
		-bench 'PutDoubleSeq|PutLongSeq|SeqInto' ./internal/cdr/
	$(GO) test -run '^$$' -benchtime 100x -benchmem \
		-bench 'InvokeEcho|InvokeConcurrent8' ./internal/orb/
	$(MAKE) bench-dataplane BENCHTIME=10x
	$(MAKE) bench-tune BENCHTIME=10x

# bench-dataplane measures the SPMD data plane: dsequence
# redistribution (allocation ledger), the one-sided window-put micro at
# the ORB layer, and the multi-port in-transfer grid (wall clock and
# bandwidth), all with allocation counts.
BENCHTIME ?= 100x
bench-dataplane:
	$(GO) test -run '^$$' -benchtime $(BENCHTIME) -benchmem \
		-bench 'Redistribute' ./internal/dseq/
	$(GO) test -run '^$$' -benchtime $(BENCHTIME) -benchmem \
		-bench 'WindowPut' ./internal/orb/
	$(GO) test -run '^$$' -benchtime $(BENCHTIME) -benchmem \
		-bench 'MultiPortInTransfer' ./internal/spmd/

# bench-tune A/Bs the self-tuning transport against the static knobs:
# the tuned in-transfer microbenchmark (allocation ledger for the
# tuner's hot path), then the in-transfer sweep run static-then-tuned
# over the same server object with a cross-config warm-up that
# converges the tuner before the measured reps — once on the direct
# in-process transport (tuned must hold parity) and once over an
# emulated 200us WAN path, where the larger tuned chunks amortize the
# per-write cost and tuned stripes overlap it across connections.
bench-tune:
	$(GO) test -run '^$$' -benchtime $(BENCHTIME) -benchmem \
		-bench 'MultiPortInTransfer/len=128Ki/threads=4' ./internal/spmd/
	$(GO) run ./cmd/pardis-bench -dataplane -tune -reps 3 -doubles 131072
	$(GO) run ./cmd/pardis-bench -dataplane -tune -wan 200us -reps 3 -doubles 1048576

# bench-overhead gates the observability plane's hot-path cost: an
# interleaved A/B of the echo workload with exemplars, the flight
# recorder and digest collection off vs on must keep the median
# throughput cost under the 5% instrumentation budget. Nine rounds
# keep the median robust against scheduler noise on a loaded CI host.
bench-overhead:
	$(GO) run ./cmd/pardis-bench -overhead -ops 6000 -overhead-rounds 9 -overhead-gate

# bench-snapshot archives a dated live-stack benchmark summary
# (ops/s and p50/p95/p99 invoke latency from the telemetry registry)
# so perf regressions are visible across commits.
bench-snapshot:
	$(GO) run ./cmd/pardis-bench -live -json > BENCH_$$(date +%Y%m%d).json
	@cat BENCH_$$(date +%Y%m%d).json

fmt:
	gofmt -l -w .
