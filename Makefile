GO ?= go

.PHONY: build test verify chaos chaos-agent soak bench bench-paper bench-quick bench-overhead lint-telemetry lint-fault fuzz-smoke fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the CI tier: compile everything, static checks, telemetry
# lint, full test suite under the race detector, and the benchmark
# harness's own vet and tests (bench/ is a module of its own, so the
# root ./... patterns do not reach it — this line is what catches an
# internal/ change that breaks the harness), then the fuzz smoke, the
# micro-benchmark compile-and-run smoke and the telemetry overhead
# gate. Nothing here measures performance; `make bench` does.
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

# bench-quick is the micro-benchmark smoke run as part of verify:
# every benchmark in the hot-path packages compiled and run once with
# allocation counts, so a benchmark that no longer builds or panics is
# caught here. It measures nothing — `make bench` does.
bench-quick:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem \
		./internal/giop/ ./internal/cdr/ ./internal/orb/ \
		./internal/dseq/ ./internal/spmd/

# bench-overhead gates the observability plane's hot-path cost: an
# interleaved A/B of the echo workload with exemplars, the flight
# recorder and digest collection off vs on must keep the median
# throughput cost under the 5% instrumentation budget. Nine rounds
# keep the median robust against scheduler noise on a loaded CI host.
bench-overhead:
	$(GO) run ./cmd/pardis-bench -overhead -ops 6000 -overhead-rounds 9 -overhead-gate

fmt:
	gofmt -l -w .
