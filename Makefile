GO ?= go

.PHONY: build test verify chaos chaos-agent soak bench bench-paper bench-quick bench-overhead lint-telemetry lint-fault lint-reach fuzz-smoke fmt loc traffic-cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the CI tier: compile everything, static checks, telemetry
# lint, full test suite under the race detector, the framing packages'
# tests again under the pardis_poison build tag (every released pooled
# encoder is overwritten with a signalling-NaN pattern, so a read after
# release fails the test that makes it), and the
# benchmark harness's own vet and tests (bench/ is a module of its own,
# so the root ./... patterns do not reach it — this line is what catches
# an internal/ change that breaks the harness), then the fuzz smoke, the
# micro-benchmark compile-and-run smoke and the telemetry overhead
# gate. Nothing here measures performance; `make bench` does.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) lint-telemetry
	$(MAKE) lint-fault
	$(MAKE) lint-reach
	$(GO) test -race ./...
	$(GO) test -tags pardis_poison ./internal/giop/ ./internal/orb/ ./internal/spmd/
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

# lint-reach keeps the internal API to what the program uses: an
# exported identifier under internal/ stays only if non-test code
# outside bench/ names it, and a package only if such code imports it,
# unless the allow-list in the script names it with a class and a
# reason. Its harness class keeps what only bench/ still uses from
# gaining a caller (the routed blocks, the versioned header decoder,
# internal/tune).
lint-reach:
	@$(GO) run ./scripts/reach.go

# fuzz-smoke runs every Fuzz* target in every package that has one for
# a short burst each (10s by default) — enough to catch a freshly
# introduced decoder panic in CI without a dedicated fuzz farm. Packages
# are found by their ^func Fuzz declarations, so a new target needs no
# edit here.
FUZZTIME ?= 10s
fuzz-smoke:
	@for pkg in $$(grep -l '^func Fuzz' $$(find . -name '*_test.go' -not -path './bench/*') | xargs -n1 dirname | sort -u); do \
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
		./internal/dseq/ ./internal/spmd/ ./internal/mp/

# bench-overhead gates the observability plane's hot-path cost: an
# interleaved A/B of the echo workload with exemplars, the flight
# recorder and digest collection off vs on must keep the median
# throughput cost under the 5% instrumentation budget. Nine rounds
# keep the median robust against scheduler noise on a loaded CI host.
bench-overhead:
	$(GO) run ./cmd/pardis-bench -overhead -ops 6000 -overhead-rounds 9 -overhead-gate

# traffic-cover maps the code the benchmark workloads and the examples
# run: bench/ and the five self-checking examples are built with
# coverage counters for every package under internal/, run once each
# (bench 3 s per workload, the examples with integration_test.go's
# arguments), and the counters merged; it prints coverage per package
# under internal/ and the functions there that never ran. The packages
# are named by directory: the module path has no dot, so an import-path
# pattern (pardis/...) matches nothing, and -coverpkg=all instruments
# the runtime too, whose counters each binary then fails to write. A
# binary whose main package is not instrumented writes none, hence
# bench's ".". Everything it writes lives in a temporary directory that
# it removes. Not part of verify.
traffic-cover:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	exs="quickstart proportions visualization coupled diffusion"; \
	$(GO) build -C bench -cover -coverpkg=.,../internal/... -o "$$d/bin/bench" .; \
	for ex in $$exs; do $(GO) build -cover -coverpkg=./examples/$$ex,./internal/... -o "$$d/bin/$$ex" ./examples/$$ex; done; \
	mkdir -p "$$d/cov/bench"; \
	(cd bench && GOCOVERDIR="$$d/cov/bench" "$$d/bin/bench" -seconds 3 -out "$$d/out" > "$$d/bench.log"); \
	for ex in $$exs; do \
		args=; if [ $$ex = diffusion ]; then args="-len 4096 -reps 2"; fi; \
		mkdir -p "$$d/cov/$$ex"; GOCOVERDIR="$$d/cov/$$ex" "$$d/bin/$$ex" $$args > /dev/null; \
	done; \
	mkdir -p "$$d/merged"; \
	$(GO) tool covdata merge -i=$$(ls -d "$$d"/cov/* | paste -sd, -) -o="$$d/merged"; \
	echo "traffic-cover: statements run, per package under internal/"; \
	$(GO) tool covdata percent -i="$$d/merged" -pkg=pardis/internal/... | sort; \
	$(GO) tool covdata textfmt -i="$$d/merged" -o="$$d/all.txt"; \
	awk 'NR == 1 || /^pardis\/internal\//' "$$d/all.txt" > "$$d/internal.txt"; \
	echo "traffic-cover: functions under internal/ that never ran"; \
	$(GO) tool cover -func="$$d/internal.txt" | awk '$$NF == "0.0%" { print $$1, $$2 }'

fmt:
	gofmt -l -w .

# loc prints the size of the non-test Go under cmd/, scripts/ and
# internal/ (bench/ is a module of its own and not counted): raw lines,
# and lines that are neither blank nor comment-only; then the API
# surface, the count of exported top-level funcs and methods in the
# non-test Go under internal/. Both are reported before and after a
# change.
loc:
	@find cmd scripts internal -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | \
		awk '{ raw++ } !/^[ \t]*$$/ && !/^[ \t]*\/\// { code++ } \
		END { printf "non-test Go under cmd/ scripts/ internal/: %d lines, %d without blank or comment-only lines\n", raw, code }'
	@find internal -name '*.go' -not -name '*_test.go' -print0 | xargs -0 cat | \
		awk '/^func (\([^)]*\) )?[A-Z]/ { n++ } \
		END { printf "exported funcs and methods under internal/: %d\n", n }'
