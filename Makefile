# Developer entry points. `make check` is the full pre-merge gate; the
# individual targets mirror its stages.

GO ?= go

.PHONY: check vet lint build test race bench benchjson benchdiff fuzz progress-smoke chaos

check: vet lint build race bench fuzz chaos progress-smoke benchdiff

# perfbench is a nested module (replace => ../), so ./... never reaches it;
# vet and build it on its own so a change that breaks the benchmark fails.
vet:
	$(GO) vet ./...
	GOWORK=off $(GO) -C perfbench vet .

# Repo-specific static analysis, all ten analyzers: determinism (simclock,
# seededrand, maporder), span hygiene (spanend), pool discipline (poolpair),
# context placement (ctxfirst), the event-core contracts (nogo, noblock,
# lockorder), and hot-path allocations (hotalloc). Exits non-zero on any
# unwaived finding, malformed waiver, or unused waiver; the JSON report
# (findings, package count, wall time) is archived as LINT_10.json next to
# the BENCH_<n>.json trajectory.
lint:
	$(GO) run ./cmd/tftlint -json ./... > LINT_10.json || { cat LINT_10.json; exit 1; }

build:
	$(GO) build ./...
	GOWORK=off $(GO) -C perfbench build -o /dev/null .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every crawl benchmark plus the simnet pipe and httpwire
# response-parse micro-benches: a smoke test that the default-scale worlds
# still build and crawl and the fast paths still run, not a performance
# measurement.
bench:
	$(GO) test -run=NONE -bench=Crawl -benchtime=1x ./...
	$(GO) test -run=NONE -bench=Pipe -benchtime=1x -benchmem ./internal/simnet
	$(GO) test -run=NONE -bench=ReadResponse -benchtime=1x -benchmem ./internal/httpwire

# Short fuzz smoke over every parser that faces untrusted bytes: proxy
# usernames (zone/session encoding), certificates and certificate chains,
# HTTP requests and responses, and DNS messages. Five seconds each — a
# corpus regression check, not a campaign.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzUsernameRoundTrip -fuzztime=5s ./internal/proxynet
	$(GO) test -run=NONE -fuzz='FuzzUnmarshal$$' -fuzztime=5s ./internal/cert
	$(GO) test -run=NONE -fuzz='FuzzUnmarshalChain$$' -fuzztime=5s ./internal/cert
	$(GO) test -run=NONE -fuzz='FuzzReadRequest$$' -fuzztime=5s ./internal/httpwire
	$(GO) test -run=NONE -fuzz='FuzzReadResponse$$' -fuzztime=5s ./internal/httpwire
	$(GO) test -run=NONE -fuzz='FuzzUnmarshal$$' -fuzztime=5s ./internal/dnswire

# Chaos soak: the fault plane, breaker, and churner under the race detector,
# plus the fixed-seed end-to-end soaks (byte-identical runs, error budget
# excluded from violation rates, watchdog silent).
chaos:
	$(GO) test -race -run 'TestFault|TestInject|TestHealth|TestBackoff|TestChurner|TestSession' ./internal/simnet ./internal/proxynet
	$(GO) test -run 'TestChaos' .

# Machine-readable benchmark baseline: runs the full-pipeline, table, pipe,
# and full-scale (Scale=1.0 DNS, minutes of runtime) benchmarks with
# -benchmem and writes BENCH_8.json for the perf trajectory.
benchjson:
	$(GO) run ./scripts/benchjson -out BENCH_8.json

# Compare the newest two BENCH_<n>.json files and warn on >15% ns/op or
# peak-heap regressions. Soft gate: historical BENCH files span machines,
# so cross-host noise is expected; run `make benchjson` twice on one host
# for an enforceable comparison.
benchdiff:
	$(GO) run ./scripts/benchdiff || echo "benchdiff: WARNING: benchmark regression detected (see delta table above)" >&2

# Flight-recorder smoke: a short DNS crawl with -progress and
# -progress-jsonl must stream parseable checkpoints and finish with a
# manifest whose node count matches the run's own headline.
progress-smoke:
	$(GO) run ./scripts/progresssmoke
