#!/bin/sh
# Pre-merge gate: formatting, vet, tftlint static analysis, build,
# race-enabled tests, a short fuzz smoke over every untrusted-input parser,
# one-iteration benchmark smoke runs (crawl, the simnet fast-path pipe and
# the httpwire response parse),
# and a live scrape of the super proxy's Prometheus exposition including
# the resolver-cache hit-rate assertion. Equivalent to `make check` for
# environments without make.
set -eux

unformatted=$(gofmt -l .)
test -z "$unformatted" || { echo "gofmt needed: $unformatted" >&2; exit 1; }
go vet ./...
# perfbench is a nested module (replace => ../), so ./... never reaches it.
GOWORK=off go -C perfbench vet .
# tftlint's machine-readable report is archived next to the BENCH_<n>.json
# trajectory (benchdiff prints its wall time); findings still gate the run.
go run ./cmd/tftlint -json ./... > LINT_10.json || { cat LINT_10.json >&2; exit 1; }
go build ./...
GOWORK=off go -C perfbench build -o /dev/null .
go test -race ./...
go test -run=NONE -fuzz=FuzzUsernameRoundTrip -fuzztime=5s ./internal/proxynet
go test -run=NONE -fuzz='FuzzUnmarshal$' -fuzztime=5s ./internal/cert
go test -run=NONE -fuzz='FuzzUnmarshalChain$' -fuzztime=5s ./internal/cert
go test -run=NONE -fuzz='FuzzReadRequest$' -fuzztime=5s ./internal/httpwire
go test -run=NONE -fuzz='FuzzReadResponse$' -fuzztime=5s ./internal/httpwire
go test -run=NONE -fuzz='FuzzUnmarshal$' -fuzztime=5s ./internal/dnswire
go test -run=NONE -bench=Crawl -benchtime=1x ./...
go test -run=NONE -bench=Pipe -benchtime=1x -benchmem ./internal/simnet
go test -run=NONE -bench=ReadResponse -benchtime=1x -benchmem ./internal/httpwire
# Small-K shard-merge smoke: per-shard sinks and aggregate Merge must
# reproduce the unsharded tables byte-for-byte.
go test -run='TestDNSShardSinksMergeCanonically|TestDNSMergePartialsMatchUnsharded' .
# Chaos smoke: fixed-seed soaks under fault injection — byte-identical
# reruns, faulted probes excluded from violation rates, watchdog silent.
go test -run 'TestChaos' .
go run ./scripts/promsmoke
# Flight-recorder smoke: a short crawl with -progress-jsonl must produce a
# parseable checkpoint stream and a manifest consistent with the run.
go run ./scripts/progresssmoke
# Benchmark trajectory (soft gate): compare the newest two BENCH_<n>.json
# and warn on >15% ns/op or peak-heap regressions. Warn-only — historical
# BENCH files span machines, so deltas carry cross-host noise; run
# scripts/benchjson twice on one host for an enforceable comparison.
go run ./scripts/benchdiff || echo "benchdiff: WARNING: benchmark regression detected (see delta table above)" >&2
