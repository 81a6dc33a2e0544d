GO ?= go

.PHONY: build test race vet bench bench-smoke bench-e2e bench-e2e-trace bench-e2e-test check cover fuzz-smoke golden-update serve-smoke loc

# Packages whose coverage is gated in CI: the wire/transport layer, the
# measurement cores, the stage runner, the snapshot codecs, the metrics
# registry, the degradation layer, and the simulated world + traffic
# models, where an untested branch is a silently wrong result.
COVER_PKGS = ./internal/dnsnet/... ./internal/core/... ./internal/pipeline/... ./internal/snapshot/... ./internal/metrics/... ./internal/health/... ./internal/serve/... ./internal/world/... ./internal/traffic/... ./internal/statefs/... ./internal/statefsck/... ./internal/par/...
COVER_FLOOR = 70
# The metrics registry, the health layer, the snapshot codecs, the
# stage runner, the serving layer, the world/traffic substrate, the
# state-durability layer (statefs fault injection, statefsck repair)
# and the worker pool every campaign stage runs on (par)
# back the determinism guarantees of every exported ledger, every
# breaker/failover decision, every shard/delta checkpoint, every answer
# handed to a client and every downstream measurement, so they carry a
# higher floor.
COVER_FLOOR_METRICS = 80

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet is static analysis plus formatting: it fails when gofmt would
# rewrite any file.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# race runs the whole suite under the race detector; the campaign tests run
# at ScaleTiny, so this covers the parallel probing engine end to end. The
# chaos determinism pair runs several small-scale campaigns each, which
# puts internal/experiments past go test's default 10m binary timeout
# under the race detector — hence the explicit bound.
race:
	$(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -bench . -benchmem ./...

# bench-smoke runs every benchmark exactly once: cheap enough for CI, and
# it keeps the benchmarks (and the alloc-regression gates that live next
# to them) compiling and passing as the code moves. In-package ladder
# rungs (randx BenchmarkReseed, cacheprobe BenchmarkProbePassDelta) run
# here too; -benchmem reports their bytes and allocations per op.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

# bench-e2e runs the repository's one benchmark (cmd/bench, its own
# module; BENCHMARK.json is its contract): four workloads, each produce →
# resume → export → serve from the real clientmapd, every output checked.
# bench-e2e-trace adds the per-layer ladder and spans. bench-e2e-test vets
# it and runs its own tests, which the root module's build and tests never
# touch: it is what notices a change to internal/serve or internal/dnsnet
# that stops the benchmark compiling or passing.
bench-e2e:
	$(GO) run -C cmd/bench .

bench-e2e-trace:
	$(GO) run -C cmd/bench . -trace 1

bench-e2e-test:
	cd cmd/bench && $(GO) vet ./... && $(GO) test ./...

# cover enforces a per-package statement-coverage floor on the gated
# packages. Per-package (not aggregate) so a well-tested neighbour can't
# mask an untested one.
cover:
	@$(GO) test -count=1 -coverprofile=coverage.out -covermode=atomic $(COVER_PKGS) | \
	awk -v floor=$(COVER_FLOOR) -v mfloor=$(COVER_FLOOR_METRICS) ' \
		{ print } \
		/coverage:/ { \
			f = floor; if ($$2 ~ /internal\/(metrics|health|snapshot|pipeline|serve|world|traffic|statefs|statefsck|par)/) f = mfloor; \
			pct = $$5; sub(/%.*/, "", pct); \
			if (pct + 0 < f) { bad = 1; print "FAIL: " $$2 " below " f "% floor" } \
		} \
		END { exit bad }'

# fuzz-smoke replays the seeded corpora and runs each fuzz target briefly —
# enough to catch a framing or parser regression without a long campaign.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshal -fuzztime=10s ./internal/dnswire
	$(GO) test -run='^$$' -fuzz=FuzzReadTCP -fuzztime=10s ./internal/dnswire
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/faults
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/health
	$(GO) test -run='^$$' -fuzz=FuzzChurnParse -fuzztime=10s ./internal/churn
	$(GO) test -run='^$$' -fuzz=FuzzReverseName -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzASName$$' -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzParseIPv4$$' -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzHTTPQuery -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzServeWire -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/statefs
	$(GO) test -run='^$$' -fuzz='^FuzzParseRetry$$' -fuzztime=10s ./internal/core/cacheprobe
	$(GO) test -run='^$$' -fuzz=FuzzLazySource -fuzztime=10s ./internal/randx

# golden-update regenerates the golden regression corpus (the headline
# statistics of a fixed small-scale campaign, the degraded-mode stats of
# the same campaign under the chaos matrix, the streaming corpus —
# rolling-view headline stats plus the coverage-lag table of a fixed
# 24-sim-hour churn scenario — and the pinned stage fingerprints). Run
# after an intentional behaviour change and review the diff: every moved
# number is a semantic change to the reproduction, and every moved
# fingerprint is a checkpoint that no longer resumes.
golden-update:
	CLIENTMAP_UPDATE_GOLDEN=1 $(GO) test -count=1 -run 'TestGolden|TestStageFingerprintsPinned' ./internal/experiments/ ./internal/serve/

# loc prints non-test Go lines per package and the module total outside
# cmd/bench (a module of its own, frozen between [benchmark] PRs), so
# "this PR made the tree smaller" is a number anyone can reproduce.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './cmd/bench/*' | \
		awk '{ d = $$0; sub(/\/[^\/]*$$/, "", d); while ((getline l < $$0) > 0) n[d]++; close($$0) } \
		END { for (d in n) printf "%6d %s\n", n[d], d }' | sort -k2
	@printf '%6d total\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './cmd/bench/*' | xargs cat | wc -l)

# check is the pre-merge gate: static analysis plus the race-enabled suite.
check: vet race

# serve-smoke boots the full serving path end to end, twice: cmd/bench
# produces a small map, exports it, starts the real clientmapd on loopback
# and drives it for a second over DNS and HTTP with the hot mix (every
# name cached) and then the cold mix (hardly any), checking every reply
# against the index. Each run exits non-zero on a wrong reply; a
# single-workload run only reports lost queries, so the result object on
# its last line is checked for those as well. About 5 s each.
serve-smoke:
	@for w in serve_hot serve_cold; do \
		out=$$($(GO) run -C cmd/bench . -smoke -workload $$w -seconds 1) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | grep '"correct":true' | grep -q '"failed":0' || \
			{ echo "serve-smoke: $$w lost or failed queries" >&2; exit 1; }; \
	done
