# Standard entry points for the eoml repo.
#
#   make check      — what CI runs: gofmt gate + vet + eomlvet + race tests
#                     + fuzz-smoke + serve-smoke + fleet-smoke +
#                     reduced-size bench smokes (bench-ci, bench-e2e) +
#                     the granule benchmark's own tests and one-second
#                     correctness runs of it (local, stream, cold and
#                     warm fleet)
#   make lint       — the repo's own analyzer suite (cmd/eomlvet)
#   make bench      — the hot-path benchmarks, emitted as $(BENCH_OUT)
#   make bench-diff — compare the committed bench records: fails on >10%
#                     throughput regression $(BENCH_OLD) → $(BENCH_NEW);
#                     by hand only, it reruns nothing
#   make bench-granule — the four-workload granule benchmark declared in
#                     BENCHMARK.json (benchmarks/README.md), full length;
#                     this is where performance claims are made

GO ?= go
BENCHTIME ?= 1s
BENCHCOUNT ?= 3
BENCH_OUT ?= BENCH_10.json
BENCH_OLD ?= BENCH_9.json
BENCH_NEW ?= BENCH_10.json
# At least one compared benchmark must match this, so the fleet
# granules_per_s series cannot silently vanish from the gate.
BENCH_REQUIRE ?= BenchmarkFleetScaling/(strong|weak)/
BENCH_PAT := BenchmarkMatMulBlocked|BenchmarkMatMulSmall|BenchmarkEncodeArena|BenchmarkEncodeQ8|BenchmarkLabelFileBatched|BenchmarkTileExtract|BenchmarkPipelineE2E|BenchmarkFleetScaling

FUZZTIME ?= 10s

.PHONY: build test vet lint race fmt fuzz-smoke bench bench-ci bench-diff bench-all bench-e2e bench-granule bench-granule-test bench-granule-smoke serve-smoke fleet-smoke check

build:
	$(GO) build ./...

# gofmt cleanliness gate: fails listing any file that needs formatting.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# go vet plus the two extra passes worth running explicitly: copied locks
# and discarded pure-function results.
vet:
	$(GO) vet ./...
	$(GO) vet -copylocks -unusedresult ./...

# eomlvet: the repo's own stdlib-only analyzers for concurrency and
# resource invariants (see DESIGN.md §10). Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/eomlvet ./...

race:
	$(GO) test -race ./...

# Short fuzzing pass over the parsers that consume untrusted bytes: the
# yamlite config parser, the HDF granule decoder, the NetCDF tile-file
# decoder and the fleet wire (a worker's /run body, granule and
# label-file references and results). $(FUZZTIME) per target; any crasher found
# lands in testdata/fuzz/ and from then on runs as a plain regression
# test under `go test`.
fuzz-smoke:
	$(GO) test ./internal/yamlite -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hdf -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netcdf -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fleet -run '^$$' -fuzz FuzzGranuleWire -fuzztime $(FUZZTIME)

# Hot-path benchmarks (kernels, arena, batching, tile throughput),
# emitted as a machine-readable record via cmd/benchjson. Runs each
# benchmark $(BENCHCOUNT) times; benchjson keeps the fastest repetition
# (best-of-N) so shared-host noise does not trip the bench-diff gate.
# Two steps so a bench failure fails the target (sh pipelines swallow
# the first exit code).
bench:
	$(GO) test -run xxx -bench '$(BENCH_PAT)' -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . > bench.out.tmp
	$(GO) run ./cmd/benchjson -pr 10 \
		-title "Fleet hot path: worker granule prefetch, content-addressed download/result cache, batched lease/result RPCs" \
		-command "make bench BENCHTIME=$(BENCHTIME) BENCHCOUNT=$(BENCHCOUNT)" < bench.out.tmp > $(BENCH_OUT)
	@rm -f bench.out.tmp
	@echo "wrote $(BENCH_OUT)"

# CI smoke at reduced size: one iteration per bench, result discarded.
bench-ci:
	@$(MAKE) --no-print-directory bench BENCHTIME=1x BENCHCOUNT=1 BENCH_OUT=/tmp/eoml-bench-ci.json

# End-to-end pipeline smoke: one short ingest → tile-extract → encode →
# label → ship run against the synthetic archive, reporting granules/s
# and tiles/s. Result discarded; this catches wiring breakage, the
# committed BENCH_N.json records carry the real numbers.
bench-e2e:
	$(GO) test -run xxx -bench 'BenchmarkPipelineE2E' -benchtime 1x .

# Control-plane smoke: boots the run API on a real listener, submits a
# campaign over HTTP (model artifacts on disk, synthetic archive),
# polls it to success, and scrapes per-run + aggregate metrics.
serve-smoke:
	$(GO) test -race -run TestServeSmoke -count 1 ./internal/serve

# Worker-fleet smoke: spawns two real worker processes (the test binary
# re-exec'd in worker mode), registers them with an in-process
# coordinator over HTTP, and runs a tiny distribution:fleet campaign
# end to end against the synthetic archive.
fleet-smoke:
	$(GO) test -race -run TestFleetSmoke -count 1 .

# Comparison of the committed records: fails on >10% throughput
# regression between the two most recent BENCH_N.json files. Not part of
# check: it reruns no benchmark, so no code change can fail it. -require additionally fails if the
# fleet scaling series stops being compared (rename/deletion).
bench-diff:
	$(GO) run ./cmd/benchdiff -require '$(BENCH_REQUIRE)' $(BENCH_OLD) $(BENCH_NEW)

# The granule benchmark (BENCHMARK.json, benchmarks/README.md): four
# workloads end to end, results as JSON Lines. Full length (about a
# minute and a half), so not part of check; compare two result files with
# `bash benchmarks/run.sh -compare old.jsonl new.jsonl`.
bench-granule:
	bash benchmarks/run.sh --workload all --out bench-granule.jsonl

# benchmarks/ is its own module, so the root `go test ./...` does not
# reach its tests (percentile rule, schedule, BENCHMARK.json drift,
# -compare verdicts, corrupted-label self-test).
bench-granule-test:
	cd benchmarks && $(GO) test ./...

# Correctness gate only: one second of campaign_local still runs ten
# campaigns and checks every shipped label against the reference, one
# second of stream_local does the same through the streaming driver, one
# second of campaign_fleet_cold does it through fleet workers fetching
# ahead of their compute slot from a shaped archive, and one second of
# campaign_fleet_warm does it through the same workers over HTTP and
# fails on any archive request from warm caches; the numbers they print
# are too short to mean anything.
bench-granule-smoke:
	bash benchmarks/run.sh --workload campaign_local --seconds 1
	bash benchmarks/run.sh --workload stream_local --seconds 1
	bash benchmarks/run.sh --workload campaign_fleet_cold --seconds 1
	bash benchmarks/run.sh --workload campaign_fleet_warm --seconds 1

# Every figure/table/ablation benchmark in the repo.
bench-all:
	$(GO) test -run xxx -bench . -benchmem ./...

check: fmt vet lint race fuzz-smoke serve-smoke fleet-smoke bench-ci bench-e2e bench-granule-test bench-granule-smoke
