# Standard entry points for the eoml repo.
#
#   make check      — what CI runs: gofmt gate + vet + the non-amd64 build
#                     (cross) + eomlvet + race tests + fuzz-smoke + serve-smoke + fleet-smoke +
#                     one pass of every kernel benchmark (bench-ci) +
#                     the granule benchmark's own tests and one-second
#                     correctness runs of it (local, stream, cold and
#                     warm fleet)
#   make lint       — the repo's own analyzer suite (cmd/eomlvet)
#   make bench-granule — the four-workload granule benchmark declared in
#                     BENCHMARK.json (benchmarks/README.md), full length;
#                     this is where performance claims are made
#
# The paper's figures and tables render from the discrete-event model
# with `go run ./cmd/benchtab`; kernel microbenchmarks sit beside their
# kernels and run with `go test -bench` in that package.

GO ?= go

FUZZTIME ?= 10s

.PHONY: build test vet cross lint race fmt fuzz-smoke bench-ci bench-all bench-granule bench-granule-test bench-granule-smoke serve-smoke fleet-smoke check

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

# The non-amd64 build: vet type-checks every package for arm64, so the
# scalar twins in simd_noasm.go (the only code that build compiles in
# place of the assembly) cannot drift from the amd64 entry points.
cross:
	GOARCH=arm64 $(GO) vet ./...

# eomlvet: the repo's own stdlib-only analyzers for concurrency and
# resource invariants (see DESIGN.md §10). Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/eomlvet ./...

race:
	$(GO) test -race ./...

# Short fuzzing pass over the parsers that consume untrusted bytes: the
# yamlite config parser, the HDF granule decoder, the NetCDF tile-file
# decoder, the fleet wire (a worker's /run body, granule and
# label-file references and results) and tile extraction, which indexes
# decoded datasets' raw bytes. $(FUZZTIME) per target; any crasher found
# lands in testdata/fuzz/ and from then on runs as a plain regression
# test under `go test`.
fuzz-smoke:
	$(GO) test ./internal/yamlite -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hdf -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netcdf -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fleet -run '^$$' -fuzz FuzzGranuleWire -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tile -run '^$$' -fuzz FuzzExtract -fuzztime $(FUZZTIME)

# CI smoke of the kernel microbenchmarks: one iteration of every bench
# in the packages that hold them, numbers discarded — it catches a bench
# that no longer builds or runs.
bench-ci:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/tensor ./internal/ricc ./internal/cluster42 ./internal/tile ./internal/hdf ./internal/netcdf ./internal/modis

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
# are too short to mean anything. The last run repeats the warm fleet
# with tracing on, so the traced pass's layer probes (the download-cache
# probe among them) fail here, not only in a full-length run.
bench-granule-smoke:
	bash benchmarks/run.sh --workload campaign_local --seconds 1
	bash benchmarks/run.sh --workload stream_local --seconds 1
	bash benchmarks/run.sh --workload campaign_fleet_cold --seconds 1
	bash benchmarks/run.sh --workload campaign_fleet_warm --seconds 1
	bash benchmarks/run.sh --workload campaign_fleet_warm --seconds 1 --trace 1

# Every kernel and ablation benchmark in the repo, at full length.
bench-all:
	$(GO) test -run xxx -bench . -benchmem ./...

check: fmt vet cross lint race fuzz-smoke serve-smoke fleet-smoke bench-ci bench-granule-test bench-granule-smoke
