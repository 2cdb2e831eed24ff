package main

// The benchmark's contract: workload and metric names, units, directions
// and bounds. BENCHMARK.json at the repository root carries the same
// table; TestBenchmarkJSONMatchesSpec fails when the two drift.

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec declares one metric. Bound is the share of the baseline
// median by which the metric may worsen before -compare reports a
// regression; per-layer metrics carry no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wlCampaignLocal = "campaign_local"
	wlStreamLocal   = "stream_local"
	wlFleetCold     = "campaign_fleet_cold"
	wlFleetWarm     = "campaign_fleet_warm"
)

var workloadSpecs = []workloadSpec{
	{wlCampaignLocal, "closed loop, distribution local, unshaped archive: format and kernel layers plus the in-process substrate do all the work; fleet and archive latency do none"},
	{wlStreamLocal, "open loop, one arrival per 80 ms: latency is set by watch poll phase, flows dispatch, batcher delay and parsl dispatch; kernels are under a tenth of it"},
	{wlFleetCold, "closed loop, two fleet workers with empty caches on a shaped archive: archive latency dominates, so prefetch, lease batching and cache ingest decide the result"},
	{wlFleetWarm, "same fleet with warm caches and zero archive requests: cache read path and coordinator RPC overhead dominate; the archive does nothing"},
}

// End-to-end metrics, emitted by every untraced run of every workload.
var endToEndSpecs = []metricSpec{
	{"granules_per_s", "1/s", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.20},
	{"latency_p95_ms", "ms", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics, emitted by every traced run of every workload. A
// metric whose layer a workload does not exercise reads 0 there.
var perLayerSpecs = []metricSpec{
	// Layer walk: one goroutine, one span per call, median ms per granule.
	{"laads.download_ms", "ms", "lower", 0},
	{"hdf.decode_ms", "ms", "lower", 0},
	{"tile.extract_ms", "ms", "lower", 0},
	{"netcdf.write_ms", "ms", "lower", 0},
	{"netcdf.read_ms", "ms", "lower", 0},
	{"netcdf.append_ms", "ms", "lower", 0},
	{"ricc.encode_f32_ms", "ms", "lower", 0},
	{"ricc.encode_q8_ms", "ms", "lower", 0},
	{"aicca.label_file_ms", "ms", "lower", 0},
	{"aicca.assign_self_ms", "ms", "lower", 0},
	{"transfer.ship_ms", "ms", "lower", 0},
	{"walk.tiles_per_granule", "count", "higher", 0},
	{"walk.mb_per_granule", "MB", "lower", 0},
	// Orchestration probes: no-op payloads, median per call.
	{"watch.scan_ms", "ms", "lower", 0},
	{"flows.dispatch_ms", "ms", "lower", 0},
	{"aicca.batcher_wait_ms", "ms", "lower", 0},
	{"parsl.dispatch_us", "us", "lower", 0},
	{"compute.submit_us", "us", "lower", 0},
	// Fleet probes.
	{"fleet.rpc_ms", "ms", "lower", 0},
	{"fleet.rpc_batch_per_s", "1/s", "higher", 0},
	{"fleet.cache_miss_ms_per_mb", "ms/MB", "lower", 0},
	{"fleet.cache_hit_ms_per_mb", "ms/MB", "lower", 0},
	// Read from traced campaigns of the workload under test.
	{"stage.download_s", "s", "lower", 0},
	{"stage.preprocess_s", "s", "lower", 0},
	{"stage.inference_s", "s", "lower", 0},
	{"stage.shipment_s", "s", "lower", 0},
	{"core.wall_s", "s", "lower", 0},
	{"core.busy_share", "share", "higher", 0},
	{"core.alloc_mb_per_granule", "MB", "lower", 0},
	{"core.gc_pause_ms", "ms", "lower", 0},
	{"laads.requests_per_granule", "count", "lower", 0},
	{"laads.mb_per_granule", "MB", "lower", 0},
	{"aicca.batch_tiles_mean", "count", "higher", 0},
	{"aicca.flush_ms_mean", "ms", "lower", 0},
	{"fleet.tasks_submitted", "count", "lower", 0},
	{"fleet.tasks_requeued", "count", "lower", 0},
	{"fleet.tasks_stolen", "count", "lower", 0},
	{"fleet.lease_batch_mean", "count", "higher", 0},
	{"fleet.cache_hit_ratio", "share", "higher", 0},
	{"fleet.prefetch_overlap_share", "share", "higher", 0},
	{"gen_late_ms_p95", "ms", "lower", 0},
	{"trace_overhead_share", "share", "lower", 0},
}

func isWorkload(name string) bool {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return true
		}
	}
	return false
}
