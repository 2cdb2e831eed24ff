package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/metrics"
)

// The ledger is built from the outside: the benchmark records a span
// around each call it makes into a layer's public functions and reads
// the counters the program already exposes. Spans inside the program are
// a later change; they replace these without renaming any metric.

// ledger is the per-layer table under construction: metric name to its
// value and the number of samples behind it.
type ledger map[string]sampled

type sampled struct {
	value float64
	n     int
}

func (l ledger) set(name string, value float64, n int) { l[name] = sampled{value, n} }

// span is one timed call: name, start and end in seconds since the
// tracer's epoch, the span that caused it, and the granule it served.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = root
	Name    string  `json:"name"`
	Granule int     `json:"granule"` // five-minute slot index; -1 when not per granule
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
}

// tracer keeps spans in memory; writeTo flushes them when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, granule int) int {
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Granule: granule, Start: now})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration((s.End - s.Start) * float64(time.Second))
}

// add records a span whose bounds were measured elsewhere (a stage span
// read from a run's report).
func (t *tracer) add(name string, parent, granule int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Granule: granule,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds(),
	})
}

// millisOf returns the durations of every span with the given name.
func (t *tracer) millisOf(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.End-s.Start)*1000)
		}
	}
	return out
}

func (t *tracer) writeTo(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// campaignTrace is what one traced campaign adds to the ledger: the
// run's own stage spans plus deltas of counters the program exposes.
type campaignTrace struct {
	wallSeconds  float64
	stageSeconds map[string]float64 // Report.Spans by stage name
	allocMB      float64            // heap bytes allocated during the run
	gcPauseMs    float64
	requests     int64 // archive requests (laads.Server.Stats delta)
	archiveMB    float64
	batchTiles   float64 // mean tiles per batcher flush (eoml_labeler_batch_tiles)
	flushMs      float64 // mean ms per batcher flush (eoml_labeler_flush_seconds)
	submitted    float64 // fleet coordinator counters
	requeued     float64
	stolen       float64
	leaseBatch   float64 // mean tasks per batched lease
	cacheHits    float64 // worker download caches
	cacheMisses  float64
}

// tracePoint holds the "before" readings of a traced campaign.
type tracePoint struct {
	r         *runner
	spanID    int
	began     time.Time
	mem       runtime.MemStats
	requests  int64
	bytes     int64
	fleetSnap fleetCounters
}

// fleetCounters is one reading of the coordinator and worker registries.
type fleetCounters struct {
	submitted, requeued, stolen float64
	leaseSum, leaseCount        float64
	hits, misses                float64
}

func (r *runner) archiveStats() (int64, int64) {
	if r.isFleet() {
		return r.in.shaped.srv.Stats()
	}
	return r.in.plain.srv.Stats()
}

func (r *runner) fleetCounters() fleetCounters {
	var c fleetCounters
	if r.fleet == nil {
		return c
	}
	fams := r.fleet.reg.Snapshot()
	c.submitted = seriesValue(fams, "eoml_fleet_tasks_submitted_total")
	c.requeued = seriesValue(fams, "eoml_fleet_tasks_requeued_total")
	c.stolen = seriesValue(fams, "eoml_fleet_tasks_stolen_total")
	c.leaseSum, c.leaseCount = histogramTotals(fams, "eoml_fleet_lease_batch_size")
	for _, reg := range r.fleet.wregs {
		wf := reg.Snapshot()
		c.hits += seriesValue(wf, "eoml_fleet_cache_hits_total", metrics.L("cache", "download"))
		c.misses += seriesValue(wf, "eoml_fleet_cache_misses_total", metrics.L("cache", "download"))
	}
	return c
}

func beginTrace(r *runner) *tracePoint {
	tp := &tracePoint{r: r, fleetSnap: r.fleetCounters()}
	tp.requests, tp.bytes = r.archiveStats()
	runtime.ReadMemStats(&tp.mem)
	tp.began = time.Now()
	tp.spanID = r.tracer.begin(r.name+".campaign", 0, -1)
	return tp
}

func (tp *tracePoint) end(rep *core.Report, wall time.Duration) *campaignTrace {
	tp.r.tracer.end(tp.spanID)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	requests, bytes := tp.r.archiveStats()
	after := tp.r.fleetCounters()
	before := tp.fleetSnap
	ct := &campaignTrace{
		wallSeconds:  wall.Seconds(),
		stageSeconds: map[string]float64{},
		allocMB:      float64(mem.TotalAlloc-tp.mem.TotalAlloc) / 1e6,
		gcPauseMs:    float64(mem.PauseTotalNs-tp.mem.PauseTotalNs) / 1e6,
		requests:     requests - tp.requests,
		archiveMB:    float64(bytes-tp.bytes) / 1e6,
		submitted:    after.submitted - before.submitted,
		requeued:     after.requeued - before.requeued,
		stolen:       after.stolen - before.stolen,
		cacheHits:    after.hits - before.hits,
		cacheMisses:  after.misses - before.misses,
	}
	if n := after.leaseCount - before.leaseCount; n > 0 {
		ct.leaseBatch = (after.leaseSum - before.leaseSum) / n
	}
	if rep == nil {
		return ct
	}
	// The report's stage spans are offsets from the run's epoch, which
	// is the instant Run was entered: within microseconds of tp.began.
	for _, sp := range rep.Spans.All() {
		ct.stageSeconds[sp.Name] = sp.Duration()
		tp.r.tracer.add("stage."+sp.Name, tp.spanID, -1,
			tp.began.Add(time.Duration(sp.Start*float64(time.Second))),
			tp.began.Add(time.Duration(sp.End*float64(time.Second))))
	}
	if sum, n := histogramTotals(rep.Metrics, "eoml_labeler_batch_tiles"); n > 0 {
		ct.batchTiles = sum / n
	}
	if sum, n := histogramTotals(rep.Metrics, "eoml_labeler_flush_seconds"); n > 0 {
		ct.flushMs = sum / n * 1000
	}
	return ct
}

// seriesValue sums the series of a family whose labels include every
// wanted label; 0 when the family is absent.
func seriesValue(fams []metrics.Family, name string, want ...metrics.Label) float64 {
	total := 0.0
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if hasLabels(s.Labels, want) {
				total += s.Value
			}
		}
	}
	return total
}

// histogramTotals sums Sum and Count over every series of a histogram
// family.
func histogramTotals(fams []metrics.Family, name string) (sum, count float64) {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.Histogram != nil {
				sum += s.Histogram.Sum
				count += float64(s.Histogram.Count)
			}
		}
	}
	return sum, count
}

func hasLabels(have, want []metrics.Label) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
