package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/metrics"
)

// scrape GETs a URL and returns (status, body).
func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestStreamingMetricsScrape is the acceptance check for the live
// endpoints: scraping /metrics DURING a streaming run returns valid
// Prometheus text exposition covering all five paper stages, and
// /healthz reports 200 while every stage is live.
func TestStreamingMetricsScrape(t *testing.T) {
	granules := findProductiveGranules(t, 2, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	cfg := testConfig(t, ts.URL, nil) // stream mode ignores cfg.Granules
	p, err := New(cfg, labeler)
	if err != nil {
		t.Fatal(err)
	}
	msrv := httptest.NewServer(p.Metrics())
	defer msrv.Close()
	hsrv := httptest.NewServer(p.Health())
	defer hsrv.Close()

	arrivals := make(chan int)
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := p.RunStream(context.Background(), arrivals)
		done <- result{rep, err}
	}()
	// Unbuffered sends return only after ingest accepted each granule,
	// so by the last send the run is mid-flight with every stage's
	// series registered.
	for _, idx := range granules {
		arrivals <- idx
	}
	code, body := scrape(t, msrv.URL)
	if code != http.StatusOK {
		t.Fatalf("mid-run /metrics status %d", code)
	}
	if err := metrics.ValidatePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("mid-run /metrics is not valid exposition text: %v\n%s", err, body)
	}
	for _, stageName := range []string{"download", "preprocess", "monitor", "inference", "shipment"} {
		if want := fmt.Sprintf("stage=%q", stageName); !strings.Contains(body, want) {
			t.Errorf("mid-run /metrics missing series for %s stage", stageName)
		}
	}
	if code, hbody := scrape(t, hsrv.URL); code != http.StatusOK {
		t.Errorf("mid-run /healthz = %d, want 200\n%s", code, hbody)
	}

	close(arrivals)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	// The report embeds the final snapshot, at parity with a last scrape.
	fams := map[string]bool{}
	for _, f := range res.rep.Metrics {
		fams[f.Name] = true
	}
	for _, want := range []string{
		"eoml_stage_events_total", "eoml_stage_seconds",
		"eoml_laads_client_requests_total",
		"eoml_inference_tiles_labeled_total", "eoml_fleet_tasks_inflight",
	} {
		if !fams[want] {
			t.Errorf("report snapshot missing family %s", want)
		}
	}
	if code, hbody := scrape(t, hsrv.URL); code != http.StatusOK {
		t.Errorf("post-run /healthz = %d, want 200\n%s", code, hbody)
	}
}

// operationsDoc reads docs/OPERATIONS.md from the repo root.
func operationsDoc(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("docs/OPERATIONS.md: %v", err)
	}
	return string(data)
}

// TestOperationsDocCoversAllMetrics diffs the full registered metric
// catalogue — a real batch run's registry plus the archive server's —
// against docs/OPERATIONS.md, in both directions: every exported family
// must be documented, and every eoml_* name the doc mentions must exist.
func TestOperationsDocCoversAllMetrics(t *testing.T) {
	granules := findProductiveGranules(t, 2, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	cfg := testConfig(t, ts.URL, granules)
	p, err := New(cfg, labeler)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	names := map[string]bool{}
	for _, f := range rep.Metrics {
		names[f.Name] = true
	}
	// The archive-side families live in the laads server's registry, not
	// the pipeline's; union them in for full catalogue coverage.
	srvReg := metrics.NewRegistry()
	if _, err := laads.NewServer(laads.ServerConfig{ScaleDown: testScale, Metrics: srvReg}); err != nil {
		t.Fatal(err)
	}
	for _, f := range srvReg.Snapshot() {
		names[f.Name] = true
	}
	// The tenant quota wait histogram registers only when an engine runs
	// with quotas enabled; union it from a live pool.
	quotaReg := metrics.NewRegistry()
	pool := laads.NewQuotaPool(1, 1)
	pool.Instrument(quotaReg)
	pool.Tenant("doc")
	for _, f := range quotaReg.Snapshot() {
		names[f.Name] = true
	}
	// The worker-fleet families register on the engine's coordinator
	// (serve wires them when -fleet is set); union an instrumented one.
	fleetReg := metrics.NewRegistry()
	fc := fleet.NewCoordinator(fleet.Config{})
	fc.Instrument(fleetReg)
	fc.Close()
	for _, f := range fleetReg.Snapshot() {
		names[f.Name] = true
	}
	// The worker-side cache/prefetch families register on each worker's
	// kernel set (eoml-worker wires them); union an instrumented one.
	kernReg := metrics.NewRegistry()
	kern, err := fleet.NewKernelsWith(fleet.KernelConfig{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	kern.Instrument(kernReg)
	for _, f := range kernReg.Snapshot() {
		names[f.Name] = true
	}
	if len(names) < 20 {
		t.Fatalf("only %d families registered — instrumentation regressed?", len(names))
	}

	doc := operationsDoc(t)
	for name := range names {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("docs/OPERATIONS.md does not document exported family %s", name)
		}
	}
	// Reverse direction: the doc must not name series that don't exist.
	// Histogram sample suffixes (_bucket/_sum/_count) in curl examples
	// resolve to their base family.
	for _, tok := range regexp.MustCompile(`eoml_[a-z0-9_]+`).FindAllString(doc, -1) {
		if strings.HasSuffix(tok, "_") {
			// Prefix reference (eoml_laads_server_*, a grep alternation):
			// some family must carry it.
			ok := false
			for name := range names {
				ok = ok || strings.HasPrefix(name, tok)
			}
			if !ok {
				t.Errorf("docs/OPERATIONS.md prefix %s* matches no registered family", tok)
			}
			continue
		}
		if strings.HasPrefix(tok, "eoml_serve_") {
			// Control-plane families register in internal/serve, which this
			// package cannot import (serve imports core); their drift test
			// is TestServeDocCoversControlPlaneMetrics over there.
			continue
		}
		base := tok
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base = strings.TrimSuffix(base, suffix)
		}
		if !names[tok] && !names[base] {
			t.Errorf("docs/OPERATIONS.md mentions %s, which no component registers", tok)
		}
	}
}

// TestRunInstrumentsStages: a clean run leaves one latency sample per
// stage that has a span, every stage done and /healthz healthy.
func TestRunInstrumentsStages(t *testing.T) {
	granules := findProductiveGranules(t, 1, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	p, err := New(testConfig(t, ts.URL, granules), labeler)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]int64{}
	for _, f := range rep.Metrics {
		if f.Name != "eoml_stage_seconds" {
			continue
		}
		for _, s := range f.Series {
			for _, l := range s.Labels {
				if l.Key == "stage" && s.Histogram != nil {
					samples[l.Value] = s.Histogram.Count
				}
			}
		}
	}
	healthy, stages := p.Health().Check()
	if !healthy {
		t.Fatalf("unhealthy after a clean run: %+v", stages)
	}
	state := map[string]string{}
	for _, st := range stages {
		state[st.Stage] = st.State
	}
	for _, name := range []string{"preprocess", "inference", "shipment"} {
		if samples[name] != 1 {
			t.Errorf("stage %s has %d latency samples, want 1", name, samples[name])
		}
		if _, ok := rep.Spans.Get(name); !ok {
			t.Errorf("stage %s has no span", name)
		}
		if state[name] != metrics.StateDone {
			t.Errorf("stage %s is %s after the run, want done", name, state[name])
		}
	}
}

// TestStageFailureCountsAndMarksUnhealthy: a stage that fails counts
// the failure and leaves /healthz unhealthy.
func TestStageFailureCountsAndMarksUnhealthy(t *testing.T) {
	granules := findProductiveGranules(t, 1, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	p, err := New(testConfig(t, ts.URL, nil), labeler)
	if err != nil {
		t.Fatal(err)
	}
	hsrv := httptest.NewServer(p.Health())
	defer hsrv.Close()
	arrivals := make(chan int, 1)
	arrivals <- 999
	close(arrivals)
	rep, err := p.RunStream(context.Background(), arrivals)
	if err == nil || !strings.Contains(err.Error(), "stage preprocess") {
		t.Fatalf("run error = %v, want the preprocess stage's", err)
	}
	for _, f := range rep.Metrics {
		if f.Name != "eoml_stage_failures_total" {
			continue
		}
		for _, s := range f.Series {
			want := 0.0
			if s.Labels[0].Value == "preprocess" {
				want = 1
			}
			if s.Value != want {
				t.Errorf("%s%v = %v, want %v", f.Name, s.Labels, s.Value, want)
			}
		}
	}
	if code, body := scrape(t, hsrv.URL); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after a stage failure = %d, want 503\n%s", code, body)
	}
}

// TestInferenceStallFlipsHealthz is the acceptance check for
// stall_timeout_ms: while the inference stage goes longer than its
// stall budget without a file published labeled, /healthz reports it
// stalled. Stalling aborts nothing; the run finishes once its feed
// closes, healthy again.
func TestInferenceStallFlipsHealthz(t *testing.T) {
	granules := findProductiveGranules(t, 1, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	cfg := testConfig(t, ts.URL, nil)
	cfg.StallTimeout = 30 * time.Millisecond
	p, err := New(cfg, labeler)
	if err != nil {
		t.Fatal(err)
	}
	hsrv := httptest.NewServer(p.Health())
	defer hsrv.Close()
	arrivals := make(chan int)
	done := make(chan error, 1)
	go func() {
		_, err := p.RunStream(context.Background(), arrivals)
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		code, body := scrape(t, hsrv.URL)
		var health struct{ Stages []metrics.StageHealth }
		if err := json.Unmarshal([]byte(body), &health); err != nil {
			t.Fatal(err)
		}
		stalled := false
		for _, st := range health.Stages {
			stalled = stalled || st.Stage == "inference" && st.Stalled
		}
		if code == http.StatusServiceUnavailable && stalled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never reported inference stalled: %d %s", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(arrivals)
	if err := <-done; err != nil {
		t.Fatalf("a stalled stage aborted the run: %v", err)
	}
	if code, body := scrape(t, hsrv.URL); code != http.StatusOK {
		t.Fatalf("/healthz after the run = %d, want 200\n%s", code, body)
	}
}
