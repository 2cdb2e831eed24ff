package stage

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/metrics"
)

// instrumentedRC builds a RunContext with live metric and health sinks.
func instrumentedRC() (*RunContext, *metrics.Registry, *metrics.Health) {
	reg := metrics.NewRegistry()
	h := metrics.NewHealth()
	return &RunContext{Metrics: reg, Health: h}, reg, h
}

func familySet(reg *metrics.Registry) map[string]bool {
	out := map[string]bool{}
	for _, f := range reg.Snapshot() {
		out[f.Name] = true
	}
	return out
}

func TestOrchestratorInstrumentsStages(t *testing.T) {
	var log []string
	a := &recStage{name: "a", log: &log}
	b := &recStage{name: "b", log: &log}
	rc, reg, h := instrumentedRC()
	if err := NewOrchestrator(rc).Execute(context.Background(), a, b); err != nil {
		t.Fatal(err)
	}
	fams := familySet(reg)
	for _, want := range []string{MetricStageEvents, MetricStageFailures, MetricStageSeconds} {
		if !fams[want] {
			t.Errorf("registry missing %s after a clean run", want)
		}
	}
	// Each stage's latency histogram got exactly one sample (the drain
	// phase extends the span rather than adding a second observation).
	for _, f := range reg.Snapshot() {
		if f.Name != MetricStageSeconds {
			continue
		}
		for _, s := range f.Series {
			if s.Histogram == nil || s.Histogram.Count != 1 {
				t.Errorf("stage %v latency sample count = %+v, want 1", s.Labels, s.Histogram)
			}
		}
	}
	healthy, stages := h.Check()
	if !healthy {
		t.Errorf("health unhealthy after clean run: %+v", stages)
	}
	for _, st := range stages {
		if st.State != metrics.StateDone {
			t.Errorf("stage %s state %s, want done", st.Stage, st.State)
		}
	}
}

func TestStageFailureCountsAndMarksUnhealthy(t *testing.T) {
	var log []string
	boom := errors.New("boom")
	a := &recStage{name: "a", log: &log, runErr: boom}
	rc, _, h := instrumentedRC()
	if err := NewOrchestrator(rc).Execute(context.Background(), a); !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the run failure", err)
	}
	if v := rc.failures("a").Value(); v != 1 {
		t.Errorf("failure counter = %v, want 1", v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != 503 {
		t.Fatalf("healthz after stage failure = %d, want 503", w.Code)
	}
}

// TestInferenceStallFlipsHealthz is the acceptance check for
// stall_timeout_ms: when the inference stage stops making progress for
// longer than its stall budget, the run aborts and /healthz reports 503.
func TestInferenceStallFlipsHealthz(t *testing.T) {
	svc := NewInferenceService(InferenceConfig{
		WatchDir:     t.TempDir(),
		PollInterval: 5 * time.Millisecond,
		OutboxDir:    t.TempDir(),
		StallTimeout: 30 * time.Millisecond,
	})
	svc.ExpectFiles(1) // promised file never arrives
	rc, _, h := instrumentedRC()
	err := NewOrchestrator(rc).Execute(context.Background(), svc)
	if err == nil || !contains(err.Error(), "stalled") {
		t.Fatalf("stall not reported: %v", err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != 503 {
		t.Fatalf("healthz after stall = %d, want 503", w.Code)
	}
	_, stages := h.Check()
	for _, st := range stages {
		if st.Stage == svc.Name() && st.State != metrics.StateFailed {
			t.Errorf("inference state %s, want failed", st.State)
		}
	}
}

// TestPublishedFilesCountLikeFlows: a file that reached the outbox
// already labeled (a fleet worker's granule) satisfies the expectation,
// beats the stall clock and fires OnMoved exactly as a label-and-move
// flow would — with the producer's own times on the timeline — while the
// monitor and flow event series stay at zero: nothing was watched.
func TestPublishedFilesCountLikeFlows(t *testing.T) {
	type moved struct {
		dst            string
		labeled        int
		started, ended time.Time
	}
	var seen []moved
	svc := NewInferenceService(InferenceConfig{
		WatchDir:     t.TempDir(),
		PollInterval: time.Hour,
		OutboxDir:    t.TempDir(),
		StallTimeout: 5 * time.Second,
		OnMoved: func(_, dst string, labeled int, started, ended time.Time) {
			seen = append(seen, moved{dst, labeled, started, ended})
		},
	})
	rc, reg, h := instrumentedRC()
	rc.Epoch = time.Now()
	at := func(ms int) time.Time { return rc.Epoch.Add(time.Duration(ms) * time.Millisecond) }
	producer := Func("preprocess", func(ctx context.Context, rc *RunContext) error {
		svc.Published(rc, "/outbox/a.nc", 5, at(10), at(20))
		svc.Published(rc, "/outbox/b.nc", 7, at(15), at(40))
		svc.ExpectFiles(2)
		return nil
	})
	if err := NewOrchestrator(rc).Execute(context.Background(), producer, svc); err != nil {
		t.Fatal(err)
	}
	if svc.Completed() != 2 || svc.FilesLabeled() != 2 || svc.TilesLabeled() != 12 || svc.FlowsFailed() != 0 {
		t.Fatalf("completed=%d files=%d tiles=%d failed=%d, want 2 2 12 0",
			svc.Completed(), svc.FilesLabeled(), svc.TilesLabeled(), svc.FlowsFailed())
	}
	want := []moved{{"/outbox/a.nc", 5, at(10), at(20)}, {"/outbox/b.nc", 7, at(15), at(40)}}
	if len(seen) != 2 || seen[0] != want[0] || seen[1] != want[1] {
		t.Fatalf("OnMoved saw %+v, want %+v", seen, want)
	}
	samples := rc.Timeline.Samples("inference")
	if len(samples) != 2 || samples[0].T != 0.020 || samples[1].T != 0.040 || samples[1].Count != 2 {
		t.Fatalf("inference timeline = %+v, want the producer's end times", samples)
	}
	for _, f := range reg.Snapshot() {
		for _, s := range f.Series {
			switch {
			case f.Name == "eoml_inference_tiles_labeled_total" && s.Value != 12:
				t.Errorf("%s = %v, want 12", f.Name, s.Value)
			case f.Name == MetricStageEvents && s.Value != 0 &&
				(hasLabel(s.Labels, "stage", "monitor") || hasLabel(s.Labels, "stage", "inference")):
				t.Errorf("%s%v = %v, want 0: published files are not watched", f.Name, s.Labels, s.Value)
			}
		}
	}
	if healthy, stages := h.Check(); !healthy {
		t.Fatalf("unhealthy after published files: %+v", stages)
	}
}

func hasLabel(labels []metrics.Label, name, value string) bool {
	for _, l := range labels {
		if l == metrics.L(name, value) {
			return true
		}
	}
	return false
}
