package trace

import (
	"strings"
	"testing"
)

func TestTimelineRecordAndQuery(t *testing.T) {
	tl := NewTimeline()
	tl.Record("download", 0, 3)
	tl.Record("download", 10, 0)
	tl.Record("preprocess", 8, 16)
	tl.Record("preprocess", 30, 32)
	tl.Record("preprocess", 50, 0)

	if got := tl.CountAt("download", 5); got != 3 {
		t.Fatalf("download@5 = %d", got)
	}
	if got := tl.CountAt("download", 15); got != 0 {
		t.Fatalf("download@15 = %d", got)
	}
	if got := tl.CountAt("preprocess", 40); got != 32 {
		t.Fatalf("preprocess@40 = %d", got)
	}
	if got := tl.CountAt("preprocess", 1); got != 0 {
		t.Fatalf("preprocess@1 = %d (before first sample)", got)
	}
	if got := tl.PeakCount("preprocess"); got != 32 {
		t.Fatalf("peak = %d", got)
	}
	stages := tl.Stages()
	if len(stages) != 2 || stages[0] != "download" {
		t.Fatalf("stages = %v", stages)
	}
}

func TestTimelineOutOfOrderSamplesSorted(t *testing.T) {
	tl := NewTimeline()
	tl.Record("s", 10, 5)
	tl.Record("s", 5, 2)
	samples := tl.Samples("s")
	if samples[0].T != 5 || samples[1].T != 10 {
		t.Fatalf("samples = %v", samples)
	}
}

func TestTimelineRender(t *testing.T) {
	tl := NewTimeline()
	tl.Record("download", 0, 3)
	tl.Record("download", 50, 0)
	tl.Record("inference", 60, 1)
	tl.Record("inference", 70, 0)
	out := tl.Render(100, 40)
	if !strings.Contains(out, "download") || !strings.Contains(out, "inference") {
		t.Fatalf("render:\n%s", out)
	}
	if !strings.Contains(out, "peak=3") {
		t.Fatalf("render missing peak:\n%s", out)
	}
	// Download row must show activity early and silence late.
	lines := strings.Split(out, "\n")
	dl := lines[0]
	bar := dl[strings.Index(dl, "|")+1 : strings.LastIndex(dl, "|")]
	if bar[0] == ' ' {
		t.Fatalf("download inactive at t=0: %q", bar)
	}
	if bar[len(bar)-1] != ' ' {
		t.Fatalf("download active at end: %q", bar)
	}
}

func TestSpansAddGetGap(t *testing.T) {
	sp := NewSpans()
	sp.Add("download", 0, 5.63)
	sp.Add("preprocess", 6.0, 38.8)
	sp.Add("inference", 38.85, 44.0)

	d, ok := sp.Get("download")
	if !ok || d.Duration() != 5.63 {
		t.Fatalf("download span %v %v", d, ok)
	}
	gap, err := sp.Gap("download", "preprocess")
	if err != nil {
		t.Fatal(err)
	}
	if gap < 0.36 || gap > 0.38 {
		t.Fatalf("gap = %v", gap)
	}
	if _, err := sp.Gap("download", "nope"); err == nil {
		t.Fatal("missing span accepted")
	}
	// Overwrite keeps one entry.
	sp.Add("download", 0, 6.0)
	if len(sp.All()) != 3 {
		t.Fatalf("spans = %d", len(sp.All()))
	}
	d2, _ := sp.Get("download")
	if d2.End != 6.0 {
		t.Fatalf("overwrite lost: %v", d2)
	}
}

func TestSpansRenderTable(t *testing.T) {
	sp := NewSpans()
	sp.Add("download-launch", 0, 5.63)
	out := sp.Render()
	if !strings.Contains(out, "download-launch") || !strings.Contains(out, "5.630") {
		t.Fatalf("render:\n%s", out)
	}
}
