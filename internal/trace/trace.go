// Package trace records workflow telemetry: per-stage active-worker
// timelines (the data behind Fig. 6) and named latency spans (the data
// behind Fig. 7). It works with both real wall-clock time and virtual DES
// time, since samples and spans carry plain float64 seconds.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Sample is one point of a worker-count timeline.
type Sample struct {
	T     float64 // seconds since workflow start
	Count int     // active workers at T
}

// Timeline records worker-activity samples for named stages.
type Timeline struct {
	mu     sync.Mutex
	stages map[string][]Sample
}

// NewTimeline returns an empty recorder.
func NewTimeline() *Timeline {
	return &Timeline{stages: map[string][]Sample{}}
}

// Record appends a sample for a stage. Samples should arrive in
// non-decreasing time order per stage; out-of-order samples are accepted
// and sorted on read.
func (tl *Timeline) Record(stage string, t float64, count int) {
	tl.mu.Lock()
	tl.stages[stage] = append(tl.stages[stage], Sample{T: t, Count: count})
	tl.mu.Unlock()
}

// Stages lists recorded stage names, sorted.
func (tl *Timeline) Stages() []string {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := make([]string, 0, len(tl.stages))
	for s := range tl.stages {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Samples returns a stage's samples in time order.
func (tl *Timeline) Samples(stage string) []Sample {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := append([]Sample(nil), tl.stages[stage]...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// CountAt returns the stage's worker count at time t (the most recent
// sample at or before t; zero before the first sample).
func (tl *Timeline) CountAt(stage string, t float64) int {
	samples := tl.Samples(stage)
	count := 0
	for _, s := range samples {
		if s.T > t {
			break
		}
		count = s.Count
	}
	return count
}

// PeakCount returns the maximum worker count observed for a stage.
func (tl *Timeline) PeakCount(stage string) int {
	peak := 0
	for _, s := range tl.Samples(stage) {
		if s.Count > peak {
			peak = s.Count
		}
	}
	return peak
}

// Render draws an ASCII timeline (one row per stage, resolution buckets
// across [0, end]), the textual form of Fig. 6. Each bucket shows the
// maximum worker count observed within it, so short inference blips stay
// visible at coarse resolutions.
func (tl *Timeline) Render(end float64, buckets int) string {
	if buckets <= 0 {
		buckets = 60
	}
	var b strings.Builder
	for _, stage := range tl.Stages() {
		samples := tl.Samples(stage)
		peak := tl.PeakCount(stage)
		fmt.Fprintf(&b, "%-12s |", stage)
		si := 0
		carry := 0
		for i := 0; i < buckets; i++ {
			t0 := end * float64(i) / float64(buckets)
			t1 := end * float64(i+1) / float64(buckets)
			// Advance to the bucket start, tracking the carried count.
			for si < len(samples) && samples[si].T <= t0 {
				carry = samples[si].Count
				si++
			}
			maxC := carry
			for j := si; j < len(samples) && samples[j].T < t1; j++ {
				if samples[j].Count > maxC {
					maxC = samples[j].Count
				}
			}
			b.WriteByte(glyph(maxC, peak))
		}
		fmt.Fprintf(&b, "| peak=%d\n", peak)
	}
	return b.String()
}

func glyph(count, peak int) byte {
	if count <= 0 {
		return ' '
	}
	levels := []byte{'.', ':', '-', '=', '#', '@'}
	if peak <= 0 {
		peak = 1
	}
	idx := count * len(levels) / (peak + 1)
	if idx >= len(levels) {
		idx = len(levels) - 1
	}
	return levels[idx]
}

// Span is one named latency measurement.
type Span struct {
	Name     string
	Start    float64
	End      float64
	Children []string // names of sub-spans, for rendering
}

// Duration returns End-Start.
func (s Span) Duration() float64 { return s.End - s.Start }

// Spans collects named latency spans (Fig. 7's boxes and arrows).
type Spans struct {
	mu    sync.Mutex
	spans []Span
	index map[string]int
}

// NewSpans returns an empty span set.
func NewSpans() *Spans {
	return &Spans{index: map[string]int{}}
}

// Add records a completed span. Re-adding a name overwrites it.
func (s *Spans) Add(name string, start, end float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[name]; ok {
		s.spans[i] = Span{Name: name, Start: start, End: end}
		return
	}
	s.index[name] = len(s.spans)
	s.spans = append(s.spans, Span{Name: name, Start: start, End: end})
}

// Get fetches a span by name.
func (s *Spans) Get(name string) (Span, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[name]
	if !ok {
		return Span{}, false
	}
	return s.spans[i], true
}

// All returns spans in insertion order.
func (s *Spans) All() []Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.spans...)
}

// Gap returns the idle time between the end of span a and the start of
// span b — the inter-stage communication latency of Fig. 7.
func (s *Spans) Gap(a, b string) (float64, error) {
	sa, ok := s.Get(a)
	if !ok {
		return 0, fmt.Errorf("trace: no span %q", a)
	}
	sb, ok := s.Get(b)
	if !ok {
		return 0, fmt.Errorf("trace: no span %q", b)
	}
	return sb.Start - sa.End, nil
}

// Render prints a latency breakdown table.
func (s *Spans) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %12s %12s\n", "span", "start (s)", "end (s)", "duration (s)")
	for _, sp := range s.All() {
		fmt.Fprintf(&b, "%-28s %12.3f %12.3f %12.3f\n", sp.Name, sp.Start, sp.End, sp.Duration())
	}
	return b.String()
}
