package core

import (
	"fmt"
	"time"

	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/trace"
)

// Event directions of the eoml_stage_events_total series: units of
// work a stage accepted (in) and completed (out). What a unit is (a
// product file, a granule, a tile file, a shipped file) is the stage's
// own, documented in docs/OPERATIONS.md.
const (
	eventIn  = "in"
	eventOut = "out"
)

// runContext is what one Run/RunStream call shares across its stages:
// the telemetry epoch and the sinks every stage reports into.
type runContext struct {
	// Epoch is the run's start; Timeline and Spans offsets count from it.
	Epoch time.Time
	// Timeline receives worker-activity samples (Fig. 6).
	Timeline *trace.Timeline
	// Spans receives one latency span per stage (Fig. 7).
	Spans *trace.Spans
	// Metrics receives the live per-stage series.
	Metrics *metrics.Registry
	// Health tracks per-stage liveness for /healthz.
	Health *metrics.Health
}

// since returns seconds elapsed since the run epoch.
func (rc *runContext) since() float64 { return time.Since(rc.Epoch).Seconds() }

// EventCounter returns the events counter for a stage and direction,
// registering it on first use.
func (rc *runContext) EventCounter(stageName, dir string) *metrics.Counter {
	return rc.Metrics.Counter("eoml_stage_events_total",
		"Units of work accepted (dir=in) and completed (dir=out) per pipeline stage.",
		metrics.L("stage", stageName), metrics.L("dir", dir))
}

// Event counts one unit of work for a stage in both sinks: the events
// counter and the stage's health stall clock.
func (rc *runContext) Event(stageName, dir string) {
	rc.EventCounter(stageName, dir).Inc()
	rc.Health.Beat(stageName)
}

// watch eagerly registers a stage's event series and health entry, with
// a stall budget (0: none), so the catalogue is complete before any
// work happens.
func (rc *runContext) watch(stageName string, stallAfter time.Duration) {
	rc.EventCounter(stageName, eventIn)
	rc.EventCounter(stageName, eventOut)
	rc.Health.Watch(stageName, stallAfter)
}

func (rc *runContext) failures(stageName string) *metrics.Counter {
	return rc.Metrics.Counter("eoml_stage_failures_total",
		"Stage errors observed by the run.",
		metrics.L("stage", stageName))
}

func (rc *runContext) seconds(stageName string) *metrics.Histogram {
	return rc.Metrics.Histogram("eoml_stage_seconds",
		"Wall-clock seconds per stage.",
		metrics.DurationBuckets(), metrics.L("stage", stageName))
}

// stage runs one of the run's stages in turn: its health entry goes
// running, a span and a latency sample cover fn, and the entry ends done
// — or failed, with the failure counted.
func (rc *runContext) stage(name string, fn func() error) error {
	rc.Health.SetState(name, metrics.StateRunning)
	start := rc.since()
	err := fn()
	end := rc.since()
	rc.Spans.Add(name, start, end)
	if err != nil {
		rc.failures(name).Inc()
		rc.Health.Fail(name)
		return fmt.Errorf("stage %s: %w", name, err)
	}
	rc.seconds(name).Observe(end - start)
	rc.Health.Done(name)
	return nil
}
