package metrics

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Stage liveness states as reported on /healthz.
const (
	StatePending = "pending" // watched, no phase entered yet
	StateRunning = "running" // between Run start and success
	StateDone    = "done"    // finished cleanly; exempt from stall checks
	StateFailed  = "failed"  // a phase errored; the run is unhealthy
)

// Health tracks per-stage liveness for /healthz. Stages are Watched
// with a stall budget, Beat on every unit of progress, and marked Done
// or Failed by the run driver. The run is unhealthy when any stage has
// Failed, or when an active stage with a positive stall budget has not
// Beat within it (the inference stage's stall_timeout_ms).
//
// A nil *Health is valid: all mutators are no-ops and the state reads
// healthy, mirroring the nil *Registry convention.
type Health struct {
	mu     sync.Mutex
	now    func() time.Time
	order  []string
	stages map[string]*liveness
}

type liveness struct {
	stallAfter time.Duration
	lastBeat   time.Time
	state      string
}

// NewHealth returns an empty health tracker.
func NewHealth() *Health {
	return &Health{now: time.Now, stages: map[string]*liveness{}}
}

// SetClock replaces the time source (tests).
func (h *Health) SetClock(now func() time.Time) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.now = now
	h.mu.Unlock()
}

// stage finds or creates the named stage entry. Caller holds h.mu.
func (h *Health) stage(name string) *liveness {
	l, ok := h.stages[name]
	if !ok {
		l = &liveness{state: StatePending, lastBeat: h.now()}
		h.stages[name] = l
		h.order = append(h.order, name)
	}
	return l
}

// Watch registers a stage with a stall budget: if the stage is active
// and does not Beat for longer than stallAfter, /healthz reports it
// stalled. stallAfter <= 0 means the stage is tracked for state only
// and never considered stalled. Re-watching updates the budget.
func (h *Health) Watch(name string, stallAfter time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	l := h.stage(name)
	l.stallAfter = stallAfter
	l.lastBeat = h.now()
}

// Beat records progress for a stage, resetting its stall clock.
func (h *Health) Beat(name string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	l := h.stage(name)
	l.lastBeat = h.now()
	if l.state == StatePending {
		l.state = StateRunning
	}
}

// SetState moves a stage to the given state, beating its stall clock.
func (h *Health) SetState(name, state string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	l := h.stage(name)
	l.state = state
	l.lastBeat = h.now()
}

// Done marks a stage finished cleanly (exempt from stall checks).
func (h *Health) Done(name string) { h.SetState(name, StateDone) }

// Fail marks a stage failed; the run stays unhealthy.
func (h *Health) Fail(name string) { h.SetState(name, StateFailed) }

// StageHealth is the reported state of one stage.
type StageHealth struct {
	Stage             string  `json:"stage"`
	State             string  `json:"state"`
	SinceBeatSeconds  float64 `json:"since_beat_seconds"`
	StallAfterSeconds float64 `json:"stall_after_seconds,omitempty"`
	Stalled           bool    `json:"stalled,omitempty"`
}

// Check reports overall health and the per-stage detail, in Watch
// order. A nil *Health is healthy with no stages.
func (h *Health) Check() (healthy bool, stages []StageHealth) {
	if h == nil {
		return true, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	healthy = true
	for _, name := range h.order {
		l := h.stages[name]
		sh := StageHealth{
			Stage:             name,
			State:             l.state,
			SinceBeatSeconds:  now.Sub(l.lastBeat).Seconds(),
			StallAfterSeconds: l.stallAfter.Seconds(),
		}
		active := l.state == StatePending || l.state == StateRunning
		if active && l.stallAfter > 0 && now.Sub(l.lastBeat) > l.stallAfter {
			sh.Stalled = true
		}
		if sh.Stalled || l.state == StateFailed {
			healthy = false
		}
		stages = append(stages, sh)
	}
	return healthy, stages
}

// Healthy reports whether no stage is stalled or failed.
func (h *Health) Healthy() bool {
	ok, _ := h.Check()
	return ok
}

// healthResponse is the /healthz JSON body.
type healthResponse struct {
	Status string        `json:"status"`
	Stages []StageHealth `json:"stages"`
}

// ServeHTTP renders /healthz: HTTP 200 with {"status":"ok",...} while
// every stage is live, 503 with {"status":"unhealthy",...} once any
// stage stalls past its budget or fails.
func (h *Health) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	healthy, stages := h.Check()
	resp := healthResponse{Status: "ok", Stages: stages}
	if resp.Stages == nil {
		resp.Stages = []StageHealth{}
	}
	code := http.StatusOK
	if !healthy {
		resp.Status = "unhealthy"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}
