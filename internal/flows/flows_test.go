package flows

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// inferenceFlowJSON has the shape of the paper's stage-3 flow (and of
// internal/stage's): label the file, move it to the outbox, succeed.
const inferenceFlowJSON = `{
  "Comment": "EO-ML inference flow",
  "StartAt": "Infer",
  "States": {
    "Infer": {
      "Type": "Action",
      "ActionProvider": "inference",
      "Parameters": {"file": "$.file"},
      "ResultPath": "$.labels",
      "Next": "Move"
    },
    "Move": {
      "Type": "Action",
      "ActionProvider": "mover",
      "Parameters": {"file": "$.file", "dest": "$.outbox", "labeled": "$.labels.labeled"},
      "ResultPath": "$.moved",
      "Next": "Done"
    },
    "Done": {"Type": "Succeed"}
  }
}`

func engineWithProviders(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(EngineConfig{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.RegisterProvider("inference", func(ctx context.Context, p map[string]any) (any, error) {
		return map[string]any{"labeled": float64(2)}, nil
	}))
	must(e.RegisterProvider("mover", func(ctx context.Context, p map[string]any) (any, error) {
		return fmt.Sprintf("%v/%v:%v", p["dest"], p["file"], p["labeled"]), nil
	}))
	return e
}

func TestParseAndRunInferenceFlow(t *testing.T) {
	def, err := ParseDefinition([]byte(inferenceFlowJSON))
	if err != nil {
		t.Fatal(err)
	}
	e := engineWithProviders(t)
	run, err := e.Start(context.Background(), def, map[string]any{
		"file":   "a.nc",
		"outbox": "/scratch/outbox",
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := run.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if run.Status() != RunSucceeded {
		t.Fatalf("status %v", run.Status())
	}
	labels, ok := out["labels"].(map[string]any)
	if !ok || labels["labeled"] != float64(2) {
		t.Fatalf("labels = %#v", out["labels"])
	}
	if out["moved"] != "/scratch/outbox/a.nc:2" {
		t.Fatalf("moved = %v", out["moved"])
	}
	// The event log holds one entered event per visited state: Infer,
	// Move, Done.
	entered := 0
	for _, ev := range run.Events() {
		if ev.Kind == EventStateEntered {
			entered++
		}
	}
	if entered != 3 {
		t.Fatalf("entered %d states, want 3", entered)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := map[string]string{
		"no start":        `{"States": {"A": {"Type": "Succeed"}}}`,
		"bad start":       `{"StartAt": "X", "States": {"A": {"Type": "Succeed"}}}`,
		"bad next":        `{"StartAt": "A", "States": {"A": {"Type": "Action", "ActionProvider": "p", "Next": "Z"}, "B": {"Type": "Succeed"}}}`,
		"no terminal":     `{"StartAt": "A", "States": {"A": {"Type": "Action", "ActionProvider": "p", "Next": "A"}}}`,
		"no provider":     `{"StartAt": "A", "States": {"A": {"Type": "Action", "End": true}}}`,
		"dangling action": `{"StartAt": "A", "States": {"A": {"Type": "Action", "ActionProvider": "p"}}}`,
		"unknown type":    `{"StartAt": "A", "States": {"A": {"Type": "Banana", "End": true}}}`,
		"unknown field":   `{"StartAt": "A", "Bogus": 1, "States": {"A": {"Type": "Succeed"}}}`,
		// The engine runs Action and Succeed only; the rest of ASL is
		// rejected rather than half-run.
		"pass state":   `{"StartAt": "A", "States": {"A": {"Type": "Pass", "Next": "B"}, "B": {"Type": "Succeed"}}}`,
		"choice state": `{"StartAt": "A", "States": {"A": {"Type": "Choice", "Choices": [{"Variable": "$.x", "StringEquals": "a", "Next": "B"}]}, "B": {"Type": "Succeed"}}}`,
		"wait state":   `{"StartAt": "A", "States": {"A": {"Type": "Wait", "Seconds": 1, "Next": "B"}, "B": {"Type": "Succeed"}}}`,
	}
	for name, doc := range cases {
		if _, err := ParseDefinition([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestUnregisteredProviderRejectedAtStart(t *testing.T) {
	def, err := ParseDefinition([]byte(`{
		"StartAt": "A",
		"States": {"A": {"Type": "Action", "ActionProvider": "ghost", "End": true}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{})
	if _, err := e.Start(context.Background(), def, nil); err == nil {
		t.Fatal("ghost provider accepted")
	}
}

func TestFailStateAndProviderError(t *testing.T) {
	e := NewEngine(EngineConfig{})
	if err := e.RegisterProvider("bad", func(ctx context.Context, p map[string]any) (any, error) {
		return nil, errors.New("provider exploded")
	}); err != nil {
		t.Fatal(err)
	}
	def, err := ParseDefinition([]byte(`{
		"StartAt": "A",
		"States": {"A": {"Type": "Action", "ActionProvider": "bad", "End": true}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.Start(context.Background(), def, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Wait(context.Background()); err == nil {
		t.Fatal("provider error swallowed")
	}
	if run.Status() != RunFailed {
		t.Fatalf("status %v", run.Status())
	}

	// A Fail state is not part of the dialect: failure comes from a
	// provider, never from the definition.
	if _, err := ParseDefinition([]byte(`{
		"StartAt": "F",
		"States": {"F": {"Type": "Fail"}}
	}`)); err == nil || !strings.Contains(err.Error(), "unknown type") {
		t.Fatalf("fail state: %v", err)
	}
}

func TestCycleGuard(t *testing.T) {
	def, err := ParseDefinition([]byte(`{
		"StartAt": "A",
		"States": {
			"A": {"Type": "Action", "ActionProvider": "noop", "Next": "B"},
			"B": {"Type": "Action", "ActionProvider": "noop", "Next": "A"},
			"C": {"Type": "Succeed"}
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(EngineConfig{MaxTransitions: 50})
	if err := e.RegisterProvider("noop", func(ctx context.Context, p map[string]any) (any, error) {
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	run, err := e.Start(context.Background(), def, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Wait(context.Background()); err == nil {
		t.Fatal("cycle not caught")
	}
}

func TestParameterSubstitutionNested(t *testing.T) {
	e := NewEngine(EngineConfig{})
	var got map[string]any
	if err := e.RegisterProvider("probe", func(ctx context.Context, p map[string]any) (any, error) {
		got = p
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	def, err := ParseDefinition([]byte(`{
		"StartAt": "A",
		"States": {"A": {
			"Type": "Action",
			"ActionProvider": "probe",
			"Parameters": {
				"plain": "hello",
				"ref": "$.cfg.path",
				"nested": {"inner": "$.cfg.n"},
				"list": ["$.cfg.path", "x"]
			},
			"End": true
		}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.Start(context.Background(), def, map[string]any{
		"cfg": map[string]any{"path": "/data", "n": float64(7)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got["plain"] != "hello" || got["ref"] != "/data" {
		t.Fatalf("params = %#v", got)
	}
	if got["nested"].(map[string]any)["inner"] != float64(7) {
		t.Fatalf("nested = %#v", got["nested"])
	}
	if got["list"].([]any)[0] != "/data" {
		t.Fatalf("list = %#v", got["list"])
	}
}

func TestProviderPanicBecomesError(t *testing.T) {
	e := NewEngine(EngineConfig{})
	if err := e.RegisterProvider("explode", func(ctx context.Context, p map[string]any) (any, error) {
		panic("provider bug")
	}); err != nil {
		t.Fatal(err)
	}
	def, _ := ParseDefinition([]byte(`{
		"StartAt": "A",
		"States": {"A": {"Type": "Action", "ActionProvider": "explode", "End": true}}
	}`))
	run, err := e.Start(context.Background(), def, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Wait(context.Background()); err == nil {
		t.Fatal("panic swallowed")
	}
}

func TestConcurrentRunsIsolated(t *testing.T) {
	e := NewEngine(EngineConfig{})
	var counter int64
	if err := e.RegisterProvider("count", func(ctx context.Context, p map[string]any) (any, error) {
		return atomic.AddInt64(&counter, 1), nil
	}); err != nil {
		t.Fatal(err)
	}
	def, _ := ParseDefinition([]byte(`{
		"StartAt": "A",
		"States": {"A": {"Type": "Action", "ActionProvider": "count", "ResultPath": "$.n", "End": true}}
	}`))
	runs := make([]*Run, 10)
	for i := range runs {
		r, err := e.Start(context.Background(), def, map[string]any{"run": fmt.Sprint(i)})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}
	seen := map[float64]bool{}
	for _, r := range runs {
		out, err := r.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		n, ok := out["n"].(int64)
		if !ok {
			// Provider returned int64; engine stores it untyped.
			t.Fatalf("n = %#v", out["n"])
		}
		if seen[float64(n)] {
			t.Fatal("runs shared state")
		}
		seen[float64(n)] = true
	}
	if atomic.LoadInt64(&counter) != 10 {
		t.Fatalf("provider ran %d times", counter)
	}
}

// TestRetryCatchValidation pins that the ASL Retry and Catch fields are
// rejected: a definition asking for either would otherwise parse and
// then silently run without them.
func TestRetryCatchValidation(t *testing.T) {
	cases := map[string]string{
		"retry": `{"StartAt": "A", "States": {"A": {
			"Type": "Action", "ActionProvider": "p", "Retry": {"MaxAttempts": 3}, "End": true}}}`,
		"catch": `{"StartAt": "A", "States": {"A": {
			"Type": "Action", "ActionProvider": "p", "Catch": {"Next": "A"}, "End": true}}}`,
	}
	for name, doc := range cases {
		if _, err := ParseDefinition([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
