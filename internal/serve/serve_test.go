package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/core"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/pipereg"
	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/serve"
	"github.com/eoml/eoml/internal/tile"
)

const testScale = 64 // tiny granules; tile edge 4 px

// productiveGranules returns day-side granule indices yielding at least
// minTiles ocean-cloud tiles at the test scale.
func productiveGranules(t *testing.T, want, minTiles int) []int {
	t.Helper()
	gen, err := modis.NewGenerator(testScale)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for idx := 0; idx < modis.GranulesPerDay && len(out) < want; idx++ {
		g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: idx}
		mod02, err := gen.Generate(modis.MOD021KM, g)
		if err != nil {
			t.Fatal(err)
		}
		if flag, _ := mod02.AttrString("DayNightFlag"); flag != "Day" {
			continue
		}
		mod03, _ := gen.Generate(modis.MOD03, g)
		mod06, _ := gen.Generate(modis.MOD06L2, g)
		res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tiles) >= minTiles {
			out = append(out, idx)
		}
	}
	if len(out) < want {
		t.Fatalf("found only %d productive granules", len(out))
	}
	return out
}

// trainLabeler builds a tiny labeler from one granule's tiles.
func trainLabeler(t *testing.T, granuleIdx int) *aicca.Labeler {
	t.Helper()
	gen, _ := modis.NewGenerator(testScale)
	g := modis.GranuleID{Satellite: modis.Terra, Year: 2022, DOY: 1, Index: granuleIdx}
	mod02, _ := gen.Generate(modis.MOD021KM, g)
	mod03, _ := gen.Generate(modis.MOD03, g)
	mod06, _ := gen.Generate(modis.MOD06L2, g)
	res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ricc.Config{
		TileSize: 4, Channels: 6, LatentDim: 8, Beta: 0.3,
		LR: 2e-3, Epochs: 2, BatchSize: 16, Rotations: 1, Seed: 5,
	}
	k := 4
	if len(res.Tiles) < 8 {
		k = 2
	}
	labeler, _, err := aicca.Train(res.Tiles, cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	return labeler
}

func newArchive(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := laads.NewServer(laads.ServerConfig{ScaleDown: testScale, Token: "test-token"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// configYAML renders a run config for one granule with per-call
// directories (two runs must never share a tile or outbox dir).
func configYAML(t *testing.T, archiveURL string, granule int, model, codebook string) string {
	t.Helper()
	root := t.TempDir()
	var b strings.Builder
	fmt.Fprintf(&b, "satellite: Terra\nyear: 2022\ndoy: 1\ngranules: [%d]\n", granule)
	fmt.Fprintf(&b, "archive:\n  url: %s\n  token: test-token\n", archiveURL)
	fmt.Fprintf(&b, "paths:\n  data: %s\n  tiles: %s\n  outbox: %s\n  dest: %s\n",
		filepath.Join(root, "data"), filepath.Join(root, "tiles"),
		filepath.Join(root, "outbox"), filepath.Join(root, "dest"))
	b.WriteString("workers:\n  download: 3\n  preprocess: 4\ntile:\n  pixels: 4\npoll_interval_ms: 10\n")
	if model != "" {
		fmt.Fprintf(&b, "model:\n  weights: %s\n  codebook: %s\n", model, codebook)
	}
	return b.String()
}

// submitRun POSTs a config and returns the accepted run view.
func submitRun(t *testing.T, ts *httptest.Server, yaml, tenant string) pipereg.RunRecord {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/runs", strings.NewReader(yaml))
	if tenant != "" {
		req.Header.Set(serve.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec pipereg.RunRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d (%+v)", resp.StatusCode, rec)
	}
	if rec.ID == "" {
		t.Fatal("submit returned no run ID")
	}
	return rec
}

// pollUntilTerminal polls GET /runs/{id} until the run finishes.
func pollUntilTerminal(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/api/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view map[string]any
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		state := pipereg.RunState(view["state"].(string))
		if state.Terminal() {
			return view
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("run %s never reached a terminal state", id)
	return nil
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// TestServeSmoke is the end-to-end control-plane exercise `make
// serve-smoke` runs: model artifacts on disk, a real archive, a real
// listener; submit a run over HTTP naming the artifacts, poll it to
// success, and scrape both metric surfaces.
func TestServeSmoke(t *testing.T) {
	granules := productiveGranules(t, 1, 3)
	labeler := trainLabeler(t, granules[0])
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	cbPath := filepath.Join(dir, "codebook.bin")
	if err := labeler.Model.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	if err := labeler.Codebook.Save(cbPath); err != nil {
		t.Fatal(err)
	}
	archive := newArchive(t)

	eng := core.NewEngine(core.EngineOptions{Quotas: laads.NewQuotaPool(10_000, 64)})
	ts := httptest.NewServer(serve.New(eng, serve.Options{}))
	defer ts.Close()

	rec := submitRun(t, ts, configYAML(t, archive.URL, granules[0], modelPath, cbPath), "smoke")
	view := pollUntilTerminal(t, ts, rec.ID)
	if view["state"] != string(pipereg.StateSucceeded) {
		t.Fatalf("run finished %v: %v", view["state"], view["error"])
	}
	summary, _ := view["summary"].(string)
	if !strings.Contains(summary, "granules=1") || !strings.Contains(summary, "shipped=1") {
		t.Fatalf("summary = %q", summary)
	}

	// Per-run scrape: every series carries this run's labels.
	status, body := getBody(t, ts.URL+"/api/v1/runs/"+rec.ID+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("run metrics status = %d", status)
	}
	if !strings.Contains(body, `run="`+rec.ID+`"`) || !strings.Contains(body, `tenant="smoke"`) {
		t.Fatalf("run metrics missing run/tenant labels:\n%.400s", body)
	}
	if err := metrics.ValidatePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("run exposition invalid: %v", err)
	}

	// Aggregate scrape: control-plane series plus the run's series, one
	// valid exposition.
	status, body = getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("aggregate metrics status = %d", status)
	}
	for _, want := range []string{"eoml_serve_runs_submitted_total 1", "eoml_laads_quota_wait_seconds", `run="` + rec.ID + `"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("aggregate metrics missing %q:\n%.400s", want, body)
		}
	}
	if err := metrics.ValidatePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("aggregate exposition invalid: %v", err)
	}

	status, body = getBody(t, ts.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(body, `"status": "ok"`) {
		t.Fatalf("healthz = %d %s", status, body)
	}
}

// TestServeTwoConcurrentRuns submits two runs back to back and verifies
// full isolation: both succeed, and each run's scrape carries only its
// own run label.
func TestServeTwoConcurrentRuns(t *testing.T) {
	granules := productiveGranules(t, 2, 3)
	labeler := trainLabeler(t, granules[0])
	archive := newArchive(t)
	eng := core.NewEngine(core.EngineOptions{Labeler: labeler})
	ts := httptest.NewServer(serve.New(eng, serve.Options{MaxConcurrentRuns: 2}))
	defer ts.Close()

	a := submitRun(t, ts, configYAML(t, archive.URL, granules[0], "", ""), "acme")
	b := submitRun(t, ts, configYAML(t, archive.URL, granules[1], "", ""), "umbrella")
	if a.ID == b.ID {
		t.Fatal("two submissions share an ID")
	}
	for _, id := range []string{a.ID, b.ID} {
		view := pollUntilTerminal(t, ts, id)
		if view["state"] != string(pipereg.StateSucceeded) {
			t.Fatalf("run %s finished %v: %v", id, view["state"], view["error"])
		}
	}
	_, bodyA := getBody(t, ts.URL+"/api/v1/runs/"+a.ID+"/metrics")
	_, bodyB := getBody(t, ts.URL+"/api/v1/runs/"+b.ID+"/metrics")
	if strings.Contains(bodyA, `run="`+b.ID+`"`) || strings.Contains(bodyB, `run="`+a.ID+`"`) {
		t.Fatal("a run's scrape leaked the other run's series")
	}
	if !strings.Contains(bodyA, `tenant="acme"`) || !strings.Contains(bodyB, `tenant="umbrella"`) {
		t.Fatal("tenant labels missing from per-run scrapes")
	}

	// The list endpoint shows both runs in submission order.
	_, listBody := getBody(t, ts.URL+"/api/v1/runs")
	if !strings.Contains(listBody, a.ID) || !strings.Contains(listBody, b.ID) {
		t.Fatalf("list missing runs:\n%s", listBody)
	}
}

// TestServeCancelMidRun starts a run whose downloads are throttled to a
// crawl by its tenant quota, cancels it over HTTP mid-flight, and
// verifies it lands in the canceled state.
func TestServeCancelMidRun(t *testing.T) {
	granules := productiveGranules(t, 1, 3)
	labeler := trainLabeler(t, granules[0])
	archive := newArchive(t)
	// One token up front, then one request per 100 seconds: the run's
	// granule task blocks inside Quota.Acquire until canceled.
	eng := core.NewEngine(core.EngineOptions{Labeler: labeler, Quotas: laads.NewQuotaPool(0.01, 1)})
	ts := httptest.NewServer(serve.New(eng, serve.Options{}))
	defer ts.Close()

	rec := submitRun(t, ts, configYAML(t, archive.URL, granules[0], "", ""), "slow")
	// Wait until the run is actually executing before canceling.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/api/v1/runs/" + rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		var view map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if view["state"] == string(pipereg.StateRunning) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run stuck in %v", view["state"])
		}
		time.Sleep(10 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/runs/"+rec.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	view := pollUntilTerminal(t, ts, rec.ID)
	if view["state"] != string(pipereg.StateCanceled) && view["state"] != string(pipereg.StateFailed) {
		t.Fatalf("canceled run finished %v", view["state"])
	}
	// A second cancel of a terminal run is refused.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/runs/"+rec.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second cancel status = %d, want conflict", resp.StatusCode)
	}
}

// TestServeEvictionDropsRunSeries runs three campaigns through a
// server retaining one terminal run: the evicted runs must disappear
// from the list, the API, and the aggregate scrape — the reference
// release that keeps per-run registries GC-able.
func TestServeEvictionDropsRunSeries(t *testing.T) {
	granules := productiveGranules(t, 1, 3)
	labeler := trainLabeler(t, granules[0])
	archive := newArchive(t)
	eng := core.NewEngine(core.EngineOptions{Labeler: labeler})
	ts := httptest.NewServer(serve.New(eng, serve.Options{RetainRuns: 1}))
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		rec := submitRun(t, ts, configYAML(t, archive.URL, granules[0], "", ""), "")
		view := pollUntilTerminal(t, ts, rec.ID)
		if view["state"] != string(pipereg.StateSucceeded) {
			t.Fatalf("run %d finished %v: %v", i, view["state"], view["error"])
		}
		ids = append(ids, rec.ID)
	}
	if status, _ := getBody(t, ts.URL+"/api/v1/runs/"+ids[0]); status != http.StatusNotFound {
		t.Fatalf("evicted run still served: status %d", status)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	if strings.Contains(body, `run="`+ids[0]+`"`) {
		t.Fatal("aggregate scrape still carries an evicted run's series")
	}
	if !strings.Contains(body, `run="`+ids[2]+`"`) {
		t.Fatal("aggregate scrape lost the retained run's series")
	}
	// Control-plane counters survive eviction — they live on the
	// server's own registry, not any run's.
	if !strings.Contains(body, "eoml_serve_runs_submitted_total 3") {
		t.Fatalf("submission counter wrong:\n%.300s", body)
	}
}

// TestServeRejectsBadConfig covers the submission guardrails.
func TestServeRejectsBadConfig(t *testing.T) {
	labeler := trainLabeler(t, productiveGranules(t, 1, 3)[0])
	eng := core.NewEngine(core.EngineOptions{Labeler: labeler})
	ts := httptest.NewServer(serve.New(eng, serve.Options{}))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/yaml", strings.NewReader("year: [not an int\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad config status = %d", resp.StatusCode)
	}
	if status, _ := getBody(t, ts.URL+"/api/v1/runs/run-999999"); status != http.StatusNotFound {
		t.Fatalf("unknown run status = %d", status)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, "eoml_serve_runs_rejected_total 1") {
		t.Fatalf("rejection counter missing:\n%.300s", body)
	}
}

// TestServeRunsQueueBeyondLimit submits more runs than the concurrency
// bound and verifies they all eventually succeed (queued as pending,
// never dropped).
func TestServeRunsQueueBeyondLimit(t *testing.T) {
	granules := productiveGranules(t, 1, 3)
	labeler := trainLabeler(t, granules[0])
	archive := newArchive(t)
	eng := core.NewEngine(core.EngineOptions{Labeler: labeler})
	ts := httptest.NewServer(serve.New(eng, serve.Options{MaxConcurrentRuns: 1, RetainRuns: 8}))
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitRun(t, ts, configYAML(t, archive.URL, granules[0], "", ""), "").ID)
	}
	for _, id := range ids {
		view := pollUntilTerminal(t, ts, id)
		if view["state"] != string(pipereg.StateSucceeded) {
			t.Fatalf("run %s finished %v: %v", id, view["state"], view["error"])
		}
	}
}
