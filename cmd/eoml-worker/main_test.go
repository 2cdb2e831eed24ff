package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/eoml/eoml/internal/fleet"
)

// TestMetricsAddrServesCacheSeries: a worker started with -metrics-addr
// serves its download-cache series on /metrics while it is registered.
func TestMetricsAddrServesCacheSeries(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{})
	cp := httptest.NewServer(coord.Handler())
	defer func() {
		coord.Close()
		cp.Close()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{
			"-coordinator", cp.URL, "-id", "metrics-worker",
			"-cache-dir", t.TempDir(), "-metrics-addr", "127.0.0.1:0",
		}, pw)
		pw.Close()
		done <- err
	}()

	var metricsURL string
	lines := bufio.NewScanner(pr)
	for lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "eoml-worker: serving /metrics on "); ok {
			metricsURL = rest + "/metrics"
		}
		if strings.Contains(lines.Text(), "registered with") {
			break
		}
	}
	go io.Copy(io.Discard, pr)
	if metricsURL == "" {
		t.Fatalf("worker never reported its metrics address (run: %v)", <-done)
	}

	resp, err := http.Get(metricsURL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d, %v", metricsURL, resp.StatusCode, err)
	}
	for _, want := range []string{`eoml_fleet_cache_hits_total{cache="download"}`, "eoml_fleet_prefetch_inflight"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("scrape lacks %s:\n%s", want, body)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := len(coord.Workers()); n != 0 {
		t.Fatalf("%d workers still registered after the drain", n)
	}
}
