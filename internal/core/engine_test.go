package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/metrics"
)

// TestEngineConcurrentRunsIsolated is the tentpole acceptance test: one
// engine, two runs executing at the same time, and afterwards each
// run's report and metric series must be fully its own — disjoint
// run="<id>" label values, per-run counts matching per-run reports.
func TestEngineConcurrentRunsIsolated(t *testing.T) {
	granules := findProductiveGranules(t, 2, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	eng := NewEngine(EngineOptions{
		Labeler: labeler,
		Quotas:  laads.NewQuotaPool(10_000, 64), // generous: shaping is exercised elsewhere
	})

	runs := make([]*Run, 2)
	for i := range runs {
		cfg := testConfig(t, ts.URL, granules[i:i+1])
		r, err := eng.NewRun(cfg, RunOptions{ID: fmt.Sprintf("run-%d", i), Tenant: "acme"})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}

	reports := make([]*Report, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, r := range runs {
		i, r := i, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], errs[i] = r.Run(context.Background())
		}()
	}
	wg.Wait()

	for i := range runs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if reports[i].TilesProduced == 0 || reports[i].TilesLabeled != reports[i].TilesProduced {
			t.Fatalf("run %d labeled %d of %d tiles", i, reports[i].TilesLabeled, reports[i].TilesProduced)
		}
		if reports[i].FilesShipped != 1 {
			t.Fatalf("run %d shipped %d files, want 1", i, reports[i].FilesShipped)
		}
	}

	// Every series a run emits must carry exactly that run's identity.
	for i, r := range runs {
		wantRun := fmt.Sprintf("run-%d", i)
		for _, fam := range r.Metrics().Snapshot() {
			for _, s := range fam.Series {
				got := map[string]string{}
				for _, l := range s.Labels {
					got[l.Key] = l.Value
				}
				if got["run"] != wantRun || got["tenant"] != "acme" {
					t.Fatalf("run %d series %s has labels %v", i, fam.Name, s.Labels)
				}
			}
		}
	}

	// The per-run shipped-file counters must match the per-run reports,
	// not the aggregate — the isolation the old global registry lost.
	for i, r := range runs {
		found := false
		for _, fam := range r.Metrics().Snapshot() {
			if fam.Name != "eoml_stage_events_total" {
				continue
			}
			for _, s := range fam.Series {
				stageLbl, dirLbl := "", ""
				for _, l := range s.Labels {
					switch l.Key {
					case "stage":
						stageLbl = l.Value
					case "dir":
						dirLbl = l.Value
					}
				}
				if stageLbl == "download" && dirLbl == "out" {
					found = true
					if s.Value != float64(reports[i].FilesDownloaded) {
						t.Fatalf("run %d download-out series = %v, report says %d",
							i, s.Value, reports[i].FilesDownloaded)
					}
				}
			}
		}
		if !found {
			t.Fatalf("run %d has no download event series", i)
		}
	}

	// Merging the two run registries must still be a valid exposition.
	merged := metrics.MergeFamilies(runs[0].Metrics().Snapshot(), runs[1].Metrics().Snapshot())
	var buf bytes.Buffer
	if err := metrics.WriteFamilies(&buf, merged); err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidatePrometheus(&buf); err != nil {
		t.Fatalf("merged exposition invalid: %v", err)
	}
}

// TestEngineSharesModelWeights verifies the engine's artifact-keyed
// labeler cache: two runs naming the same model/codebook paths must
// share one in-memory labeler.
func TestEngineSharesModelWeights(t *testing.T) {
	granules := findProductiveGranules(t, 1, 3)
	labeler := trainTestLabeler(t, granules[0])
	dir := t.TempDir()
	modelPath, cbPath := dir+"/model.bin", dir+"/codebook.bin"
	if err := labeler.Model.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	if err := labeler.Codebook.Save(cbPath); err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(EngineOptions{})
	cfg := testConfig(t, "http://unused", granules)
	cfg.ModelPath, cfg.CodebookPath = modelPath, cbPath
	a, err := eng.NewRun(cfg, RunOptions{ID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.NewRun(cfg, RunOptions{ID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if a.labeler != b.labeler {
		t.Fatal("same artifacts loaded twice instead of shared")
	}

	// And with no engine labeler and no artifacts, NewRun must refuse.
	plain := testConfig(t, "http://unused", granules)
	if _, err := eng.NewRun(plain, RunOptions{}); err == nil {
		t.Fatal("run with no labeler source was accepted")
	}
}

// TestEngineTenantQuotaShared verifies two runs of one tenant draw from
// the same token bucket while a different tenant gets its own.
func TestEngineTenantQuotaShared(t *testing.T) {
	granules := findProductiveGranules(t, 1, 3)
	labeler := trainTestLabeler(t, granules[0])
	eng := NewEngine(EngineOptions{Labeler: labeler, Quotas: laads.NewQuotaPool(100, 8)})
	cfg := testConfig(t, "http://unused", granules)
	a, _ := eng.NewRun(cfg, RunOptions{ID: "a", Tenant: "acme"})
	b, _ := eng.NewRun(cfg, RunOptions{ID: "b", Tenant: "acme"})
	c, _ := eng.NewRun(cfg, RunOptions{ID: "c", Tenant: "umbrella"})
	if a.quota != b.quota {
		t.Fatal("same tenant's runs got distinct quotas")
	}
	if a.quota == c.quota {
		t.Fatal("distinct tenants share a quota")
	}
}

// TestLocalRunFetchesThroughTenantQuota: a local run's granule tasks
// fetch through the run's own archive client, so every archive request
// waits on the run's tenant quota and is counted on the run's registry.
func TestLocalRunFetchesThroughTenantQuota(t *testing.T) {
	granules := findProductiveGranules(t, 2, 3)
	labeler := trainTestLabeler(t, granules[0])
	ts := newArchive(t)
	quotaReg := metrics.NewRegistry()
	pool := laads.NewQuotaPool(10_000, 64) // generous: only the accounting is under test
	pool.Instrument(quotaReg)
	eng := NewEngine(EngineOptions{Labeler: labeler, Quotas: pool})
	run, err := eng.NewRun(testConfig(t, ts.URL, granules), RunOptions{ID: "q", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := 3 * len(granules)
	var waits int64 = -1
	for _, fam := range quotaReg.Snapshot() {
		if fam.Name != "eoml_laads_quota_wait_seconds" {
			continue
		}
		for _, s := range fam.Series {
			if len(s.Labels) == 1 && s.Labels[0] == metrics.L("tenant", "acme") {
				waits = s.Histogram.Count
			}
		}
	}
	if waits != int64(want) {
		t.Fatalf("tenant acme quota waits = %d, want %d (3 per granule)", waits, want)
	}
	var requests float64 = -1
	for _, fam := range run.Metrics().Snapshot() {
		if fam.Name == "eoml_laads_client_requests_total" && len(fam.Series) == 1 {
			requests = fam.Series[0].Value
		}
	}
	if requests != float64(want) {
		t.Fatalf("run registry counts %v archive requests, want %d", requests, want)
	}
}
