package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readResults loads a file of result lines (written by -out) into
// workload → metric → one value per run. Traced and untraced runs carry
// disjoint metric names, so they share the map.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	for dec := json.NewDecoder(f); dec.More(); {
		var res result
		if err := dec.Decode(&res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[res.Workload] == nil {
			out[res.Workload] = map[string][]float64{}
		}
		for name, v := range res.Metrics {
			out[res.Workload][name] = append(out[res.Workload][name], v.Value)
		}
	}
	return out, nil
}

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound: the row decides nothing
	verdictInfo       = "-"          // per-layer metric: reported, never gated
)

// judge applies a metric's bound to the medians of a baseline (a) and a
// candidate (b) set of runs.
func judge(spec metricSpec, a, b []float64) (ratio float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		ratio = mb / ma
	}
	if spec.Bound <= 0 {
		return ratio, verdictInfo
	}
	if spread(a) > spec.Bound || spread(b) > spec.Bound {
		return ratio, verdictUnresolved
	}
	worse := mb > ma*(1+spec.Bound)
	if spec.Better == "higher" {
		worse = mb < ma*(1-spec.Bound)
	}
	if worse {
		return ratio, verdictRegressed
	}
	return ratio, verdictOK
}

// compareFiles prints one row per (metric, workload) present in both
// files and returns the process exit code: 1 when any end-to-end metric
// regressed.
func compareFiles(specPath, pathA, pathB string) int {
	spec, err := readBenchmarkFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	counts := map[string]int{}
	fmt.Printf("%-20s %-28s %-6s %12s %12s %18s %7s %7s %6s  %s\n",
		"workload", "metric", "unit", "median a", "median b", "ratio b/a (base a)", "iqr a", "iqr b", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, verdict := judge(m, va, vb)
			counts[verdict]++
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.2f", m.Bound)
			}
			fmt.Printf("%-20s %-28s %-6s %12.4f %12.4f %18.4f %7.3f %7.3f %6s  %s\n",
				w.Name, m.Name, m.Unit, median(va), median(vb), ratio, spread(va), spread(vb), bound, verdict)
		}
	}
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k != verdictInfo {
			fmt.Printf("%s: %d\n", k, counts[k])
		}
	}
	if counts[verdictRegressed] > 0 {
		return 1
	}
	return 0
}
