// Command benchmarks is the repository's granule benchmark: four
// workloads (batch, stream, fleet cold, fleet warm) driven against the
// real pipeline from one process over loopback, with end-to-end metrics
// from untraced runs and an outside-in per-layer ledger from a separate
// traced pass. See README.md in this directory.
//
//	bash benchmarks/run.sh --workload campaign_local --seed 1 --seconds 16 --trace 0
//	bash benchmarks/run.sh --workload all --out results.jsonl
//	bash benchmarks/run.sh -compare a.jsonl b.jsonl
//	bash benchmarks/run.sh -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/eoml/eoml/internal/tensor"
)

const (
	buildDir = ".bench_build" // everything the benchmark writes lives under it
	// setupRepeats is how many times an untraced run builds the shared
	// inputs; setup_s reports the median, so one slow set-up does not
	// read as a regression.
	setupRepeats = 3
	// hardDeadline ends a run that somehow outlived every per-stage
	// deadline, naming where it was.
	hardDeadline = 170 * time.Second
)

// metricValue is one reported number. The quartiles and sample count are
// for human readers and -compare; the harness reads value and unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`  // samples behind the value
	Q1    float64 `json:"q1,omitempty"` // quartiles of those samples
	Q3    float64 `json:"q3,omitempty"`
}

// header records what produced a result, so numbers are never compared
// across hosts by accident.
type header struct {
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	AVX2       bool   `json:"avx2"`
	Commit     string `json:"commit"`
}

// result is one run of one workload.
type result struct {
	Header    header                 `json:"header"`
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stageNow is what the run is doing, for the watchdog's last words.
var stageNow atomic.Value

func note(stage string) { stageNow.Store(stage) }

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "input seed: picks the day and the granules")
	seconds := flag.Int("seconds", 16, "how long the timed loop measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from the traced pass")
	out := flag.String("out", "", "append each result as one JSON line to this file (input to -compare)")
	list := flag.Bool("list", false, "print the workload and metric names and exit")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	spec := flag.String("spec", "BENCHMARK.json", "bounds for -compare")
	flag.Parse()

	switch {
	case *list:
		printList()
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(*spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "seconds must be positive and trace 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	} else if !isWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "unknown workload %q; -list prints the names\n", *workload)
		return 2
	}

	// One temp root for everything, removed on every exit path.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	root, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if root, err = filepath.Abs(root); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(root)
	// Library code that asks for a temp file gets one inside the root.
	os.Setenv("TMPDIR", root)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hdr := header{
		Seed: *seed, Seconds: *seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), AVX2: tensor.SIMDEnabled(), Commit: commit(),
	}
	fmt.Printf("# seed=%d seconds=%d nproc=%d gomaxprocs=%d go=%s avx2=%v commit=%s\n",
		hdr.Seed, hdr.Seconds, hdr.NProc, hdr.GOMAXPROCS, hdr.GoVersion, hdr.AVX2, hdr.Commit)

	ok := true
	for i, name := range names {
		// The watchdog covers one workload; each gets the full budget.
		note(name + ": starting")
		watchdog := time.AfterFunc(hardDeadline, func() {
			fmt.Fprintf(os.Stderr, "benchmark hung after %s in %v\n", hardDeadline, stageNow.Load())
			os.RemoveAll(root)
			os.Exit(3)
		})
		res, err := runWorkload(ctx, name, hdr, *trace == 1, filepath.Join(root, fmt.Sprintf("w%d", i)))
		watchdog.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed in %v: %v\n", name, stageNow.Load(), err)
			return 1 // no result line: the run measured nothing usable
		}
		printResult(res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		// The harness reads the last line of standard output.
		line, _ := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, stripDetail(res.Metrics)})
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		return 1
	}
	return 0
}

// commit names the source revision: the VCS stamp when the build has
// one, else "unknown" (a harness checkout is not a git repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// stripDetail keeps exactly value and unit, the keys the harness expects.
func stripDetail(m map[string]metricValue) map[string]metricValue {
	out := make(map[string]metricValue, len(m))
	for k, v := range m {
		out[k] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	return out
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

func printList() {
	for _, w := range workloadSpecs {
		fmt.Printf("workload %s\n", w.Name)
	}
	for _, m := range endToEndSpecs {
		fmt.Printf("end_to_end %s %s %s %g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	for _, m := range perLayerSpecs {
		fmt.Printf("per_layer %s %s %s\n", m.Name, m.Unit, m.Better)
	}
}

// printResult prints every metric by name with unit and sample count;
// end-to-end metrics also show the quartiles of their samples and their
// bound.
func printResult(res *result) {
	fmt.Printf("## %s traced=%v attempted=%d failed=%d failed_share=%.4f correct=%v\n",
		res.Workload, res.Traced, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.Correct)
	if res.Traced {
		fmt.Printf("%-30s %14s %-6s %5s\n", "metric", "value", "unit", "n")
		for _, sp := range perLayerSpecs {
			v := res.Metrics[sp.Name]
			fmt.Printf("%-30s %14.4f %-6s %5d\n", sp.Name, v.Value, sp.Unit, v.N)
		}
		return
	}
	fmt.Printf("%-30s %14s %-6s %5s %14s %14s %6s\n", "metric", "value", "unit", "n", "q1", "q3", "bound")
	for _, sp := range endToEndSpecs {
		v := res.Metrics[sp.Name]
		fmt.Printf("%-30s %14.4f %-6s %5d %14.4f %14.4f %6.2f\n", sp.Name, v.Value, sp.Unit, v.N, v.Q1, v.Q3, sp.Bound)
	}
}

// runWorkload is one run: set-up, warm-up, the timed loop, and (traced)
// the layer walk and probes.
func runWorkload(ctx context.Context, name string, hdr header, traced bool, root string) (*result, error) {
	// The local workloads and the layer walk read through the plain
	// archive; the fleet workloads only ever touch the shaped one.
	fetchPlain := traced || name == wlCampaignLocal || name == wlStreamLocal
	repeats := setupRepeats
	if traced {
		repeats = 1 // setup_s is an end-to-end metric
	}
	in, setups, err := setUp(ctx, name, hdr.Seed, root, repeats, fetchPlain)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()

	res := &result{Header: hdr, Workload: name, Traced: traced, Metrics: map[string]metricValue{}}
	r := &runner{name: name, in: in, root: root}
	defer r.close()

	layer := ledger{}
	if traced {
		r.tracer = newTracer()
		r.note("layer walk")
		walk, tileDir, err := walkLayers(ctx, r.tracer, in, root)
		if err != nil {
			return nil, err
		}
		r.note("orchestration probes")
		orch, err := probeOrchestration(ctx, in, tileDir, root)
		if err != nil {
			return nil, err
		}
		r.note("fleet probes")
		flt, err := probeFleet(ctx, in, root)
		if err != nil {
			return nil, err
		}
		for _, m := range []ledger{walk, orch, flt} {
			for k, v := range m {
				layer[k] = v
			}
		}
	}

	warmStart := time.Now()
	if err := r.prepare(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	warm := time.Since(warmStart).Seconds()

	requestsBefore, _ := in.shaped.srv.Stats()
	seconds := float64(hdr.Seconds)
	if traced {
		seconds /= 2 // the walk and probes took the other half
	}
	m, err := measure(ctx, r, seconds, traced)
	if err != nil {
		return nil, err
	}
	requestsAfter, _ := in.shaped.srv.Stats()

	res.Correct = true
	// One value per timed campaign: its throughput, and the median and
	// 95th percentile of its granules' latencies.
	var perSecond, p50s, p95s, late []float64
	for _, s := range append(append([]sample(nil), m.untraced...), m.traced...) {
		res.Attempted += s.granules
		res.Failed += len(s.failures)
		for _, f := range s.failures {
			fmt.Fprintf(os.Stderr, "%s: FAILED %v\n", name, f)
		}
	}
	for _, s := range m.untraced {
		perSecond = append(perSecond, float64(s.granules)/s.wall.Seconds())
		if len(s.latencies) > 0 {
			lat := make([]float64, len(s.latencies))
			for i, l := range s.latencies {
				lat[i] = millis(l)
			}
			p50s = append(p50s, median(lat))
			p95s = append(p95s, percentile(lat, 95))
		}
		for _, l := range s.late {
			late = append(late, millis(l))
		}
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if name == wlFleetWarm && requestsAfter != requestsBefore {
		fmt.Fprintf(os.Stderr, "%s: FAILED warm campaigns made %d archive requests, want 0\n", name, requestsAfter-requestsBefore)
		res.Correct = false
	}
	lateP95 := percentile(late, 95)
	if lateP95 > millis(maxLateP95) {
		fmt.Fprintf(os.Stderr, "%s: FAILED generator ran %.2f ms late at p95, limit %v\n", name, lateP95, maxLateP95)
		res.Correct = false
	}

	if !traced {
		put := func(spec metricSpec, value float64, samples []float64) {
			q1, _, q3 := quartiles(samples)
			res.Metrics[spec.Name] = metricValue{Value: value, Unit: spec.Unit, N: len(samples), Q1: q1, Q3: q3}
		}
		// Medians over campaigns, not percentiles of one pooled sample:
		// interference on this class of host arrives as bursts that slow
		// a minority of campaigns, and a pooled percentile moves with
		// the share of slow campaigns where the median campaign does not.
		put(endToEndSpecs[0], median(perSecond), perSecond)
		put(endToEndSpecs[1], median(p50s), p50s)
		put(endToEndSpecs[2], median(p95s), p95s)
		// Shared set-up (median of the repeats) plus this workload's
		// warm-up, which ran once.
		put(endToEndSpecs[3], median(setups)+warm, setups)
		fmt.Printf("# %s: doy=%d tiles=%d campaigns=%d gen_late_ms_p95=%.3f warmup_s=%.3f\n",
			name, in.doy, in.tiles(), len(m.untraced), lateP95, warm)
		return res, nil
	}

	campaignLedger(layer, r, m, lateP95)
	for _, sp := range perLayerSpecs {
		res.Metrics[sp.Name] = metricValue{Value: layer[sp.Name].value, Unit: sp.Unit, N: layer[sp.Name].n}
	}
	spans := filepath.Join(buildDir, "spans-"+name+".json")
	if err := r.tracer.writeTo(spans); err != nil {
		return nil, err
	}
	fmt.Printf("# %s: %d spans written to %s\n", name, len(r.tracer.spans), spans)
	return res, nil
}

// setUp builds the shared inputs repeats times, keeping the last build
// and every build's duration.
func setUp(ctx context.Context, name string, seed int64, root string, repeats int, fetchPlain bool) (*inputs, []float64, error) {
	var in *inputs
	var seconds []float64
	for i := 0; i < repeats; i++ {
		note(fmt.Sprintf("%s: set-up %d of %d", name, i+1, repeats))
		if in != nil {
			in.close()
			if err := os.RemoveAll(in.root); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if in, err = buildInputs(ctx, seed, filepath.Join(root, fmt.Sprintf("setup-%d", i)), fetchPlain); err != nil {
			return nil, nil, err
		}
		seconds = append(seconds, time.Since(start).Seconds())
	}
	return in, seconds, nil
}

// campaignLedger folds the traced campaigns into the per-layer table:
// medians over campaigns of what each run reported about itself.
func campaignLedger(layer ledger, r *runner, m measured, lateP95 float64) {
	set := func(name string, value float64) { layer.set(name, value, len(m.traced)) }
	med := func(pick func(*campaignTrace) float64) float64 {
		var v []float64
		for _, s := range m.traced {
			v = append(v, pick(s.trace))
		}
		return median(v)
	}
	n := float64(campaignGranules)
	for _, st := range []string{"download", "preprocess", "inference", "shipment"} {
		st := st
		set("stage."+st+"_s", med(func(t *campaignTrace) float64 { return t.stageSeconds[st] }))
	}
	wall := med(func(t *campaignTrace) float64 { return t.wallSeconds })
	set("core.wall_s", wall)
	// Share of the run's two workers' time that the serial layer costs
	// account for; the rest is waiting, polling and dispatch. A fleet
	// worker pays the download inside its lease, a local run before
	// preprocessing starts: both count it.
	set("core.busy_share", walkSerialMs(layer, true)/1000*n/(wall*poolSize))
	set("core.alloc_mb_per_granule", med(func(t *campaignTrace) float64 { return t.allocMB })/n)
	set("core.gc_pause_ms", med(func(t *campaignTrace) float64 { return t.gcPauseMs }))
	set("laads.requests_per_granule", med(func(t *campaignTrace) float64 { return float64(t.requests) })/n)
	set("laads.mb_per_granule", med(func(t *campaignTrace) float64 { return t.archiveMB })/n)
	set("aicca.batch_tiles_mean", med(func(t *campaignTrace) float64 { return t.batchTiles }))
	set("aicca.flush_ms_mean", med(func(t *campaignTrace) float64 { return t.flushMs }))
	set("fleet.tasks_submitted", med(func(t *campaignTrace) float64 { return t.submitted }))
	set("fleet.tasks_requeued", med(func(t *campaignTrace) float64 { return t.requeued }))
	set("fleet.tasks_stolen", med(func(t *campaignTrace) float64 { return t.stolen }))
	set("fleet.lease_batch_mean", med(func(t *campaignTrace) float64 { return t.leaseBatch }))
	set("fleet.cache_hit_ratio", med(func(t *campaignTrace) float64 {
		if t.cacheHits+t.cacheMisses == 0 {
			return 0
		}
		return t.cacheHits / (t.cacheHits + t.cacheMisses)
	}))
	if r.name == wlFleetCold {
		// Serial fetch time is computed from the shaped archive's model
		// (request overhead plus bytes over the per-connection cap), the
		// serial compute time comes from the layer walk.
		var fetch float64
		for _, g := range r.in.granules {
			fetch += 3*shapedRequestOverhead.Seconds() + float64(g.Bytes)/shapedPerConnBytesPerSec
		}
		serial := fetch + walkSerialMs(layer, false)/1000*n
		set("fleet.prefetch_overlap_share", 1-wall/serial)
	}
	set("gen_late_ms_p95", lateP95)
	// Traced and untraced campaigns alternate, so the median of the
	// pairwise wall ratios cancels drift that a ratio of medians keeps.
	var ratios []float64
	for i, s := range m.traced {
		ratios = append(ratios, s.wall.Seconds()/m.untraced[i].wall.Seconds())
	}
	set("trace_overhead_share", median(ratios)-1)
}
