package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/modis"
	"github.com/eoml/eoml/internal/tile"
)

// TestTailHasTenSamplesBeyond pins the percentile rule: the reported
// tail is the median over campaigns of each campaign's 95th percentile,
// and the campaign floor must leave at least ten granules beyond it.
func TestTailHasTenSamplesBeyond(t *testing.T) {
	ramp := make([]float64, campaignGranules)
	for i := range ramp {
		ramp[i] = float64(i + 1)
	}
	p95 := percentile(ramp, 95)
	if p95 != 23 {
		t.Fatalf("95th percentile of 1..24 = %v, want the 23rd value", p95)
	}
	beyondPerCampaign := campaignGranules - int(p95)
	if beyond := minCampaigns * beyondPerCampaign; beyond < 10 {
		t.Fatalf("%d campaigns leave %d samples beyond the tail, want at least 10", minCampaigns, beyond)
	}
	if got := percentile(ramp, 50); got != 12 {
		t.Errorf("50th percentile of 1..24 = %v, want 12", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single-sample percentile = %v", got)
	}
	if got := median(ramp); math.Abs(got-12.5) > 1e-12 {
		t.Errorf("median of 1..24 = %v, want 12.5", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	want := [3]float64{3.5, 13.5, 31.0}
	if got := [3]float64{q1, q2, q3}; got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q1, q2, q3 = quartiles([]float64{3, 1})
	if got := [3]float64{q1, q2, q3}; got != [3]float64{0.5, 2, 3.5} {
		t.Fatalf("two-value quartiles = %v", got)
	}
}

func TestScheduleStampsDueTimesAndNeverBlocks(t *testing.T) {
	ids := []int{7, 8, 9, 10, 11}
	const gap = 2 * time.Millisecond
	out := make(chan int, len(ids)) // nobody reads until the generator is done
	start := time.Now()
	done := make(chan []arrival, 1)
	go func() { done <- feedOnSchedule(start, gap, ids, out) }()
	var arrivals []arrival
	select {
	case arrivals = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("generator blocked on a receiver that never drains")
	}
	for i, a := range arrivals {
		if want := start.Add(time.Duration(i) * gap); !a.Due.Equal(want) {
			t.Errorf("arrival %d due %v, want %v", i, a.Due.Sub(start), want.Sub(start))
		}
		if a.Late < 0 {
			t.Errorf("arrival %d sent %v before it was due", i, -a.Late)
		}
	}
	var got []int
	for id := range out { // closed by the generator
		got = append(got, id)
	}
	if !reflect.DeepEqual(got, ids) {
		t.Fatalf("fed %v, want %v", got, ids)
	}
}

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEndSpecs {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestBenchmarkJSONMatchesSpec is the drift test: the names, units,
// directions and bounds in BENCHMARK.json are the ones the binary emits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json %v\n spec %v", b.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end differs:\n json %v\n spec %v", b.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer differs:\n json %v\n spec %v", b.PerLayer, perLayerSpecs)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v", b.Paths)
	}
}

func TestJudge(t *testing.T) {
	higher := metricSpec{Name: "granules_per_s", Better: "higher", Bound: 0.10}
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{higher, steady, []float64{95, 96, 95, 95, 96}, verdictOK},
		{higher, steady, []float64{85, 86, 85, 85, 86}, verdictRegressed},
		{higher, steady, []float64{120, 121, 119, 120, 120}, verdictOK}, // better is never a regression
		{lower, steady, []float64{115, 116, 115, 115, 116}, verdictRegressed},
		{lower, steady, []float64{80, 100, 120, 90, 130}, verdictUnresolved},
		{metricSpec{Name: "hdf.decode_ms", Better: "lower"}, steady, []float64{300, 300}, verdictInfo},
	}
	for i, c := range cases {
		if _, got := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("case %d (%s): verdict %q, want %q", i, c.spec.Name, got, c.want)
		}
	}
}

// TestCorruptedLabelFileIsCaught is the correctness gate's self-test: a
// shipped file with one wrong label, a missing tile, a missing file or a
// stray file must each be reported, and a faithful copy must pass.
func TestCorruptedLabelFileIsCaught(t *testing.T) {
	gen, err := modis.NewGenerator(64)
	if err != nil {
		t.Fatal(err)
	}
	var ref granuleRef
	var tiles []*tile.Tile
	for idx := 0; idx < modis.GranulesPerDay && tiles == nil; idx++ {
		id := modis.GranuleID{Satellite: modis.Terra, Year: year, DOY: 1, Index: idx}
		mod02, _ := gen.Generate(modis.MOD021KM, id)
		mod03, _ := gen.Generate(modis.MOD03, id)
		mod06, _ := gen.Generate(modis.MOD06L2, id)
		res, err := tile.Extract(mod02, mod03, mod06, tile.Options{TileSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tiles) >= 4 {
			tiles = res.Tiles
			ref = granuleRef{ID: id, TileFile: tileFileName(id)}
		}
	}
	if tiles == nil {
		t.Fatal("no granule with tiles found")
	}
	for i, tl := range tiles {
		tl.Label = int16(i % 5)
		ref.Labels = append(ref.Labels, tl.Label)
	}
	dest := t.TempDir()
	path := filepath.Join(dest, ref.TileFile)
	if err := tile.WriteNetCDF(path, tiles); err != nil {
		t.Fatal(err)
	}
	want := []granuleRef{ref}
	if f := verifyShipped(dest, want); len(f) != 0 {
		t.Fatalf("faithful file reported: %v", f)
	}

	bad := append([]int16(nil), ref.Labels...)
	bad[len(bad)-1]++
	if err := tile.AppendLabels(path, bad); err != nil {
		t.Fatal(err)
	}
	if f := verifyShipped(dest, want); len(f) != 1 || f[0].Granule != ref.ID.Index {
		t.Fatalf("one corrupted label: got %v, want one failure for granule %d", f, ref.ID.Index)
	}

	if err := tile.WriteNetCDF(path, tiles[:len(tiles)-1]); err != nil {
		t.Fatal(err)
	}
	if f := verifyShipped(dest, want); len(f) != 1 || !strings.Contains(f[0].Reason, "tiles shipped") {
		t.Fatalf("missing tile: got %v", f)
	}

	if err := os.Rename(path, filepath.Join(dest, "stray.nc")); err != nil {
		t.Fatal(err)
	}
	f := verifyShipped(dest, want)
	if len(f) != 2 || f[0].Granule != ref.ID.Index || f[1].Granule != -1 {
		t.Fatalf("missing plus stray file: got %v", f)
	}
}

func TestOutboxWatcherStampsEachFileOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "outbox") // created after the watcher starts
	w := watchOutbox(dir, 2)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	before := time.Now()
	for _, name := range []string{"tiles.MOD.A2022001.0000.nc", ".move-123", "tiles.MOD.A2022001.0005.nc"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seen := w.Stop()
	if len(seen) != 2 {
		t.Fatalf("saw %d files, want the 2 tile files: %v", len(seen), seen)
	}
	for name, at := range seen {
		if at.Before(before) {
			t.Errorf("%s stamped before it was written", name)
		}
	}
}
