package ricc

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestEncodeMatchesNoArena(t *testing.T) {
	cfg := smallConfig()
	cfg.Epochs = 2
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiles := syntheticTiles(300, cfg.TileSize, cfg.Channels, 8) // >maxBatch: two batches
	if _, err := m.Train(tiles[:64]); err != nil {
		t.Fatal(err)
	}
	want, err := m.EncodeNoArena(tiles)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.EncodeBatch(tiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			d := math.Abs(float64(got[i][j] - want[i][j]))
			if d > 1e-5*(1+math.Abs(float64(want[i][j]))) {
				t.Fatalf("tile %d dim %d: %g vs %g", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestEncodeArenaConcurrent proves pooled buffers never alias across
// concurrent EncodeBatch and EncodeBatchQ8 calls: every concurrent
// result must be bit-identical to the sequential one, across repeated
// iterations that maximally churn the pools.
func TestEncodeArenaConcurrent(t *testing.T) {
	cfg := smallConfig()
	cfg.Epochs = 2
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiles := syntheticTiles(80, cfg.TileSize, cfg.Channels, 9)
	if _, err := m.Train(tiles[:64]); err != nil {
		t.Fatal(err)
	}
	ref, err := m.EncodeBatch(tiles)
	if err != nil {
		t.Fatal(err)
	}
	refQ8, err := m.EncodeBatchQ8(tiles)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				got, err := m.EncodeBatch(tiles)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, ref) {
					t.Error("concurrent EncodeBatch diverged from sequential result")
					return
				}
				gotQ8, err := m.EncodeBatchQ8(tiles)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(gotQ8, refQ8) {
					t.Error("concurrent EncodeBatchQ8 diverged from sequential result")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
