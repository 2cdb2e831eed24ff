package tensor

import (
	"sync"
	"testing"

	"github.com/eoml/eoml/internal/metrics"
)

func TestLocalArenaReusesBuffers(t *testing.T) {
	a := NewLocal()
	first := a.Get(3, 5, 7)
	if first.Len() != 105 || len(first.Data) != 105 {
		t.Fatalf("shape/len mismatch: %v len %d", first.Shape, len(first.Data))
	}
	a.Put(first)
	// Same size class (105 -> 128): must come back from the free list.
	second := a.Get(128)
	if &second.Data[:1][0] != &first.Data[:1][0] {
		t.Fatal("same-class Get did not reuse the free-listed buffer")
	}
	gets, news, puts := a.Stats()
	if gets != 2 || news != 1 || puts != 1 {
		t.Fatalf("stats gets=%d news=%d puts=%d, want 2/1/1", gets, news, puts)
	}
	a.Put(New(3, 5, 7)) // non-power-of-two capacity: dropped
	if _, _, puts := a.Stats(); puts != 1 {
		t.Fatalf("pooled a non-size-class buffer (puts=%d)", puts)
	}
	a.Put(nil) // must not panic
}

func TestArenaBucketBoundaries(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 63, 64, 65, 1023, 1024, 1025} {
		b := bucketFor(n)
		if 1<<b < n {
			t.Fatalf("bucketFor(%d) = %d: class too small", n, b)
		}
		if b > 0 && 1<<(b-1) >= n {
			t.Fatalf("bucketFor(%d) = %d: class not minimal", n, b)
		}
	}
}

func TestNilLocalArenaDegradesToNew(t *testing.T) {
	var a *LocalArena
	x := a.Get(2, 3)
	if x.Len() != 6 {
		t.Fatalf("nil local arena Get: %v", x.Shape)
	}
	a.Put(x) // no-op, must not panic
}

func TestShardedArenaReusesShards(t *testing.T) {
	s := NewShardedArena()
	a := s.Acquire()
	x := a.Get(64)
	a.Put(x)
	s.Release(a)
	if got := s.Shards(); got != 1 {
		t.Fatalf("shards = %d, want 1", got)
	}
	// Sequential Acquire must hand the same warm shard back.
	b := s.Acquire()
	if b != a {
		t.Fatal("sequential Acquire created a new shard instead of reusing the idle one")
	}
	y := b.Get(64)
	if &y.Data[:1][0] != &x.Data[:1][0] {
		t.Fatal("warm shard did not reuse its free-listed buffer")
	}
	b.Put(y)
	s.Release(b)

	gets, news, puts := s.Stats()
	if gets != 2 || news != 1 || puts != 2 {
		t.Fatalf("stats gets=%d news=%d puts=%d, want 2/1/2", gets, news, puts)
	}
}

func TestNilShardedArenaDegrades(t *testing.T) {
	var s *ShardedArena
	a := s.Acquire()
	x := a.Get(2, 2)
	if x.Len() != 4 {
		t.Fatalf("nil sharded arena Get: %v", x.Shape)
	}
	a.Put(x)
	s.Release(a)
	s.Instrument(nil, "nil") // no-op, must not panic
	if g, n, p := s.Stats(); g != 0 || n != 0 || p != 0 {
		t.Fatalf("nil stats %d/%d/%d", g, n, p)
	}
}

// TestShardedArenaHammer churns Acquire/Get/Put/Release from many
// goroutines under -race: shards must never alias while checked out,
// and concurrent Stats/Instrument reads must be safe mid-flight.
func TestShardedArenaHammer(t *testing.T) {
	s := NewShardedArena()
	reg := metrics.NewRegistry()
	s.Instrument(reg, "hammer")
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				a := s.Acquire()
				x := a.Get(37, 3)
				y := a.Get(256)
				for i := range x.Data {
					x.Data[i] = float32(w)
				}
				for i := range x.Data {
					if x.Data[i] != float32(w) {
						t.Errorf("worker %d saw foreign write", w)
						return
					}
				}
				a.Put(y)
				a.Put(x)
				s.Release(a)
			}
		}(w)
	}
	// Concurrent scrapes while the workers churn.
	for i := 0; i < 50; i++ {
		_ = reg.Snapshot()
	}
	wg.Wait()
	if got := s.Shards(); got < 1 || got > workers {
		t.Fatalf("shards = %d, want 1..%d", got, workers)
	}
	gets, news, puts := s.Stats()
	if gets != workers*200*2 || puts != gets {
		t.Fatalf("stats gets=%d puts=%d, want %d each", gets, puts, workers*200*2)
	}
	if news > int64(s.Shards()*2) {
		t.Fatalf("news=%d exceeds warm bound for %d shards", news, s.Shards())
	}
}

// arenaSeriesValue digs one arena series value out of a registry
// snapshot, failing if the (name, arena-label) pair resolves to more or
// fewer than one series — the double-count failure mode.
func arenaSeriesValue(t *testing.T, reg *metrics.Registry, name, arena string) float64 {
	t.Helper()
	var vals []float64
	for _, fam := range reg.Snapshot() {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Series {
			for _, l := range s.Labels {
				if l.Key == "arena" && l.Value == arena {
					vals = append(vals, s.Value)
				}
			}
		}
	}
	if len(vals) != 1 {
		t.Fatalf("%s{arena=%q}: %d series, want exactly 1", name, arena, len(vals))
	}
	return vals[0]
}

// TestInstrumentTwiceDoesNotDoubleCount pins the double-registration
// guard: a process that runs a batch pipeline and then a streaming
// pipeline instruments the same model arena into the same registry
// twice, which must neither panic nor double the series.
func TestInstrumentTwiceDoesNotDoubleCount(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		s := NewShardedArena()
		a := s.Acquire()
		a.Put(a.Get(64))
		s.Release(a)
		reg := metrics.NewRegistry()
		s.Instrument(reg, "ricc")
		s.Instrument(reg, "ricc") // second run in the same process
		if got := arenaSeriesValue(t, reg, "eoml_arena_misses_total", "ricc"); got != 1 {
			t.Fatalf("misses after double Instrument = %v, want 1", got)
		}
		if got := arenaSeriesValue(t, reg, "eoml_arena_outstanding", "ricc"); got != 0 {
			t.Fatalf("outstanding after double Instrument = %v, want 0", got)
		}
	})
	t.Run("successor-takes-over", func(t *testing.T) {
		old, fresh := NewShardedArena(), NewShardedArena()
		a := old.Acquire()
		a.Put(a.Get(64))
		old.Release(a)
		reg := metrics.NewRegistry()
		old.Instrument(reg, "ricc")
		fresh.Instrument(reg, "ricc") // newest arena owns the series
		if got := arenaSeriesValue(t, reg, "eoml_arena_misses_total", "ricc"); got != 0 {
			t.Fatalf("series still reads the replaced arena: %v", got)
		}
	})
}
