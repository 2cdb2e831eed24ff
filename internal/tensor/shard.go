package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/eoml/eoml/internal/metrics"
)

// arenaBuckets caps the pooled size classes at 2^27 floats (512 MiB);
// larger tensors bypass the free lists.
const arenaBuckets = 28

// bucketFor returns the smallest b with 1<<b >= n.
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// LocalArena recycles tensor buffers in power-of-two size classes for a
// single goroutine: plain slice free lists, no locks, no atomics on the
// Get/Put fast path. Obtain one from ShardedArena.Acquire (or NewLocal
// for a purely private arena) and keep it on one goroutine. It is the
// buffer source of the inference hot path (nn.Layer.Infer and friends).
//
// Lifecycle rules (see DESIGN.md §8):
//   - Get returns a tensor with UNDEFINED contents; callers must
//     overwrite every element (all Into kernels in this package do).
//   - Put recycles a tensor obtained from Get. Never Put a view
//     (Reshape result) or a tensor handed to an external caller; the
//     owner of a returned tensor is whoever the API gave it to.
//   - GetI8/PutI8 are the same contract for the int8 scratch of the
//     quantized inference path.
//   - A nil *LocalArena is valid and degrades to plain New/no-op Put, so
//     the same code path serves pooled and unpooled callers.
type LocalArena struct {
	free   [arenaBuckets][]*T
	freeI8 [arenaBuckets][][]int8

	// Stats are atomics only so an Instrument snapshot can read them
	// while the owning goroutine is mid-encode; the owner is the sole
	// writer, so the adds never contend.
	gets atomic.Int64
	news atomic.Int64
	puts atomic.Int64
}

// NewLocal returns an empty single-goroutine arena.
func NewLocal() *LocalArena { return &LocalArena{} }

// Get returns a tensor of the given shape with undefined contents,
// reusing a free-listed buffer of the same size class when available.
func (a *LocalArena) Get(shape ...int) *T {
	if a == nil {
		return New(shape...)
	}
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic("tensor: non-positive dim in arena Get")
		}
		n *= s
	}
	a.gets.Add(1)
	b := bucketFor(n)
	if b < arenaBuckets {
		if l := len(a.free[b]); l > 0 {
			t := a.free[b][l-1]
			a.free[b][l-1] = nil
			a.free[b] = a.free[b][:l-1]
			t.Data = t.Data[:n]
			t.Shape = append(t.Shape[:0], shape...)
			return t
		}
	}
	a.news.Add(1)
	capacity := n
	if b < arenaBuckets {
		capacity = 1 << b
	}
	return &T{Shape: append([]int(nil), shape...), Data: make([]float32, n, capacity)}
}

// Put returns a tensor to the free list. Tensors whose capacity is not
// a pooled size class are dropped for the garbage collector.
func (a *LocalArena) Put(t *T) {
	if a == nil || t == nil || cap(t.Data) == 0 {
		return
	}
	c := cap(t.Data)
	if c&(c-1) != 0 {
		return
	}
	b := bucketFor(c)
	if b >= arenaBuckets {
		return
	}
	a.puts.Add(1)
	t.Data = t.Data[:0]
	a.free[b] = append(a.free[b], t)
}

// GetI8 returns an int8 scratch slice of length n with undefined
// contents, free-listed in the same size classes as Get. A nil receiver
// degrades to plain allocation.
func (a *LocalArena) GetI8(n int) []int8 {
	if n <= 0 {
		panic("tensor: non-positive length in arena GetI8")
	}
	if a == nil {
		return make([]int8, n)
	}
	a.gets.Add(1)
	b := bucketFor(n)
	if b < arenaBuckets {
		if l := len(a.freeI8[b]); l > 0 {
			s := a.freeI8[b][l-1]
			a.freeI8[b][l-1] = nil
			a.freeI8[b] = a.freeI8[b][:l-1]
			return s[:n]
		}
	}
	a.news.Add(1)
	capacity := n
	if b < arenaBuckets {
		capacity = 1 << b
	}
	return make([]int8, n, capacity)
}

// PutI8 returns an int8 scratch slice obtained from GetI8 to the free
// list. Non-size-class capacities are dropped for the garbage collector.
func (a *LocalArena) PutI8(s []int8) {
	if a == nil || cap(s) == 0 {
		return
	}
	c := cap(s)
	if c&(c-1) != 0 {
		return
	}
	b := bucketFor(c)
	if b >= arenaBuckets {
		return
	}
	a.puts.Add(1)
	a.freeI8[b] = append(a.freeI8[b], s[:0])
}

// Stats reports Get calls, free-list misses (fresh allocations), and
// Puts.
func (a *LocalArena) Stats() (gets, news, puts int64) {
	if a == nil {
		return 0, 0, 0
	}
	return a.gets.Load(), a.news.Load(), a.puts.Load()
}

// ShardedArena is a checkout pool of LocalArenas: one shard per
// concurrently running worker, each shard keeping the warm buffers of
// the workloads it served. One worker (an Encode call, a
// tile-extraction granule) owns all of its scratch for the span of the
// call, so ShardedArena hands each worker a private LocalArena: zero
// synchronization on the per-tensor fast path, one mutex
// acquire/release per *call* to check the shard in and out. Shards are created on demand, so the steady state holds
// exactly as many shards as the peak concurrency, and an idle shard
// keeps its free lists (nothing is purged behind the worker's back).
//
// Lifecycle rules (see DESIGN.md §8):
//
//   - Acquire returns a LocalArena for the calling goroutine's
//     exclusive use; Release returns it. Acquire/Release must pair (the
//     eomlvet arenapair analyzer enforces this), typically via defer.
//   - A shard must never be shared across goroutines between Acquire
//     and Release, and never used after Release.
//   - A nil *ShardedArena degrades to nil shards and plain allocation,
//     mirroring the nil *LocalArena contract.
type ShardedArena struct {
	mu     sync.Mutex
	idle   []*LocalArena
	shards []*LocalArena // every shard ever created, for Stats
}

// NewShardedArena returns an empty sharded arena.
func NewShardedArena() *ShardedArena { return &ShardedArena{} }

// Acquire checks a shard out for the calling goroutine's exclusive use
// until Release. On a nil receiver it returns a nil *LocalArena, which
// degrades to plain allocation.
func (s *ShardedArena) Acquire() *LocalArena {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if l := len(s.idle); l > 0 {
		a := s.idle[l-1]
		s.idle[l-1] = nil
		s.idle = s.idle[:l-1]
		return a
	}
	a := NewLocal()
	s.shards = append(s.shards, a)
	return a
}

// Release checks a shard back in. Releasing nil (from a nil-receiver
// Acquire) is a no-op.
func (s *ShardedArena) Release(a *LocalArena) {
	if s == nil || a == nil {
		return
	}
	s.mu.Lock()
	s.idle = append(s.idle, a)
	s.mu.Unlock()
}

// Shards reports how many shards exist (peak checkout concurrency so
// far).
func (s *ShardedArena) Shards() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards)
}

// Stats sums Get calls, misses, and Puts over every shard.
func (s *ShardedArena) Stats() (gets, news, puts int64) {
	if s == nil {
		return 0, 0, 0
	}
	s.mu.Lock()
	shards := append([]*LocalArena(nil), s.shards...)
	s.mu.Unlock()
	for _, a := range shards {
		g, n, p := a.Stats()
		gets += g
		news += n
		puts += p
	}
	return gets, news, puts
}

// Instrument exports the aggregate hit/miss/outstanding counters of all
// shards to reg under the given arena label. Safe on a nil arena or nil registry, and safe
// to call more than once for the same registry and label (batch + stream
// runs in one process): re-registering replaces the reader functions, so
// the series are never double-counted.
func (s *ShardedArena) Instrument(reg *metrics.Registry, name string) {
	if s == nil {
		return
	}
	l := metrics.L("arena", name)
	reg.CounterFunc("eoml_arena_hits_total",
		"Arena Gets served from the pool without allocating.",
		func() float64 { gets, news, _ := s.Stats(); return float64(gets - news) }, l)
	reg.CounterFunc("eoml_arena_misses_total",
		"Arena Gets that missed the pool and allocated.",
		func() float64 { _, news, _ := s.Stats(); return float64(news) }, l)
	reg.GaugeFunc("eoml_arena_outstanding",
		"Tensors handed out by Get and not yet returned by Put.",
		func() float64 { gets, _, puts := s.Stats(); return float64(gets - puts) }, l)
}
