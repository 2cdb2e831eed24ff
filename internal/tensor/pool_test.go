package tensor

import (
	"sync"
	"testing"
)

// reused reports whether get hands back put's buffer within a few
// tries. sync.Pool promises no reuse (the race detector drops a share
// of Puts on purpose), so one miss proves nothing; twenty in a row on
// one goroutine would mean the pool is not wired.
func reused[E any](get func() []E, put func([]E)) bool {
	for try := 0; try < 20; try++ {
		s := get()
		first := &s[:1][0]
		put(s)
		again := get()
		hit := &again[:1][0] == first
		put(again)
		if hit {
			return true
		}
	}
	return false
}

func TestGetPutReusesBuffers(t *testing.T) {
	first := Get(3, 5, 7)
	if first.Len() != 105 || len(first.Data) != 105 {
		t.Fatalf("shape/len mismatch: %v len %d", first.Shape, len(first.Data))
	}
	Put(first)
	// 105 and 128 floats share the pool's smallest class.
	if !reused(func() []float32 { return Get(128).Data }, func(s []float32) { Put(&T{Data: s}) }) {
		t.Fatal("same-class Get never reused a Put buffer")
	}
	Put(New(3, 5, 7)) // capacity below the smallest class: dropped
	Put(nil)          // must not panic
}

func TestGetI8PutI8Reuse(t *testing.T) {
	if got := GetI8(100); len(got) != 100 {
		t.Fatalf("GetI8(100) len %d", len(got))
	}
	if !reused(func() []int8 { return GetI8(90) }, PutI8) {
		t.Fatal("same-class GetI8 never reused a PutI8 buffer")
	}
	PutI8(nil) // must not panic
}

// TestArenaBucketBoundaries checks the size classes tensor scratch
// lands in around their edges: every request gets its length and a
// power-of-two capacity no smaller than the pool's 4 KiB floor, and no
// larger than one class above what it asked for.
func TestArenaBucketBoundaries(t *testing.T) {
	const floorBytes = 4096
	for _, n := range []int{1, 2, 3, 4, 63, 64, 65, 1023, 1024, 1025, 4095, 4096, 4097, 1 << 20, 1<<20 + 1} {
		x := Get(n)
		checkClass(t, "float32", n, len(x.Data), cap(x.Data), 4, floorBytes)
		Put(x)
		q := GetI8(n)
		checkClass(t, "int8", n, len(q), cap(q), 1, floorBytes)
		PutI8(q)
	}
}

func checkClass(t *testing.T, kind string, n, length, capacity, size, floorBytes int) {
	t.Helper()
	switch {
	case length != n:
		t.Fatalf("%s Get(%d): len %d", kind, n, length)
	case capacity&(capacity-1) != 0:
		t.Fatalf("%s Get(%d): capacity %d is not a size class", kind, n, capacity)
	case capacity < n || capacity*size < floorBytes:
		t.Fatalf("%s Get(%d): capacity %d too small", kind, n, capacity)
	case capacity*size > floorBytes && capacity/2 >= n:
		t.Fatalf("%s Get(%d): capacity %d not minimal", kind, n, capacity)
	}
}

// TestPoolHammer churns Get/Put of both element types from many
// goroutines under -race: a buffer must never be handed to two holders
// at once.
func TestPoolHammer(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				x := Get(37, 3)
				y := Get(256)
				q := GetI8(300)
				for i := range x.Data {
					x.Data[i] = float32(w)
				}
				for i := range q {
					q[i] = int8(w)
				}
				for i := range x.Data {
					if x.Data[i] != float32(w) {
						t.Errorf("worker %d saw foreign write", w)
						return
					}
				}
				for i := range q {
					if q[i] != int8(w) {
						t.Errorf("worker %d saw foreign int8 write", w)
						return
					}
				}
				Put(y)
				Put(x)
				PutI8(q)
			}
		}(w)
	}
	wg.Wait()
}
