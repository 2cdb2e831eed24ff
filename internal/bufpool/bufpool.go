// Package bufpool is the program's one buffer pool. It recycles the
// byte buffers whole granule input files are read into, and the float32
// and int8 scratch of the encoder (through tensor.Get and friends). A
// warm fleet worker reads about 4.5 MB of cached input per granule, and
// a fresh buffer per file costs a zeroing pass over every byte before
// the read overwrites it; the encoder's im2col matrices are the same
// story per batch. A pooled buffer is not zeroed: its contents are
// whatever its last user left, so a reader must overwrite every element
// it hands on.
//
// Each element type keeps its own set of power-of-two size classes,
// each a sync.Pool, so an idle process gives them back to the
// collector. Classes are counted in bytes, so the floor and the ceiling
// hold for every element type alike.
package bufpool

import (
	"io"
	"math/bits"
	"os"
	"sync"
)

// Size classes: 4 KiB to 1 GiB. Larger requests are served, never kept.
const (
	minClass = 12
	maxClass = 30
)

// pool is one set of size classes for element type E, whose size is
// 1<<shift bytes.
type pool[E byte | float32 | int8] struct {
	shift   int
	classes [maxClass + 1]sync.Pool
}

var (
	bytePool    = pool[byte]{shift: 0}
	float32Pool = pool[float32]{shift: 2}
	int8Pool    = pool[int8]{shift: 0}
)

func (p *pool[E]) get(n int) []E {
	c := max(bits.Len(uint(max(n, 1)-1))+p.shift, minClass)
	if c > maxClass {
		return make([]E, n)
	}
	if s, ok := p.classes[c].Get().(*[]E); ok {
		return (*s)[:n]
	}
	return make([]E, n, 1<<(c-p.shift))
}

func (p *pool[E]) put(s []E) {
	if cap(s) == 0 {
		return
	}
	c := bits.Len(uint(cap(s))) - 1 + p.shift
	if c < minClass || c > maxClass {
		return
	}
	s = s[:0]
	p.classes[c].Put(&s)
}

// Get returns a buffer of length n, and capacity at least n, whose
// contents are unspecified.
func Get(n int) []byte { return bytePool.get(n) }

// Put hands b back for reuse; the caller must not touch it afterwards.
// Any buffer may be put, whatever its origin: it joins the largest class
// its capacity covers.
func Put(b []byte) { bytePool.put(b) }

// GetFloat32 is Get for float32 elements.
func GetFloat32(n int) []float32 { return float32Pool.get(n) }

// PutFloat32 is Put for float32 elements.
func PutFloat32(s []float32) { float32Pool.put(s) }

// GetInt8 is Get for int8 elements.
func GetInt8(n int) []int8 { return int8Pool.get(n) }

// PutInt8 is Put for int8 elements.
func PutInt8(s []int8) { int8Pool.put(s) }

// ReadFile is os.ReadFile into a pooled buffer: the whole file, read
// until EOF. On error the buffer has already gone back to the pool.
func ReadFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := 0
	if info, err := f.Stat(); err == nil && info.Mode().IsRegular() {
		size = int(info.Size())
	}
	// One byte of headroom lets the read see EOF without growing.
	data := Get(size + 1)[:0]
	for {
		if len(data) == cap(data) {
			grown := append(data, 0)[:len(data)]
			Put(data)
			data = grown
		}
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			Put(data)
			return nil, err
		}
	}
}
