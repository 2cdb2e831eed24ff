// Package bufpool recycles the byte buffers whole granule input files
// are read into. A warm fleet worker reads about 4.5 MB of cached input
// per granule, and a fresh buffer per file costs a zeroing pass over
// every byte before the read overwrites it. A pooled buffer is not
// zeroed: its contents are whatever its last user left, so a reader
// must overwrite every byte it hands on.
//
// Buffers are kept in power-of-two size classes, each a sync.Pool, so an
// idle process gives them back to the collector.
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

var pools [maxClass + 1]sync.Pool

// Get returns a buffer of length n, and capacity at least n, whose
// contents are unspecified.
func Get(n int) []byte {
	c := max(bits.Len(uint(max(n, 1)-1)), minClass)
	if c > maxClass {
		return make([]byte, n)
	}
	if p, ok := pools[c].Get().(*[]byte); ok {
		return (*p)[:n]
	}
	return make([]byte, n, 1<<c)
}

// Put hands b back for reuse; the caller must not touch it afterwards.
// Any buffer may be put, whatever its origin: it joins the largest class
// its capacity covers.
func Put(b []byte) {
	c := bits.Len(uint(cap(b))) - 1
	if c < minClass || c > maxClass {
		return
	}
	b = b[:0]
	pools[c].Put(&b)
}

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
