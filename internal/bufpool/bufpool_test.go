package bufpool

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGetServesCapacity checks every request gets its length and a
// capacity in its class, for sizes around the class edges.
func TestGetServesCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097, 1 << 20, 3_080_000} {
		b := Get(n)
		if len(b) != n || cap(b) < n {
			t.Fatalf("Get(%d): len %d cap %d", n, len(b), cap(b))
		}
		Put(b)
	}
}

// TestPutAcceptsForeignCapacity puts buffers of odd capacities and
// requires every Get after them to still be long enough.
func TestPutAcceptsForeignCapacity(t *testing.T) {
	for _, c := range []int{1, 5000, 8191, 8192, 1<<16 + 3} {
		Put(make([]byte, 0, c))
	}
	for _, n := range []int{4097, 8000, 8192, 1 << 16} {
		if b := Get(n); len(b) != n || cap(b) < n {
			t.Fatalf("Get(%d): len %d cap %d", n, len(b), cap(b))
		}
	}
}

// TestReadFileReadsWholeFile reads files of several sizes — empty, a
// class edge, and larger than the buffer a dirty pool hands back — and
// requires exactly the file's bytes.
func TestReadFileReadsWholeFile(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, 1, 4095, 4096, 100_000} {
		want := bytes.Repeat([]byte{byte(n), 7, 9}, n)[:n]
		path := filepath.Join(dir, "f")
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		dirty := Get(n + 1)
		for i := range dirty {
			dirty[i] = 0xA5
		}
		Put(dirty)
		got, err := ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("size %d: read %d bytes, err %v, equal %v", n, len(got), err, bytes.Equal(got, want))
		}
		Put(got)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Fatalf("missing file: err %v", err)
	}
}

// TestClassFloorInBytes checks the smallest class is 4 KiB for every
// element type, so a float32 buffer holds a quarter as many elements.
// A buffer put with a foreign capacity may serve the class, so the
// capacity is checked against the class, not pinned.
func TestClassFloorInBytes(t *testing.T) {
	inClass := func(c, lo int) bool { return c >= lo && c < 2*lo }
	b, f, q := Get(1), GetFloat32(1), GetInt8(1)
	if !inClass(cap(b), 4096) || !inClass(cap(f), 1024) || !inClass(cap(q), 4096) {
		t.Fatalf("floor capacities byte %d float32 %d int8 %d, want classes 4096/1024/4096", cap(b), cap(f), cap(q))
	}
	Put(b)
	PutFloat32(f)
	PutInt8(q)
	if f := GetFloat32(1<<20 + 1); len(f) != 1<<20+1 || !inClass(cap(f), 1<<21) {
		t.Fatalf("GetFloat32(2^20+1): len %d cap %d", len(f), cap(f))
	}
}
