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
