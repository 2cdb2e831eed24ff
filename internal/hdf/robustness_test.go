package hdf

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// overflowFile encodes a CRC-valid file holding one float32 dataset,
// "huge", whose dims multiply to 2^64 elements while it carries 0
// bytes: the product wraps to 0 in int arithmetic.
func overflowFile(t testing.TB) []byte {
	t.Helper()
	f := NewFile()
	huge := &Dataset{Name: "huge", DType: Float32, Dims: []int{65536, 65536, 65536, 65536}}
	if err := f.Add(huge); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeRejectsOverflowingDims requires Decode to refuse a dataset
// whose dims overflow an element or byte count, naming the dataset,
// rather than decode it with a Len() that reads 0.
func TestDecodeRejectsOverflowingDims(t *testing.T) {
	f, err := Decode(overflowFile(t))
	if err == nil {
		d, _ := f.Dataset("huge")
		t.Fatalf("decoded dims %v with Len() %d; want an error", d.Dims, d.Len())
	}
	if !strings.Contains(err.Error(), `"huge"`) {
		t.Fatalf("error %q does not name the dataset", err)
	}
}

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	prop := func(seed int64, n uint16) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, int(n)%4096)
		r.Read(data)
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNeverPanicsOnMutatedGranule(t *testing.T) {
	f := buildSample(t)
	var valid []byte
	{
		var buf buffer
		if err := Write(&buf, f); err != nil {
			t.Fatal(err)
		}
		valid = buf.data
	}
	prop := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		data := append([]byte(nil), valid...)
		for i := 0; i < r.Intn(4)+1; i++ {
			data[r.Intn(len(data))] ^= byte(1 << r.Intn(8))
		}
		// CRC catches all single-region mutations; either way, no panic.
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// buffer is a minimal io.Writer accumulating bytes.
type buffer struct{ data []byte }

func (b *buffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}
