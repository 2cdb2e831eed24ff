package hdf

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// fuzzSeedFile builds a small valid file so the fuzzer starts from a
// structurally correct stream (magic, attrs, datasets, CRC) and mutates
// from there, instead of spending its budget rediscovering the header.
func fuzzSeedFile(t testing.TB) []byte {
	f := NewFile()
	f.Attrs["product"] = "MOD021KM"
	f.Attrs["year"] = int64(2024)
	f.Attrs["scale"] = 0.01
	rad, err := NewFloat32("radiance", []int{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	mask, err := NewUint8("cloud_mask", []int{6}, []byte{0, 1, 1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Dataset{rad, mask} {
		if err := f.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecode drives the granule header/stream reader with arbitrary
// bytes. Decode must never panic — granule files arrive over the
// network from the archive simulator and land on shared scratch, so
// truncated and corrupted streams are an expected input class, and the
// reader's length fields must not be trusted before bounds checks.
//
// Decode aliases its input, so every accepted stream must also hold
// three properties: decoding a private copy yields the same file, the
// file survives a Write → Decode round trip, and growing or replacing
// one dataset's bytes never changes another's.
func FuzzDecode(f *testing.F) {
	valid := fuzzSeedFile(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-4]) // CRC stripped
	f.Add(valid[:9])            // header only
	f.Add([]byte{})
	f.Add([]byte("EOMLHDF1"))              // magic alone
	f.Add(bytes.Repeat([]byte{0xff}, 64))  // no magic
	f.Add(append([]byte{}, valid[:20]...)) // truncated mid-attrs
	corrupt := append([]byte{}, valid...)  // flip one payload byte
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt)
	f.Add(overflowFile(f)) // dims whose product wraps to 0
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := Decode(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, decoded); err != nil {
			t.Fatalf("re-encode of accepted stream failed: %v", err)
		}
		again, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("re-decode of re-encoded stream failed: %v", err)
		}
		requireSameFile(t, "write round trip", again, decoded)
		copied, err := Decode(append([]byte(nil), data...))
		if err != nil {
			t.Fatalf("decode of a copy failed: %v", err)
		}
		requireSameFile(t, "decode of a copy", copied, decoded)

		// The aliasing check writes into the decoded buffer, so it runs
		// on copied, which owns its input; data belongs to the fuzz engine
		// and must not change.
		ds := copied.Datasets()
		for i, d := range ds {
			before := snapshotRaw(ds)
			// Grow to whatever capacity the slice admits, then overwrite
			// every byte it now covers: in place wherever it aliases.
			d.raw = d.raw[:cap(d.raw)]
			for j := range d.raw {
				d.raw[j] ^= 0xff
			}
			d.raw = append(d.raw, 0xa5)
			for j, other := range ds {
				if j != i && !bytes.Equal(other.raw, before[j]) {
					t.Fatalf("changing dataset %q changed dataset %q", d.Name, other.Name)
				}
			}
		}
	})
}

// snapshotRaw copies every dataset's bytes.
func snapshotRaw(ds []*Dataset) [][]byte {
	out := make([][]byte, len(ds))
	for i, d := range ds {
		out[i] = append([]byte(nil), d.raw...)
	}
	return out
}

// requireSameFile fails unless got and want carry the same attributes
// and the same datasets, in order, byte for byte.
func requireSameFile(t *testing.T, what string, got, want *File) {
	t.Helper()
	if len(got.Attrs) != len(want.Attrs) {
		t.Fatalf("%s: %d attributes, want %d", what, len(got.Attrs), len(want.Attrs))
	}
	for k, v := range want.Attrs {
		g, ok := got.Attrs[k]
		// NaN float attributes compare by bit pattern.
		if fw, isF := v.(float64); isF {
			fg, _ := g.(float64)
			if !ok || math.Float64bits(fg) != math.Float64bits(fw) {
				t.Fatalf("%s: attribute %q = %v, want %v", what, k, g, v)
			}
			continue
		}
		if !ok || g != v {
			t.Fatalf("%s: attribute %q = %v, want %v", what, k, g, v)
		}
	}
	gd, wd := got.Datasets(), want.Datasets()
	if len(gd) != len(wd) {
		t.Fatalf("%s: %d datasets, want %d", what, len(gd), len(wd))
	}
	for i := range wd {
		g, w := gd[i], wd[i]
		if g.Name != w.Name || g.DType != w.DType || !slices.Equal(g.Dims, w.Dims) || !bytes.Equal(g.raw, w.raw) {
			t.Fatalf("%s: dataset %d is %q %v %v (%d bytes), want %q %v %v (%d bytes)",
				what, i, g.Name, g.DType, g.Dims, len(g.raw), w.Name, w.DType, w.Dims, len(w.raw))
		}
	}
}
