package netcdf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Decoders in this repository sit behind a network archive and a shared
// filesystem; they must reject arbitrary garbage with an error, never a
// panic or a hang. These property tests feed random and mutated byte
// streams to the decoder.

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

func TestDecodeNeverPanicsOnMutatedValidFile(t *testing.T) {
	f := New()
	if err := f.AddDim("tile", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddFloat("v", []string{"tile"}, []float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Attrs.SetString("title", "mutation target"); err != nil {
		t.Fatal(err)
	}
	valid, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}

	prop := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		data := append([]byte(nil), valid...)
		// Flip 1-4 random bytes.
		for i := 0; i < r.Intn(4)+1; i++ {
			data[r.Intn(len(data))] ^= byte(1 << r.Intn(8))
		}
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsHugeClaimedSizes(t *testing.T) {
	// A header claiming a gigantic variable must error cleanly rather
	// than attempting a huge allocation. Construct a valid file and bump
	// a dimension length in the encoded header.
	f := New()
	if err := f.AddDim("n", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddFloat("v", []string{"n"}, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	// dim length lives at a fixed offset: magic(4) numrecs(4) tag(4)
	// count(4) namelen(4) name+pad(4) -> length at 24.
	data[24], data[25], data[26], data[27] = 0x7F, 0xFF, 0xFF, 0xFF
	if _, err := Decode(data); err == nil {
		t.Fatal("huge dimension accepted")
	}
}

// classicFile hand-assembles a CDF-1 stream with one dimension per
// entry of dimLens and one variable of type t spanning all of them,
// whose header claims vsize bytes of data starting at the end of the
// header. Encode cannot produce such files for shapes that do not fit
// in memory, which is exactly what a hostile header claims.
func classicFile(dimLens []uint32, t Type, vsize uint32) []byte {
	var buf bytes.Buffer
	buf.Write(magic)
	putU32(&buf, 0) // numrecs
	putU32(&buf, tagDimension)
	putU32(&buf, uint32(len(dimLens)))
	for i, n := range dimLens {
		putName(&buf, string(rune('a'+i)))
		putU32(&buf, n)
	}
	putU32(&buf, 0) // no global attributes
	putU32(&buf, 0)
	putU32(&buf, tagVariable)
	putU32(&buf, 1)
	putName(&buf, "v")
	putU32(&buf, uint32(len(dimLens)))
	for i := range dimLens {
		putU32(&buf, uint32(i))
	}
	putU32(&buf, 0) // no variable attributes
	putU32(&buf, 0)
	putU32(&buf, uint32(t))
	putU32(&buf, vsize)
	putU32(&buf, uint32(buf.Len()+4)) // begin: right after this field
	return buf.Bytes()
}

// TestShapeOverflowRejected pins that dimension products are checked
// for overflow on both paths that compute them: a header whose shape
// wraps to a small element count must not decode as a tiny variable,
// and AddVar must not accept an empty slice for a wrapped shape.
func TestShapeOverflowRejected(t *testing.T) {
	const big = 1 << 16
	decodeCases := map[string][]byte{
		// 65536^4 = 2^64 elements wraps int to 0: vsize 0 "matches".
		"elements wrap": classicFile([]uint32{big, big, big, big}, Byte, 0),
		// 2^31 × 2^31 = 2^62 elements fits int, but 2^62 doubles is
		// 2^65 bytes, which wraps to 0.
		"bytes wrap": classicFile([]uint32{1 << 31, 1 << 31}, Double, 0),
	}
	for name, data := range decodeCases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted a %d-byte file claiming an overflowing shape", name, len(data))
		}
	}

	f := New()
	for _, d := range []string{"a", "b", "c", "d"} {
		if err := f.AddDim(d, big); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.AddByte("v", []string{"a", "b", "c", "d"}, nil); err == nil {
		t.Error("AddByte accepted zero values for a 2^64-element shape")
	}
}
