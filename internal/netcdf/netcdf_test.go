package netcdf

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func buildTileFile(t *testing.T) *File {
	t.Helper()
	f := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.AddDim("tile", 3))
	must(f.AddDim("y", 4))
	must(f.AddDim("x", 4))
	must(f.AddDim("band", 2))
	must(f.Attrs.SetString("title", "AICCA ocean-cloud tiles"))
	must(f.Attrs.SetInts("granule_index", 150))
	must(f.Attrs.SetDoubles("created", 1656e6))

	rad := make([]float32, 3*2*4*4)
	for i := range rad {
		rad[i] = float32(i) / 7
	}
	v, err := f.AddFloat("radiance", []string{"tile", "band", "y", "x"}, rad)
	must(err)
	must(v.Attrs.SetString("units", "W/m^2/um/sr"))
	must(v.Attrs.SetFloats("scale_factor", 0.002))

	labels := []int16{-1, 7, 41}
	_, err = f.AddShort("label", []string{"tile"}, labels)
	must(err)

	lats := []float64{-10.5, 0.25, 33.0}
	_, err = f.AddDouble("lat", []string{"tile"}, lats)
	must(err)

	counts := []int32{100, 200, 300}
	_, err = f.AddInt("count", []string{"tile"}, counts)
	must(err)

	flags := []int8{0, 1, 2}
	_, err = f.AddByte("flag", []string{"tile"}, flags)
	must(err)

	_, err = f.AddChar("tag", []string{"tile"}, "abc")
	must(err)
	return f
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := buildTileFile(t)
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.Dims(), f.Dims()) {
		t.Fatalf("dims: %v vs %v", got.Dims(), f.Dims())
	}
	if !got.Attrs.Equal(f.Attrs) {
		t.Fatal("global attrs differ")
	}
	rv, err := got.Var("radiance")
	if err != nil {
		t.Fatal(err)
	}
	rad, err := rv.Float32s()
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := f.varIdx["radiance"].Float32s()
	if !reflect.DeepEqual(rad, orig) {
		t.Fatal("radiance data differs")
	}
	if units, ok := rv.Attrs.GetString("units"); !ok || units != "W/m^2/um/sr" {
		t.Fatalf("units attr = %q, %v", units, ok)
	}
	if sf, ok := rv.Attrs.GetFloats("scale_factor"); !ok || sf[0] != 0.002 {
		t.Fatalf("scale_factor = %v", sf)
	}
	lv, _ := got.Var("label")
	labels, err := lv.Int16s()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, []int16{-1, 7, 41}) {
		t.Fatalf("labels = %v", labels)
	}
	latV, _ := got.Var("lat")
	lats, _ := latV.Float64s()
	if !reflect.DeepEqual(lats, []float64{-10.5, 0.25, 33.0}) {
		t.Fatalf("lats = %v", lats)
	}
	cv, _ := got.Var("count")
	counts, _ := cv.Int32s()
	if !reflect.DeepEqual(counts, []int32{100, 200, 300}) {
		t.Fatalf("counts = %v", counts)
	}
	fv, _ := got.Var("flag")
	flags, _ := fv.Int8s()
	if !reflect.DeepEqual(flags, []int8{0, 1, 2}) {
		t.Fatalf("flags = %v", flags)
	}
	tv, _ := got.Var("tag")
	text, _ := tv.Text()
	if text != "abc" {
		t.Fatalf("tag = %q", text)
	}
}

func TestSpecHeaderLayout(t *testing.T) {
	// Byte-level checks against the CDF-1 spec: magic, numrecs, the
	// dimension list tag, and big-endian name encoding.
	f := New()
	if err := f.AddDim("x", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddShort("v", []string{"x"}, []int16{258, -2}); err != nil {
		t.Fatal(err)
	}
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:3]) != "CDF" || data[3] != 1 {
		t.Fatalf("magic = % x", data[:4])
	}
	if binary.BigEndian.Uint32(data[4:8]) != 0 {
		t.Fatal("numrecs != 0")
	}
	if binary.BigEndian.Uint32(data[8:12]) != 0x0A {
		t.Fatalf("dim list tag = %#x", binary.BigEndian.Uint32(data[8:12]))
	}
	if binary.BigEndian.Uint32(data[12:16]) != 1 {
		t.Fatal("dim count != 1")
	}
	// name: len=1, 'x', pad to 4
	if binary.BigEndian.Uint32(data[16:20]) != 1 || data[20] != 'x' {
		t.Fatalf("dim name encoding wrong: % x", data[16:24])
	}
	// Variable data: 2 shorts big-endian, padded to 4 at EOF.
	if len(data)%4 != 0 {
		t.Fatalf("file length %d not 4-aligned", len(data))
	}
	payload := data[len(data)-4:]
	if binary.BigEndian.Uint16(payload[0:2]) != 258 {
		t.Fatalf("first short = % x", payload)
	}
	if int16(binary.BigEndian.Uint16(payload[2:4])) != -2 {
		t.Fatalf("second short = % x", payload)
	}
}

func TestShapeValidation(t *testing.T) {
	f := New()
	if err := f.AddDim("x", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddFloat("v", []string{"x"}, make([]float32, 2)); err == nil {
		t.Fatal("wrong element count accepted")
	}
	if _, err := f.AddFloat("v", []string{"nope"}, make([]float32, 3)); err == nil {
		t.Fatal("unknown dimension accepted")
	}
	if _, err := f.AddFloat("v", []string{"x"}, make([]float32, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddFloat("v", []string{"x"}, make([]float32, 3)); err == nil {
		t.Fatal("duplicate variable accepted")
	}
}

func TestDimValidation(t *testing.T) {
	f := New()
	if err := f.AddDim("x", 0); err == nil {
		t.Fatal("zero-length dimension accepted")
	}
	if err := f.AddDim("", 1); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := f.AddDim("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := f.AddDim("x", 2); err == nil {
		t.Fatal("duplicate dimension accepted")
	}
}

func TestScalarVariable(t *testing.T) {
	f := New()
	if _, err := f.AddInt("answer", nil, []int32{42}); err != nil {
		t.Fatal(err)
	}
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	v, err := got.Var("answer")
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := v.Int32s()
	if len(vals) != 1 || vals[0] != 42 {
		t.Fatalf("scalar = %v", vals)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("HDF5aaaaaaaaaaaa"),
		"cdf2":        {'C', 'D', 'F', 2, 0, 0, 0, 0},
		"cdf5":        {'C', 'D', 'F', 5, 0, 0, 0, 0},
		"numrecs":     {'C', 'D', 'F', 1, 0, 0, 0, 9},
		"short":       {'C', 'D', 'F', 1, 0, 0},
		"absent tail": {'C', 'D', 'F', 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7},
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	f := buildTileFile(t)
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	for n := 4; n < len(data)-1; n += 11 {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestFileRoundTripOnDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiles.nc")
	f := buildTileFile(t)
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if title, ok := got.Attrs.GetString("title"); !ok || !strings.Contains(title, "AICCA") {
		t.Fatalf("title = %q", title)
	}
}

// TestWriteFileConcurrentWritersOfOnePath is the duplicated-lease case:
// several writers (two worker processes holding the same granule after a
// steal) publish the same path at once. Every writer must succeed, a
// reader that can open the path must always decode a complete file, and
// no temp file may be left behind.
func TestWriteFileConcurrentWritersOfOnePath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiles.nc")
	const writers, rounds, values = 8, 25, 64 << 10
	build := func() *File {
		f := New()
		if err := f.AddDim("n", values); err != nil {
			t.Fatal(err)
		}
		if _, err := f.AddFloat("radiance", []string{"n"}, make([]float32, values)); err != nil {
			t.Fatal(err)
		}
		return f
	}

	stop := make(chan struct{})
	var readers, writing sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f, err := ReadFile(path)
				if errors.Is(err, fs.ErrNotExist) {
					continue // nothing published yet
				}
				if err != nil {
					t.Errorf("reader saw a torn file: %v", err)
					return
				}
				if v, err := f.Var("radiance"); err != nil || v.Len() != values {
					t.Errorf("reader decoded an incomplete dataset: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writing.Add(1)
		f := build()
		go func() {
			defer writing.Done()
			for i := 0; i < rounds; i++ {
				if err := WriteFile(path, f); err != nil {
					t.Errorf("writer failed: %v", err)
					return
				}
			}
		}()
	}
	writing.Wait()
	close(stop)
	readers.Wait()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "tiles.nc" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only tiles.nc", names)
	}
}

func TestTypeAccessorMismatch(t *testing.T) {
	f := New()
	v, err := f.AddFloat("v", nil, []float32{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Int32s(); err == nil {
		t.Error("Int32s on float")
	}
	if _, err := v.Float64s(); err == nil {
		t.Error("Float64s on float")
	}
	if _, err := v.Text(); err == nil {
		t.Error("Text on float")
	}
}

// Property: float32 payloads of any shape and value (including NaN bit
// patterns) survive encode/decode bit-for-bit, and attributes round-trip.
func TestRoundTripProperty(t *testing.T) {
	prop := func(raw []uint32, label string, scale float64) bool {
		if len(raw) == 0 {
			raw = []uint32{0}
		}
		if len(raw) > 256 {
			raw = raw[:256]
		}
		vals := make([]float32, len(raw))
		for i, u := range raw {
			vals[i] = math.Float32frombits(u)
		}
		f := New()
		if err := f.AddDim("n", len(vals)); err != nil {
			return false
		}
		v, err := f.AddFloat("data", []string{"n"}, vals)
		if err != nil {
			return false
		}
		if err := v.Attrs.SetString("label", label); err != nil {
			return false
		}
		if err := f.Attrs.SetDoubles("scale", scale); err != nil {
			return false
		}
		data, err := Encode(f)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		gv, err := got.Var("data")
		if err != nil {
			return false
		}
		back, err := gv.Float32s()
		if err != nil {
			return false
		}
		for i := range vals {
			if math.Float32bits(vals[i]) != math.Float32bits(back[i]) {
				return false
			}
		}
		if l, ok := gv.Attrs.GetString("label"); !ok || l != label {
			return false
		}
		s, ok := got.Attrs.GetDoubles("scale")
		if !ok || len(s) != 1 {
			return false
		}
		return math.Float64bits(s[0]) == math.Float64bits(scale)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: data offsets in the header are consistent — decoding after
// re-encoding a decoded file yields identical bytes (a fixed point).
func TestEncodeFixedPointProperty(t *testing.T) {
	f := buildTileFile(t)
	d1, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Decode(d1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("encode-decode-encode is not a fixed point")
	}
}
