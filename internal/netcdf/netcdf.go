// Package netcdf implements the NetCDF-3 "classic" file format (CDF-1)
// from the published specification, using only the standard library.
//
// The EO-ML workflow's preprocessing stage writes ocean-cloud tiles as
// NetCDF, and the inference stage appends AICCA cloud-class labels to the
// same files — so the reproduction needs a real, spec-conforming NetCDF
// codec, not a stand-in. The subset implemented here covers everything the
// pipeline (and the AICCA dataset itself) uses: fixed-size dimensions,
// global and per-variable attributes, and the six classic external types.
// Record (unlimited) dimensions are intentionally unsupported; tile files
// are fixed-shape by construction.
//
// Files written by this package are readable by ncdump and other standard
// NetCDF tools, and the decoder rejects malformed input with precise
// errors rather than guessing.
package netcdf

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Type enumerates the NetCDF classic external types.
type Type int32

// External types with their on-disk codes.
const (
	Byte   Type = 1 // NC_BYTE, int8
	Char   Type = 2 // NC_CHAR, text
	Short  Type = 3 // NC_SHORT, int16
	Int    Type = 4 // NC_INT, int32
	Float  Type = 5 // NC_FLOAT, float32
	Double Type = 6 // NC_DOUBLE, float64
)

// Size returns the byte width of one element.
func (t Type) Size() int {
	switch t {
	case Byte, Char:
		return 1
	case Short:
		return 2
	case Int, Float:
		return 4
	case Double:
		return 8
	}
	return 0
}

// String names the type as in CDL.
func (t Type) String() string {
	switch t {
	case Byte:
		return "byte"
	case Char:
		return "char"
	case Short:
		return "short"
	case Int:
		return "int"
	case Float:
		return "float"
	case Double:
		return "double"
	}
	return fmt.Sprintf("type(%d)", int32(t))
}

// list tags in the header.
const (
	tagDimension uint32 = 0x0A
	tagVariable  uint32 = 0x0B
	tagAttribute uint32 = 0x0C
)

// Dim is a named fixed-size dimension.
type Dim struct {
	Name string
	Len  int
}

// Var is a variable: a typed n-dimensional array over named dimensions.
type Var struct {
	Name  string
	Type  Type
	Dims  []string // dimension names, outermost first
	Attrs *Attrs
	data  []byte // big-endian external representation
}

// File is an in-memory NetCDF dataset.
type File struct {
	dims   []Dim
	dimIdx map[string]int
	Attrs  *Attrs
	vars   []*Var
	varIdx map[string]*Var
}

// New returns an empty dataset.
func New() *File {
	return &File{
		dimIdx: map[string]int{},
		Attrs:  NewAttrs(),
		varIdx: map[string]*Var{},
	}
}

// AddDim defines a dimension. Lengths must be positive (no record
// dimension support).
func (f *File) AddDim(name string, n int) error {
	if err := checkName(name); err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("netcdf: dimension %q length %d (record dimensions unsupported)", name, n)
	}
	if _, dup := f.dimIdx[name]; dup {
		return fmt.Errorf("netcdf: duplicate dimension %q", name)
	}
	f.dimIdx[name] = len(f.dims)
	f.dims = append(f.dims, Dim{Name: name, Len: n})
	return nil
}

// Dims returns the defined dimensions in order.
func (f *File) Dims() []Dim { return f.dims }

// DimLen returns the length of a named dimension.
func (f *File) DimLen(name string) (int, error) {
	i, ok := f.dimIdx[name]
	if !ok {
		return 0, fmt.Errorf("netcdf: no dimension %q", name)
	}
	return f.dims[i].Len, nil
}

// Vars returns the variables in definition order.
func (f *File) Vars() []*Var { return f.vars }

// Var returns the named variable.
func (f *File) Var(name string) (*Var, error) {
	v, ok := f.varIdx[name]
	if !ok {
		names := make([]string, 0, len(f.vars))
		for _, v := range f.vars {
			names = append(names, v.Name)
		}
		return nil, fmt.Errorf("netcdf: no variable %q (have %v)", name, names)
	}
	return v, nil
}

// shape returns the element count of a variable under this file's
// dimensions.
func (f *File) shape(dims []string) (int, error) {
	n := 1
	for _, d := range dims {
		l, err := f.DimLen(d)
		if err != nil {
			return 0, err
		}
		n *= l
	}
	return n, nil
}

func (f *File) addVar(v *Var, elems int, byteLen int) error {
	if err := checkName(v.Name); err != nil {
		return err
	}
	if _, dup := f.varIdx[v.Name]; dup {
		return fmt.Errorf("netcdf: duplicate variable %q", v.Name)
	}
	want, err := f.shape(v.Dims)
	if err != nil {
		return fmt.Errorf("netcdf: variable %q: %w", v.Name, err)
	}
	if elems != want {
		return fmt.Errorf("netcdf: variable %q: %d elements for shape %v (want %d)", v.Name, elems, v.Dims, want)
	}
	if byteLen != elems*v.Type.Size() {
		return fmt.Errorf("netcdf: variable %q: internal size mismatch", v.Name)
	}
	f.vars = append(f.vars, v)
	f.varIdx[v.Name] = v
	return nil
}

// AddFloat adds a float32 variable.
func (f *File) AddFloat(name string, dims []string, values []float32) (*Var, error) {
	data := make([]byte, 4*len(values))
	for i, x := range values {
		binary.BigEndian.PutUint32(data[4*i:], math.Float32bits(x))
	}
	v := &Var{Name: name, Type: Float, Dims: append([]string(nil), dims...), Attrs: NewAttrs(), data: data}
	if err := f.addVar(v, len(values), len(data)); err != nil {
		return nil, err
	}
	return v, nil
}

// AddDouble adds a float64 variable.
func (f *File) AddDouble(name string, dims []string, values []float64) (*Var, error) {
	data := make([]byte, 8*len(values))
	for i, x := range values {
		binary.BigEndian.PutUint64(data[8*i:], math.Float64bits(x))
	}
	v := &Var{Name: name, Type: Double, Dims: append([]string(nil), dims...), Attrs: NewAttrs(), data: data}
	if err := f.addVar(v, len(values), len(data)); err != nil {
		return nil, err
	}
	return v, nil
}

// AddInt adds an int32 variable.
func (f *File) AddInt(name string, dims []string, values []int32) (*Var, error) {
	data := make([]byte, 4*len(values))
	for i, x := range values {
		binary.BigEndian.PutUint32(data[4*i:], uint32(x))
	}
	v := &Var{Name: name, Type: Int, Dims: append([]string(nil), dims...), Attrs: NewAttrs(), data: data}
	if err := f.addVar(v, len(values), len(data)); err != nil {
		return nil, err
	}
	return v, nil
}

// AddShort adds an int16 variable.
func (f *File) AddShort(name string, dims []string, values []int16) (*Var, error) {
	data := make([]byte, 2*len(values))
	for i, x := range values {
		binary.BigEndian.PutUint16(data[2*i:], uint16(x))
	}
	v := &Var{Name: name, Type: Short, Dims: append([]string(nil), dims...), Attrs: NewAttrs(), data: data}
	if err := f.addVar(v, len(values), len(data)); err != nil {
		return nil, err
	}
	return v, nil
}

// AddByte adds an int8 variable.
func (f *File) AddByte(name string, dims []string, values []int8) (*Var, error) {
	data := make([]byte, len(values))
	for i, x := range values {
		data[i] = byte(x)
	}
	v := &Var{Name: name, Type: Byte, Dims: append([]string(nil), dims...), Attrs: NewAttrs(), data: data}
	if err := f.addVar(v, len(values), len(data)); err != nil {
		return nil, err
	}
	return v, nil
}

// AddChar adds a char variable from text; len(text) must match the shape.
func (f *File) AddChar(name string, dims []string, text string) (*Var, error) {
	v := &Var{Name: name, Type: Char, Dims: append([]string(nil), dims...), Attrs: NewAttrs(), data: []byte(text)}
	if err := f.addVar(v, len(text), len(text)); err != nil {
		return nil, err
	}
	return v, nil
}

// Len returns the element count of the variable's payload.
func (v *Var) Len() int { return len(v.data) / v.Type.Size() }

// Float32s decodes a Float variable.
func (v *Var) Float32s() ([]float32, error) {
	if v.Type != Float {
		return nil, fmt.Errorf("netcdf: variable %q is %v, want float", v.Name, v.Type)
	}
	out := make([]float32, v.Len())
	for i := range out {
		out[i] = math.Float32frombits(binary.BigEndian.Uint32(v.data[4*i:]))
	}
	return out, nil
}

// Float64s decodes a Double variable.
func (v *Var) Float64s() ([]float64, error) {
	if v.Type != Double {
		return nil, fmt.Errorf("netcdf: variable %q is %v, want double", v.Name, v.Type)
	}
	out := make([]float64, v.Len())
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(v.data[8*i:]))
	}
	return out, nil
}

// Int32s decodes an Int variable.
func (v *Var) Int32s() ([]int32, error) {
	if v.Type != Int {
		return nil, fmt.Errorf("netcdf: variable %q is %v, want int", v.Name, v.Type)
	}
	out := make([]int32, v.Len())
	for i := range out {
		out[i] = int32(binary.BigEndian.Uint32(v.data[4*i:]))
	}
	return out, nil
}

// Int16s decodes a Short variable.
func (v *Var) Int16s() ([]int16, error) {
	if v.Type != Short {
		return nil, fmt.Errorf("netcdf: variable %q is %v, want short", v.Name, v.Type)
	}
	out := make([]int16, v.Len())
	for i := range out {
		out[i] = int16(binary.BigEndian.Uint16(v.data[2*i:]))
	}
	return out, nil
}

// Int8s decodes a Byte variable.
func (v *Var) Int8s() ([]int8, error) {
	if v.Type != Byte {
		return nil, fmt.Errorf("netcdf: variable %q is %v, want byte", v.Name, v.Type)
	}
	out := make([]int8, len(v.data))
	for i := range out {
		out[i] = int8(v.data[i])
	}
	return out, nil
}

// SetShorts replaces the payload of a Short variable in place. The new
// values must match the variable's element count. This is how the
// inference stage appends AICCA labels to an existing tile file: read,
// overwrite the label variable, rewrite.
func (v *Var) SetShorts(values []int16) error {
	if v.Type != Short {
		return fmt.Errorf("netcdf: variable %q is %v, want short", v.Name, v.Type)
	}
	if len(values) != v.Len() {
		return fmt.Errorf("netcdf: variable %q has %d elements, got %d", v.Name, v.Len(), len(values))
	}
	for i, x := range values {
		binary.BigEndian.PutUint16(v.data[2*i:], uint16(x))
	}
	return nil
}

// Text decodes a Char variable.
func (v *Var) Text() (string, error) {
	if v.Type != Char {
		return "", fmt.Errorf("netcdf: variable %q is %v, want char", v.Name, v.Type)
	}
	return string(v.data), nil
}

// checkName enforces a conservative subset of NetCDF name rules.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("netcdf: empty name")
	}
	if strings.ContainsAny(name, "/\x00") {
		return fmt.Errorf("netcdf: invalid character in name %q", name)
	}
	return nil
}

// WriteFile encodes the dataset to path atomically (temp file + rename).
// The temp name is unique per call — concurrent writers of one path, in
// this process or another, each rename their own complete file into
// place — and ends in ".tmp", so it never matches a "*.nc" watcher.
func WriteFile(path string, f *File) error {
	data, err := Encode(f)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644) // CreateTemp's 0600 would hide the file from other facilities' users
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best effort; the write error is the one to report
	}
	return err
}

// ReadFile decodes the dataset at path.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
