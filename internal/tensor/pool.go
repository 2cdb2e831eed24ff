package tensor

import (
	"fmt"

	"github.com/eoml/eoml/internal/bufpool"
)

// Get returns a tensor of the given shape whose buffer comes from the
// float32 classes of bufpool. It is the buffer source of the inference
// hot path (nn.Layer.Infer and friends), safe from any goroutine.
//
// Lifecycle rules (see DESIGN.md §8):
//   - The contents are UNDEFINED; callers must overwrite every element
//     (all Into kernels in this package do).
//   - Put recycles a tensor obtained from Get. Never Put a view
//     (Reshape result) or a tensor handed to an external caller; the
//     owner of a returned tensor is whoever the API gave it to.
//   - GetI8/PutI8 are the same contract for the int8 scratch of the
//     quantized inference path.
func Get(shape ...int) *T {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim in shape %v", shape))
		}
		n *= s
	}
	return &T{Shape: append([]int(nil), shape...), Data: bufpool.GetFloat32(n)}
}

// Put hands t's buffer back to the pool; neither t nor any view of it
// may be used afterwards.
func Put(t *T) {
	if t != nil {
		bufpool.PutFloat32(t.Data)
	}
}

// GetI8 returns an int8 scratch slice of length n with undefined
// contents.
func GetI8(n int) []int8 {
	if n <= 0 {
		panic("tensor: non-positive length in GetI8")
	}
	return bufpool.GetInt8(n)
}

// PutI8 hands an int8 slice from GetI8 back to the pool.
func PutI8(s []int8) { bufpool.PutInt8(s) }

// ShardedArena holds nothing: tensor scratch comes from Get, and tile
// extraction keeps no scratch to recycle.
//
// Deprecated: only tile.Options.Arena still names it.
type ShardedArena struct{}

// NewShardedArena returns an empty ShardedArena.
//
// Deprecated: nothing reads the result.
func NewShardedArena() *ShardedArena { return &ShardedArena{} }
