// Package arenapair is the golden fixture for the arenapair analyzer.
package arenapair

import (
	"sync"

	"github.com/eoml/eoml/internal/tensor"
)

func badLeak() float32 {
	x := tensor.Get(4, 4) // want "without any Put"
	return x.Data[0]
}

type holder struct {
	buf *tensor.T
}

func badFieldStore(h *holder) {
	h.buf = tensor.Get(8) // want "without any Put"
}

func goodPaired() {
	x := tensor.Get(4, 4)
	defer tensor.Put(x)
}

func goodLoopPaired() {
	for i := 0; i < 3; i++ {
		x := tensor.Get(8)
		tensor.Put(x)
	}
}

func goodPutInNestedLiteral() {
	x := tensor.Get(8)
	defer func() { tensor.Put(x) }()
}

func goodOwnershipReturnedDirect() *tensor.T {
	// The Layer.Infer contract: the caller owns the tensor and recycles.
	return tensor.Get(16)
}

func goodOwnershipReturnedViaVar() *tensor.T {
	out := tensor.Get(16)
	out.Data[0] = 1
	return out
}

func goodFieldStoreDocumented(h *holder) {
	//eomlvet:ignore arenapair ownership transfers to holder, whose release method Puts the buffer
	h.buf = tensor.Get(8)
}

func goodUnrelatedGet(p *sync.Pool) any {
	// sync.Pool.Get is not tensor.Get.
	return p.Get()
}

func goodOnePutPairsManyGets() *tensor.T {
	// Any Put counts as pairing evidence for all of the function's
	// Gets: the analyzer matches counts, not values.
	scratch := tensor.Get(8)
	out := tensor.Get(8)
	tensor.Put(scratch)
	return out
}

func badI8Leak() int8 {
	q := tensor.GetI8(64) // want "GetI8 without any PutI8"
	return q[0]
}

func badI8LeakDespiteFloatPut() int8 {
	// Int8 scratch is its own ownership class: a float Put does not
	// pair a quantized GetI8.
	x := tensor.Get(8)
	q := tensor.GetI8(64) // want "GetI8 without any PutI8"
	tensor.Put(x)
	return q[0]
}

func goodI8Paired() {
	q := tensor.GetI8(64)
	defer tensor.PutI8(q)
}

func goodI8Returned() []int8 {
	// Ownership transfer to the caller, as with float tensors.
	return tensor.GetI8(64)
}
