// Package arenapair is the golden fixture for the arenapair analyzer.
package arenapair

import (
	"sync"

	"github.com/eoml/eoml/internal/tensor"
)

func badLeak(a *tensor.LocalArena) float32 {
	x := a.Get(4, 4) // want "without any Put"
	return x.Data[0]
}

type holder struct {
	buf *tensor.T
}

func badFieldStore(h *holder, a *tensor.LocalArena) {
	h.buf = a.Get(8) // want "without any Put"
}

func goodPaired(a *tensor.LocalArena) {
	x := a.Get(4, 4)
	defer a.Put(x)
}

func goodLoopPaired(a *tensor.LocalArena) {
	for i := 0; i < 3; i++ {
		x := a.Get(8)
		a.Put(x)
	}
}

func goodPutInNestedLiteral(a *tensor.LocalArena) {
	x := a.Get(8)
	defer func() { a.Put(x) }()
}

func goodOwnershipReturnedDirect(a *tensor.LocalArena) *tensor.T {
	// The Layer.Infer contract: the caller owns the tensor and recycles.
	return a.Get(16)
}

func goodOwnershipReturnedViaVar(a *tensor.LocalArena) *tensor.T {
	out := a.Get(16)
	out.Data[0] = 1
	return out
}

func goodFieldStoreDocumented(h *holder, a *tensor.LocalArena) {
	//eomlvet:ignore arenapair ownership transfers to holder, whose release method Puts the buffer
	h.buf = a.Get(8)
}

func goodUnrelatedGet(p *sync.Pool) any {
	// sync.Pool.Get is not tensor.LocalArena.Get.
	return p.Get()
}

func goodOnePutPairsManyGets(a *tensor.LocalArena) *tensor.T {
	// Any Put counts as pairing evidence for all of the function's
	// Gets: the analyzer matches counts, not values.
	scratch := a.Get(8)
	out := a.Get(8)
	a.Put(scratch)
	return out
}

func badI8Leak(a *tensor.LocalArena) int8 {
	q := a.GetI8(64) // want "GetI8 without any PutI8"
	return q[0]
}

func badI8LeakDespiteFloatPut(a *tensor.LocalArena) int8 {
	// Int8 scratch is its own ownership class: a float Put does not
	// pair a quantized GetI8.
	x := a.Get(8)
	q := a.GetI8(64) // want "GetI8 without any PutI8"
	a.Put(x)
	return q[0]
}

func goodI8Paired(a *tensor.LocalArena) {
	q := a.GetI8(64)
	defer a.PutI8(q)
}

func goodI8Returned(a *tensor.LocalArena) []int8 {
	// Ownership transfer to the caller, as with float tensors.
	return a.GetI8(64)
}

func badAcquireLeak(s *tensor.ShardedArena) float32 {
	shard := s.Acquire()        // want "without any Release"
	return shard.Get(1).Data[0] // want "without any Put"
}

func goodAcquirePaired(s *tensor.ShardedArena) {
	shard := s.Acquire()
	defer s.Release(shard)
	x := shard.Get(8)
	shard.Put(x)
}

func goodAcquireReturned(s *tensor.ShardedArena) *tensor.LocalArena {
	// Checkout on behalf of the caller, who must Release.
	return s.Acquire()
}

type worker struct {
	shard *tensor.LocalArena
}

func goodAcquireStoreDocumented(w *worker, s *tensor.ShardedArena) {
	//eomlvet:ignore arenapair shard parked on the worker; its stop path Releases it
	w.shard = s.Acquire()
}
