package fleet

import (
	"context"
	"sync"
)

// Prefetcher overlaps fetch with compute on a worker: hung off the
// endpoint's OnEnqueue hook, it sees every leased task while it waits
// for a compute slot and fetches its archive inputs ahead of execution.
// With lease-ahead capacity (WorkerConfig.PrefetchWindow) the endpoint
// queue holds the next k granules, so while granule N extracts and
// labels, granules N+1..N+k stream in concurrently —
// through the same per-tenant quota and download cache the kernels use,
// so the overlap never exceeds the facility's request-rate agreement
// and never double-fetches (the cache's singleflight coalesces a
// prefetch racing its own compute slot).
type Prefetcher struct {
	k *Kernels
	// sem bounds concurrent prefetch fetches to the window size.
	sem    chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewPrefetcher builds a prefetcher over the worker's kernels; window
// bounds how many granules fetch ahead concurrently (<= 0 disables —
// OnEnqueue becomes a no-op).
func NewPrefetcher(k *Kernels, window int) *Prefetcher {
	ctx, cancel := context.WithCancel(context.Background())
	p := &Prefetcher{k: k, ctx: ctx, cancel: cancel}
	if window > 0 {
		p.sem = make(chan struct{}, window)
	}
	return p
}

// OnEnqueue observes one accepted task (compute.EndpointConfig's hook
// contract: called outside the endpoint lock, must not block). Only
// granule tasks carry archive inputs worth fetching ahead; when the
// window is already full the task is skipped — its compute slot fetches
// as usual, cache-assisted.
func (p *Prefetcher) OnEnqueue(function string, args map[string]any) {
	if p.sem == nil || function != GranuleFunction {
		return
	}
	select {
	case p.sem <- struct{}{}:
	default:
		return // window full; no backpressure on the enqueue path
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer func() { <-p.sem }()
		p.k.prefetchInputs(p.ctx, args)
	}()
}

// Close cancels in-flight prefetches and waits for them to unwind.
func (p *Prefetcher) Close() {
	p.cancel()
	p.wg.Wait()
}
