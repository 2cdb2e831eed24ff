package aicca

import (
	"fmt"
	"sync"
	"time"

	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/tile"
	"github.com/eoml/eoml/internal/trace"
)

// BatchConfig tunes the cross-file inference batcher.
type BatchConfig struct {
	// MaxTiles caps how many tiles one flush takes from the backlog (a
	// larger single submission still goes whole). Matching the encoder's
	// batch width (256) makes one full flush one full encode batch.
	MaxTiles int
	// Deprecated: MaxDelay is ignored since PR 13 — no submission is held
	// back for company any more, so there is no window to bound. It stays
	// only because the granule benchmark's batcher probe still sets it.
	MaxDelay time.Duration
	// Timeline, when set, receives one "inference.batch" span per flush
	// (tile count at flush start, zero at flush end).
	Timeline *trace.Timeline
	// Epoch is the workflow start used for Timeline offsets.
	Epoch time.Time
	// Metrics, when set, receives batch-size and flush-latency
	// histograms per flush. Nil is valid.
	Metrics *metrics.Registry
	// Precision, when non-empty, overrides the labeler's encode
	// precision for batches flushed through this batcher.
	Precision Precision
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxTiles <= 0 {
		c.MaxTiles = 256
	}
	if c.Epoch.IsZero() {
		c.Epoch = time.Now()
	}
	return c
}

// batchJob is one caller's tile slice waiting for a coalesced encode.
type batchJob struct {
	tiles []*tile.Tile
	// wake receives exactly one message (capacity 1, sends never block):
	// the encode result, or lead — the caller runs the next flush itself.
	wake chan wakeup
}

type wakeup struct {
	lead bool
	err  error
}

// BatchLabeler coalesces tiles from concurrent LabelFile/LabelTiles
// callers into shared encode batches. The paper's stage-4 flow fires one
// inference action per watched file; files are small (tens of tiles), so
// per-file encodes waste most of each batch whenever files queue up.
// Batching is natural, not timed: a submission that finds the encoder
// idle is encoded at once, and submissions that arrive during an encode
// share the next one (up to MaxTiles). Batches grow exactly when there
// is a backlog, and a lone file waits for nothing. There is no flusher
// goroutine: the submitter at the head of the backlog leads — it encodes
// the batch, wakes the followers with the result, and hands leadership
// to the next waiting submitter. Submission order is preserved per
// caller; labels are written into the submitted tiles in place, exactly
// as Labeler.LabelTiles does.
//
// No run uses it: every tile file is its own fleet task. It stays only
// because the granule benchmark's aicca.batcher_wait_ms probe still
// builds one, and goes with that probe.
type BatchLabeler struct {
	l   *Labeler
	cfg BatchConfig

	batchTiles   *metrics.Histogram
	flushSeconds *metrics.Histogram
	// beforeEncode, when set (tests), runs at the start of every flush.
	beforeEncode func(tiles int)

	inflight sync.WaitGroup // accepted submissions that have not returned
	mu       sync.Mutex
	// pending is the backlog in arrival order, next leader first. guarded by mu
	pending []*batchJob
	// flushing is true while a submitter leads; a backlog implies it. guarded by mu
	flushing bool
	// closed rejects new submissions. guarded by mu
	closed bool
}

// NewBatchLabeler builds a batcher; Close it when done.
func NewBatchLabeler(l *Labeler, cfg BatchConfig) *BatchLabeler {
	if cfg.Precision != "" && l != nil && l.Precision != cfg.Precision {
		// Shallow copy so the override stays local to this batcher: the
		// model and codebook are shared, the precision knob is not.
		cp := *l
		cp.Precision = cfg.Precision
		l = &cp
	}
	b := &BatchLabeler{l: l, cfg: cfg.withDefaults()}
	prec := PrecisionFloat32
	if l != nil && l.Precision != "" {
		prec = l.Precision
	}
	b.batchTiles = b.cfg.Metrics.Histogram("eoml_labeler_batch_tiles",
		"Tiles per coalesced encode batch at flush time.", metrics.SizeBuckets(),
		metrics.L("precision", string(prec)))
	b.flushSeconds = b.cfg.Metrics.Histogram("eoml_labeler_flush_seconds",
		"Wall-clock seconds per coalesced encode flush.", metrics.DurationBuckets(),
		metrics.L("precision", string(prec)))
	return b
}

// LabelTiles labels tiles (in place) in the next coalesced batch — at
// once when the encoder is idle — and blocks until that batch is done.
func (b *BatchLabeler) LabelTiles(tiles []*tile.Tile) error {
	if len(tiles) == 0 {
		return nil
	}
	j := &batchJob{tiles: tiles, wake: make(chan wakeup, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("aicca: batch labeler is closed")
	}
	b.inflight.Add(1)
	defer b.inflight.Done()
	b.pending = append(b.pending, j)
	lead := !b.flushing
	b.flushing = true
	b.mu.Unlock()
	if !lead {
		if w := <-j.wake; !w.lead {
			return w.err
		}
	}
	return b.lead()
}

// lead runs one flush for the caller at the head of the backlog: its job
// plus the followers that fit in MaxTiles share one Encode call (one pass
// through the tensor pool), then leadership passes to the next arrival.
func (b *BatchLabeler) lead() error {
	b.mu.Lock()
	n, count := 1, len(b.pending[0].tiles)
	for n < len(b.pending) && count+len(b.pending[n].tiles) <= b.cfg.MaxTiles {
		count += len(b.pending[n].tiles)
		n++
	}
	batch := b.pending[:n:n]
	b.pending = b.pending[n:]
	b.mu.Unlock()
	all := batch[0].tiles
	if n > 1 {
		all = make([]*tile.Tile, 0, count)
		for _, j := range batch {
			all = append(all, j.tiles...)
		}
	}
	if b.beforeEncode != nil {
		b.beforeEncode(count)
	}
	if tl := b.cfg.Timeline; tl != nil {
		tl.Record("inference.batch", time.Since(b.cfg.Epoch).Seconds(), count)
	}
	started := time.Now()
	_, err := b.l.LabelTiles(all)
	b.batchTiles.Observe(float64(count))
	b.flushSeconds.Observe(time.Since(started).Seconds())
	if tl := b.cfg.Timeline; tl != nil {
		tl.Record("inference.batch", time.Since(b.cfg.Epoch).Seconds(), 0)
	}
	for _, j := range batch[1:] {
		j.wake <- wakeup{err: err}
	}

	b.mu.Lock()
	var next *batchJob
	if len(b.pending) > 0 {
		next = b.pending[0]
	} else {
		b.flushing = false
	}
	b.mu.Unlock()
	if next != nil {
		next.wake <- wakeup{lead: true}
	}
	return err
}

// LabelFile reads a tile NetCDF, labels its tiles through the shared
// batch, and rewrites the file with labels appended, returning the tile
// count. File I/O runs on the caller (concurrent workers parse and write
// in parallel); only the encode is shared. Replaces Labeler.LabelFile.
func (b *BatchLabeler) LabelFile(path string) (int, error) {
	tiles, err := tile.ReadNetCDF(path)
	if err != nil {
		return 0, err
	}
	if len(tiles) == 0 {
		return 0, nil
	}
	if err := b.LabelTiles(tiles); err != nil {
		return 0, err
	}
	labels := make([]int16, len(tiles))
	for i, t := range tiles {
		labels[i] = t.Label
	}
	if err := tile.AppendLabels(path, labels); err != nil {
		return 0, err
	}
	return len(tiles), nil
}

// Close rejects further submissions (they fail cleanly) and returns once
// every accepted one has returned. Idempotent.
func (b *BatchLabeler) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.inflight.Wait()
}
