package aicca

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/tile"
	"github.com/eoml/eoml/internal/trace"
)

func trainBatchLabeler(t *testing.T) *Labeler {
	t.Helper()
	l, _, err := Train(makeTiles(48, 5), trainCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// holdFirstEncode parks b's first flush on the test hook until release is
// closed (entered is closed once it is parked) and records every flush's
// tile count, readable through sizes.
func holdFirstEncode(b *BatchLabeler) (entered, release chan struct{}, sizes func() []int) {
	entered, release = make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var batches []int
	b.beforeEncode = func(tiles int) {
		mu.Lock()
		batches = append(batches, tiles)
		first := len(batches) == 1
		mu.Unlock()
		if first {
			close(entered)
			<-release
		}
	}
	return entered, release, func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), batches...)
	}
}

// waitQueued blocks until n submissions sit in b's backlog.
func waitQueued(t *testing.T, b *BatchLabeler, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		queued := len(b.pending)
		b.mu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d submissions queued", queued, n)
		}
	}
}

// TestBatchLabelerMatchesUnbatched: labels assigned through the batcher
// must equal the ones the plain labeler assigns.
func TestBatchLabelerMatchesUnbatched(t *testing.T) {
	l := trainBatchLabeler(t)
	want := makeTiles(30, 7)
	if _, err := l.LabelTiles(want); err != nil {
		t.Fatal(err)
	}
	got := makeTiles(30, 7)
	b := NewBatchLabeler(l, BatchConfig{MaxTiles: 16})
	defer b.Close()
	if err := b.LabelTiles(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Label != want[i].Label {
			t.Fatalf("tile %d: batched label %d, unbatched %d", i, got[i].Label, want[i].Label)
		}
	}
}

// TestBatchLabelerCoalesces proves coalescing happens during an in-flight
// flush, not in a timed window: the first encode is held on the test
// hook, N more callers submit behind it, and on release they are encoded
// as exactly one follow-up batch of their summed tile count — each caller
// getting the labels the plain labeler assigns, in its own order.
func TestBatchLabelerCoalesces(t *testing.T) {
	l := trainBatchLabeler(t)
	b := NewBatchLabeler(l, BatchConfig{MaxTiles: 64, MaxDelay: time.Hour})
	defer b.Close()
	entered, release, sizes := holdFirstEncode(b)

	const followers, perCaller = 5, 8
	submit := func(seed int64, n int, errs chan<- error) {
		got := makeTiles(n, seed)
		if err := b.LabelTiles(got); err != nil {
			errs <- err
			return
		}
		want := makeTiles(n, seed)
		if _, err := l.LabelTiles(want); err != nil {
			errs <- err
			return
		}
		for i := range want {
			if got[i].Label != want[i].Label {
				errs <- fmt.Errorf("seed %d tile %d: batched label %d, unbatched %d", seed, i, got[i].Label, want[i].Label)
				return
			}
		}
		errs <- nil
	}
	errs := make(chan error, followers+1)
	go submit(40, 3, errs)
	<-entered // the first caller is mid-encode
	for i := 0; i < followers; i++ {
		go submit(int64(41+i), perCaller, errs)
	}
	waitQueued(t, b, followers) // all behind the running flush
	close(release)
	for i := 0; i < followers+1; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fmt.Sprint(sizes()), fmt.Sprint([]int{3, followers * perCaller}); got != want {
		t.Fatalf("batches = %v, want %v", got, want)
	}
}

// TestBatchLabelerMaxTilesSplitsBacklog: a backlog larger than MaxTiles
// is flushed in capped batches, in arrival order.
func TestBatchLabelerMaxTilesSplitsBacklog(t *testing.T) {
	l := trainBatchLabeler(t)
	b := NewBatchLabeler(l, BatchConfig{MaxTiles: 16})
	defer b.Close()
	entered, release, sizes := holdFirstEncode(b)
	errs := make(chan error, 4)
	go func() { errs <- b.LabelTiles(makeTiles(2, 50)) }()
	<-entered
	for i := 0; i < 3; i++ {
		go func(i int) { errs <- b.LabelTiles(makeTiles(8, int64(51+i))) }(i)
		waitQueued(t, b, i+1) // one at a time, so arrival order is known
	}
	close(release)
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(sizes()); got != "[2 16 8]" {
		t.Fatalf("batches = %v, want [2 16 8]", got)
	}
}

// TestBatchLabelerLoneCallerNoTimer: a lone caller is encoded at once —
// no timer of any length stands between a submission and an idle encoder.
func TestBatchLabelerLoneCallerNoTimer(t *testing.T) {
	l := trainBatchLabeler(t)
	b := NewBatchLabeler(l, BatchConfig{MaxTiles: 1 << 20, MaxDelay: time.Hour})
	defer b.Close()
	tiles := makeTiles(4, 31)
	start := time.Now()
	if err := b.LabelTiles(tiles); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > time.Second/2 {
		t.Fatalf("lone caller waited %v", e)
	}
	for i, tt := range tiles {
		if tt.Label < 0 {
			t.Fatalf("tile %d unlabeled", i)
		}
	}
}

// TestBatchLabelerFileRoundTrip: LabelFile through the batcher from
// concurrent workers labels every tile of every file on disk.
func TestBatchLabelerFileRoundTrip(t *testing.T) {
	l := trainBatchLabeler(t)
	tl := trace.NewTimeline()
	b := NewBatchLabeler(l, BatchConfig{MaxTiles: 64, Timeline: tl, Epoch: time.Now()})
	defer b.Close()

	const files, perFile = 12, 8
	dir := t.TempDir()
	paths := make([]string, files)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("tiles%02d.nc", i))
		if err := tile.WriteNetCDF(paths[i], makeTiles(perFile, int64(20+i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, files)
	for _, p := range paths {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			if n, err := b.LabelFile(p); err != nil {
				errs <- err
			} else if n != perFile {
				errs <- fmt.Errorf("%s: labeled %d tiles, want %d", p, n, perFile)
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, p := range paths {
		back, err := tile.ReadNetCDF(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, tt := range back {
			if tt.Label < 0 {
				t.Fatalf("%s tile %d unlabeled", p, i)
			}
		}
	}
	// Each flush records a start sample (count>0) and an end sample.
	tiles := 0
	for _, s := range tl.Samples("inference.batch") {
		tiles += s.Count
	}
	if tiles != files*perFile {
		t.Fatalf("timeline accounts for %d tiles, want %d", tiles, files*perFile)
	}
}

// TestBatchLabelerClose: Close waits for accepted submissions, is
// idempotent, and later submissions fail cleanly instead of panicking.
func TestBatchLabelerClose(t *testing.T) {
	l := trainBatchLabeler(t)
	b := NewBatchLabeler(l, BatchConfig{MaxTiles: 1 << 20})
	entered, release, _ := holdFirstEncode(b)
	tiles := makeTiles(4, 32)
	done := make(chan error, 1)
	go func() { done <- b.LabelTiles(tiles) }()
	<-entered
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a flush was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i, tt := range tiles {
		if tt.Label < 0 {
			t.Fatalf("tile %d not labeled before Close returned", i)
		}
	}
	b.Close() // idempotent
	if err := b.LabelTiles(makeTiles(2, 33)); err == nil {
		t.Fatal("LabelTiles after Close did not fail")
	}
}

// TestBatchLabelerCloseWhileSubmitting: submitters racing Close either
// get their tiles labeled or the clean closed error — never a hang, a
// panic, or a half-labeled slice (run under -race).
func TestBatchLabelerCloseWhileSubmitting(t *testing.T) {
	l := trainBatchLabeler(t)
	b := NewBatchLabeler(l, BatchConfig{MaxTiles: 32})
	var wg sync.WaitGroup
	underway := make(chan struct{}, 1) // first completed call: Close lands mid-traffic
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tiles := makeTiles(3, int64(100*w+i))
				if err := b.LabelTiles(tiles); err != nil {
					return // closed: every later call fails too
				}
				for k, tt := range tiles {
					if tt.Label < 0 {
						t.Errorf("worker %d call %d tile %d: nil error but unlabeled", w, i, k)
					}
				}
				select {
				case underway <- struct{}{}:
				default:
				}
			}
		}(w)
	}
	<-underway
	b.Close()
	wg.Wait()
}
