package watch

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func write(t *testing.T, dir, name string, size int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScanOnceRequiresTwoStableScans(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCrawler(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	write(t, dir, "tiles.nc", 100)
	ev, err := c.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 0 {
		t.Fatalf("first scan triggered %v", ev)
	}
	ev, err = c.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Size != 100 {
		t.Fatalf("second scan: %v", ev)
	}
	// Never re-triggered.
	ev, err = c.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 0 {
		t.Fatalf("third scan re-triggered %v", ev)
	}
}

func TestGrowingFileNotTriggered(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCrawler(Config{Dir: dir})
	write(t, dir, "grow.nc", 10)
	c.ScanOnce()
	write(t, dir, "grow.nc", 20) // grew between scans
	ev, err := c.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 0 {
		t.Fatalf("growing file triggered: %v", ev)
	}
	ev, _ = c.ScanOnce()
	if len(ev) != 1 || ev[0].Size != 20 {
		t.Fatalf("stabilized file not triggered: %v", ev)
	}
}

func TestPatternAndSuffixFilters(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCrawler(Config{Dir: dir, Pattern: "*.nc"})
	write(t, dir, "keep.nc", 5)
	write(t, dir, "skip.txt", 5)
	write(t, dir, "partial.nc.part", 5)
	write(t, dir, "moving.nc.transferring", 5)
	c.ScanOnce()
	ev, err := c.ScanOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || filepath.Base(ev[0].Path) != "keep.nc" {
		t.Fatalf("events = %v", ev)
	}
}

func TestRecursiveScan(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCrawler(Config{Dir: dir})
	write(t, dir, "a/b/deep.nc", 7)
	c.ScanOnce()
	ev, _ := c.ScanOnce()
	if len(ev) != 1 {
		t.Fatalf("nested file not found: %v", ev)
	}
}

func TestRunTriggersCallback(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCrawler(Config{Dir: dir, Interval: 5 * time.Millisecond})
	var mu sync.Mutex
	var got []string
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- c.Run(ctx, func(events []Event) error {
			mu.Lock()
			for _, e := range events {
				got = append(got, filepath.Base(e.Path))
			}
			n := len(got)
			mu.Unlock()
			if n >= 2 {
				cancel()
			}
			return nil
		})
	}()
	write(t, dir, "one.nc", 1)
	time.Sleep(20 * time.Millisecond)
	write(t, dir, "two.nc", 2)
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("run err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("crawler never saw both files")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("triggered %v", got)
	}
}

func TestDrainUntilIdle(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCrawler(Config{Dir: dir, Interval: time.Millisecond})
	write(t, dir, "a.nc", 1)
	write(t, dir, "b.nc", 2)
	events, err := c.DrainUntilIdle(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("drained %v", events)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCrawler(Config{}); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestVanishedFileSkipped(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCrawler(Config{Dir: dir})
	p := write(t, dir, "ghost.nc", 3)
	c.ScanOnce()
	os.Remove(p)
	if _, err := c.ScanOnce(); err != nil {
		t.Fatalf("scan failed on removed file: %v", err)
	}
}

// publish writes a file the way every tile writer in the repo does:
// under an ignored temp name, then renamed into place.
func publish(t *testing.T, dir, name string, size int) {
	t.Helper()
	tmp := write(t, dir, name+".tmp", size)
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

// TestRenamePublishedTriggersAtFirstSighting: in a rename-published
// directory one scan is enough, and a hammer of concurrent pokes, ticks
// and direct scans still triggers every file exactly once.
func TestRenamePublishedTriggersAtFirstSighting(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCrawler(Config{Dir: dir, Pattern: "*.nc", RenamePublished: true, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	publish(t, dir, "first.nc", 10)
	ev, err := c.ScanOnce()
	if err != nil || len(ev) != 1 || filepath.Base(ev[0].Path) != "first.nc" {
		t.Fatalf("first scan: %v, %v", ev, err)
	}

	const files = 50
	var mu sync.Mutex
	count := map[string]int{}
	record := func(events []Event) error {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range events {
			count[filepath.Base(e.Path)]++
		}
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = c.Run(ctx, record)
	}()
	for h := 0; h < 4; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for ctx.Err() == nil {
				c.Poke()
				if h == 0 { // a second scanner racing Run's
					if ev, err := c.ScanOnce(); err == nil {
						_ = record(ev)
					}
				}
			}
		}(h)
	}
	for i := 0; i < files; i++ {
		publish(t, dir, fmt.Sprintf("f%02d.nc", i), 5)
		c.Poke()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(count)
		mu.Unlock()
		if n == files || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if len(count) != files {
		t.Fatalf("triggered %d of %d files", len(count), files)
	}
	for name, n := range count {
		if n != 1 {
			t.Fatalf("%s triggered %d times", name, n)
		}
	}
}

// TestPokedScansHoldForInterval is the partial-file hazard under Poke:
// back-to-back poked scans see a file grow and then hold its size, and
// the default rule still waits until the size has held for Interval.
func TestPokedScansHoldForInterval(t *testing.T) {
	const interval = 300 * time.Millisecond
	dir := t.TempDir()
	c, _ := NewCrawler(Config{Dir: dir, Interval: interval})
	triggered := make(chan time.Time, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx, func([]Event) error {
		triggered <- time.Now()
		return nil
	})
	pokeAndWait := func() {
		t.Helper()
		before := c.Scans()
		c.Poke()
		for deadline := time.Now().Add(5 * time.Second); c.Scans() == before; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("poke did not cause a scan")
			}
		}
	}
	write(t, dir, "grow.nc", 10)
	pokeAndWait()
	write(t, dir, "grow.nc", 20) // grew between two back-to-back scans
	grown := time.Now()
	pokeAndWait()
	pokeAndWait() // same size twice in a row — the old rule fired here
	pokeAndWait()
	select {
	case at := <-triggered: // stamped by the callback, so an early trigger shows
		if held := at.Sub(grown); held < interval {
			t.Fatalf("triggered %v after the file last grew, want at least %v", held, interval)
		}
	case <-time.After(10 * interval):
		t.Fatal("stable file never triggered")
	}
}

// TestPokeNeverBlocksAndCoalesces: with nobody receiving, a thousand
// pokes return at once and leave one scan pending, not a thousand.
func TestPokeNeverBlocksAndCoalesces(t *testing.T) {
	c, _ := NewCrawler(Config{Dir: t.TempDir(), Interval: time.Hour})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			c.Poke()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Poke blocked with no Run receiving")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx, func([]Event) error { return nil })
	for deadline := time.Now().Add(5 * time.Second); c.Scans() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("pending poke never scanned")
		}
	}
	time.Sleep(50 * time.Millisecond) // room for the scans that must not happen
	if n := c.Scans(); n != 1 {
		t.Fatalf("1000 pokes caused %d scans, want 1", n)
	}
}
