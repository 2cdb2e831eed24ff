// Package watch implements the filesystem crawler behind the workflow's
// Monitor & Trigger stage: a scanner that detects newly created files
// once they are final and hands them to a trigger callback exactly once.
//
// Finality matters because the paper notes HDF read errors from partially
// written files. By default a file is final once its size has held still:
// across two caller-paced scans (ScanOnce) or, under Run — where Poke can
// put scans microseconds apart — for at least Interval, so a file growing
// in place is never triggered early. A directory whose writers all
// publish by temp-file + rename (every tile writer in this repository
// does) declares it with Config.RenamePublished; a matching name there
// only ever appears complete, so it triggers at first sighting.
//
// Run scans when Poked and on a fallback tick. In-process producers poke
// as each file lands, so a ready file never waits out a tick; the tick
// covers writers that cannot poke (other processes).
package watch

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config tunes a crawler.
type Config struct {
	// Dir is the directory to scan (recursively).
	Dir string
	// Pattern filters file names with filepath.Match; empty matches all.
	Pattern string
	// Interval is the fallback poll period, and how long a file's size
	// must hold under Run before the default rule calls it final.
	Interval time.Duration
	// RenamePublished declares that every writer into Dir publishes by
	// rename: it writes under a name IgnoreSuffixes or Pattern excludes
	// and renames the finished file into place, so a matching file is
	// final the first time a scan sees it. Programmatic only — a promise
	// about the code writing the directory, not an operator knob.
	RenamePublished bool
	// IgnoreSuffixes skips in-flight files (".part", ".tmp", ...).
	IgnoreSuffixes []string
}

func (c *Config) fillDefaults() error {
	if c.Dir == "" {
		return fmt.Errorf("watch: no directory")
	}
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.IgnoreSuffixes == nil {
		c.IgnoreSuffixes = []string{".part", ".tmp", ".transferring"}
	}
	return nil
}

// Event reports one newly stable file.
type Event struct {
	Path string
	Size int64
}

// sighting is the size a not-yet-final file was last seen at, and when
// that size was first observed.
type sighting struct {
	size  int64
	since time.Time
}

// Crawler scans a directory tree and emits each final file once.
type Crawler struct {
	cfg  Config
	poke chan struct{} // capacity 1: at most one scan request pending

	mu        sync.Mutex
	seen      map[string]sighting
	triggered map[string]bool
	scans     int
}

// NewCrawler builds a crawler.
func NewCrawler(cfg Config) (*Crawler, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	return &Crawler{
		cfg:       cfg,
		poke:      make(chan struct{}, 1),
		seen:      map[string]sighting{},
		triggered: map[string]bool{},
	}, nil
}

// Scans reports how many scans have run.
func (c *Crawler) Scans() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scans
}

// Poke asks Run to scan now instead of at the next tick. It never
// blocks; pokes that arrive before Run gets to them coalesce into one
// scan, which starts after the last of them and so sees what each
// announced.
func (c *Crawler) Poke() {
	select {
	case c.poke <- struct{}{}:
	default:
	}
}

// ScanOnce walks the tree and returns files that are new since the
// previous scan and final: same size in two consecutive scans (pacing
// the scans is the caller's job), or first sighting in a RenamePublished
// directory. Each file is returned at most once over the crawler's
// lifetime.
func (c *Crawler) ScanOnce() ([]Event, error) { return c.scan(0) }

// scan is ScanOnce with the default rule's hold time: a size must have
// been observed unchanged at two instants at least hold apart.
func (c *Crawler) scan(hold time.Duration) ([]Event, error) {
	type entry struct {
		path string
		size int64
	}
	var found []entry
	began := time.Now() // no later than any size read below
	err := filepath.Walk(c.cfg.Dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			// A file may vanish between readdir and stat; skip it.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if info.IsDir() {
			return nil
		}
		name := info.Name()
		for _, suf := range c.cfg.IgnoreSuffixes {
			if strings.HasSuffix(name, suf) {
				return nil
			}
		}
		if c.cfg.Pattern != "" {
			ok, err := filepath.Match(c.cfg.Pattern, name)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		found = append(found, entry{path: path, size: info.Size()})
		return nil
	})
	if err != nil {
		return nil, err
	}

	ended := time.Now() // no earlier than any size read above
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scans++
	var events []Event
	for _, f := range found {
		if c.triggered[f.path] {
			continue
		}
		final := c.cfg.RenamePublished
		if !final {
			if prev, known := c.seen[f.path]; known && prev.size == f.size {
				final = began.Sub(prev.since) >= hold
			} else {
				c.seen[f.path] = sighting{size: f.size, since: ended}
			}
		}
		if final {
			delete(c.seen, f.path)
			c.triggered[f.path] = true
			events = append(events, Event{Path: f.path, Size: f.size})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Path < events[j].Path })
	return events, nil
}

// Run scans on every Poke and every Interval until ctx is cancelled,
// invoking trigger for every batch of newly final files. Trigger errors
// stop the crawler and are returned.
func (c *Crawler) Run(ctx context.Context, trigger func(events []Event) error) error {
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		case <-c.poke:
		}
		events, err := c.scan(c.cfg.Interval)
		if err != nil {
			return err
		}
		if len(events) > 0 {
			if err := trigger(events); err != nil {
				return err
			}
		}
		// The fallback period restarts at the end of each scan, so two
		// tick-paced scans are a full Interval apart and an un-poked
		// file still triggers on the second tick that sees it.
		ticker.Reset(c.cfg.Interval)
	}
}

// DrainUntilIdle polls until idleScans consecutive scans produce no new
// events (or ctx is cancelled), collecting everything triggered. It is
// the synchronous variant used when downloads are known to be finished.
func (c *Crawler) DrainUntilIdle(ctx context.Context, idleScans int) ([]Event, error) {
	if idleScans <= 0 {
		idleScans = 2
	}
	var all []Event
	idle := 0
	for idle < idleScans {
		if ctx.Err() != nil {
			return all, ctx.Err()
		}
		events, err := c.ScanOnce()
		if err != nil {
			return all, err
		}
		if len(events) == 0 {
			idle++
		} else {
			idle = 0
			all = append(all, events...)
		}
		select {
		case <-ctx.Done():
			return all, ctx.Err()
		case <-time.After(c.cfg.Interval):
		}
	}
	return all, nil
}
