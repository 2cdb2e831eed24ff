// Package watch implements the filesystem crawler behind the workflow's
// Monitor & Trigger stage: a scanner that detects newly created files
// once they are final and hands them to a trigger callback exactly once.
//
// Finality matters because the paper notes HDF read errors from partially
// written files. By default a file is final once two consecutive scans
// see it at the same size; Run's scans are at least Interval apart, so
// under Run a file's size must hold for at least Interval. A
// directory whose writers all publish by temp-file + rename (every tile
// writer in this repository does) declares it with
// Config.RenamePublished; a matching name there only ever appears
// complete, so it triggers at first sighting.
//
// Run scans on a tick of Interval; a caller that needs a scan sooner
// (a last pass before shutdown, say) calls ScanOnce. The crawler is for
// files other processes write: an in-process producer hands its files
// on directly.
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
	// Interval is Run's poll period: the least time between two of its
	// scans, and so the least time a file's size holds before Run calls
	// it final.
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

// Crawler scans a directory tree and emits each final file once.
type Crawler struct {
	cfg Config

	mu        sync.Mutex
	seen      map[string]int64 // size of each not-yet-final file at the last scan
	triggered map[string]bool
}

// NewCrawler builds a crawler.
func NewCrawler(cfg Config) (*Crawler, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	return &Crawler{
		cfg:       cfg,
		seen:      map[string]int64{},
		triggered: map[string]bool{},
	}, nil
}

// ScanOnce walks the tree and returns files that are new since the
// previous scan and final: same size in two consecutive scans (pacing
// the scans is the caller's job), or first sighting in a RenamePublished
// directory. Each file is returned at most once over the crawler's
// lifetime.
func (c *Crawler) ScanOnce() ([]Event, error) {
	type entry struct {
		path string
		size int64
	}
	var found []entry
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

	c.mu.Lock()
	defer c.mu.Unlock()
	var events []Event
	for _, f := range found {
		if c.triggered[f.path] {
			continue
		}
		final := c.cfg.RenamePublished
		if !final {
			prev, known := c.seen[f.path]
			final = known && prev == f.size
			c.seen[f.path] = f.size
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

// Run scans every Interval until ctx is cancelled,
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
		}
		events, err := c.ScanOnce()
		if err != nil {
			return err
		}
		if len(events) > 0 {
			if err := trigger(events); err != nil {
				return err
			}
		}
		// The period restarts at the end of each scan, so two scans are
		// a full Interval apart and a file triggers on the second tick
		// that sees it at its final size.
		ticker.Reset(c.cfg.Interval)
	}
}
