package main

import (
	"os"
	"strings"
	"sync"
	"time"
)

// outboxPoll is how often the benchmark looks for newly labeled files.
const outboxPoll = time.Millisecond

// outboxWatcher records when each labeled tile file first becomes
// visible in a run's OutboxDir. It is the benchmark's only clock on a
// granule's completion: the pipeline moves a file there by rename, after
// its labels are appended.
type outboxWatcher struct {
	dir  string
	want int

	mu   sync.Mutex
	seen map[string]time.Time

	stop chan struct{}
	done chan struct{}
}

// watchOutbox starts polling dir (which need not exist yet). Polling
// idles once want files have been seen.
func watchOutbox(dir string, want int) *outboxWatcher {
	w := &outboxWatcher{
		dir:  dir,
		want: want,
		seen: map[string]time.Time{},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go w.run()
	return w
}

func (w *outboxWatcher) run() {
	defer close(w.done)
	ticker := time.NewTicker(outboxPoll)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			if w.scan() >= w.want {
				<-w.stop
				return
			}
		}
	}
}

// scan stamps every tile file not seen before and returns how many have
// been seen so far.
func (w *outboxWatcher) scan() int {
	entries, err := os.ReadDir(w.dir)
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		return len(w.seen) // the run has not created its outbox yet
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "tiles.") || !strings.HasSuffix(name, ".nc") {
			continue
		}
		if _, ok := w.seen[name]; !ok {
			w.seen[name] = now
		}
	}
	return len(w.seen)
}

// Stop ends polling and returns the first-seen instant of every file.
func (w *outboxWatcher) Stop() map[string]time.Time {
	close(w.stop)
	<-w.done
	w.scan() // files that landed inside the last poll period
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seen
}

// arrival is one open-loop send: when it was due and how late it went.
type arrival struct {
	Due  time.Time
	Late time.Duration
}

// feedOnSchedule sends ids[i] at start + i*gap regardless of how fast
// the receiver drains: out must be buffered to at least len(ids), so a
// send never blocks and a stalled pipeline cannot slow the generator
// down. It closes out after the last send and returns each arrival's due
// time and lateness; latency is measured from Due, which charges a
// generator stall to the arrivals behind it.
func feedOnSchedule(start time.Time, gap time.Duration, ids []int, out chan<- int) []arrival {
	if cap(out) < len(ids) {
		panic("feedOnSchedule: channel buffer smaller than the schedule")
	}
	arrivals := make([]arrival, len(ids))
	for i, id := range ids {
		due := start.Add(time.Duration(i) * gap)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		out <- id
		arrivals[i] = arrival{Due: due, Late: time.Since(due)}
	}
	close(out)
	return arrivals
}
