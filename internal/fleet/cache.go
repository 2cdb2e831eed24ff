package fleet

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/eoml/eoml/internal/bufpool"
	"github.com/eoml/eoml/internal/hdf"
)

// DownloadCache is a worker-local, content-addressed on-disk cache of
// archive granule files. The fleet ships granule *references*, so every
// re-lease, steal retry, or new run over the same day would otherwise
// re-fetch identical bytes from the archive; the cache makes those hits
// a local disk read instead.
//
// Keying: an entry is addressed by sha256 over (archive URL, sha256 of
// the archive token, file name) — the token participates hashed so two
// tenants with different credentials never share entries and the
// credential itself never appears on disk. Each entry is one file under
// the cache directory, `<key>.granule`: a hard link to the file the
// fetch wrote, placed by rename so a crash never leaves a partial entry.
//
// Integrity: every entry is an HDF-lite file, whose trailer CRC covers
// every byte. A miss decodes the fetched bytes before they become an
// entry, and every hit reads the whole entry once and decodes that
// buffer before linking it anywhere, so a torn, truncated or bit-rotted
// entry is evicted and the fetch falls through to the archive. The
// check guards against corruption only: anyone who can rewrite an entry
// can also forge its CRC.
//
// Size is bounded by LRU eviction, and concurrent fetches of one key
// coalesce: the first caller downloads, the rest wait and read the
// cache (singleflight), so two leases of one granule racing on a worker
// cost one archive fetch, not two.
type DownloadCache struct {
	dir string
	max int64 // byte budget; <=0 means unbounded

	mu sync.Mutex
	// entries maps key hash to its LRU element. guarded by mu
	entries map[string]*list.Element
	// order is the LRU list, most recently used at the front. guarded by mu
	order *list.List
	// total is the summed payload size of all entries. guarded by mu
	total int64
	// inflight coalesces concurrent fetches of one key. guarded by mu
	inflight map[string]*fetchCall

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	// coalesced counts fetches that waited on another caller's in-flight
	// fill: served without an archive request of their own, but not from
	// a resident entry either — neither a hit nor a miss.
	coalesced atomic.Int64
	// linkSeq numbers ingest's link temps.
	linkSeq atomic.Int64
}

// cacheEntry is one cached granule file.
type cacheEntry struct {
	key  string
	size int64
}

// fetchCall is one in-flight archive fetch that later callers wait on.
type fetchCall struct {
	done chan struct{}
	err  error
	path string // the filled destination of the leader's call
	// waiters counts followers blocked on done; written under the owning
	// cache's mu, read only by tests that must know the race is set up.
	waiters int
}

// CacheKey addresses one archive file.
type CacheKey struct {
	ArchiveURL string
	Token      string
	Name       string
}

// hash renders the content address of the key.
func (k CacheKey) hash() string {
	tok := sha256.Sum256([]byte(k.Token))
	h := sha256.New()
	h.Write([]byte(k.ArchiveURL))
	h.Write([]byte{0})
	h.Write(tok[:])
	h.Write([]byte{0})
	h.Write([]byte(k.Name))
	return hex.EncodeToString(h.Sum(nil))
}

// NewDownloadCache opens (or creates) a cache directory and rebuilds
// the LRU index from the `<key>.granule` entries already on disk, oldest
// first by mtime, so a restarted worker keeps its warm set; an entry is
// checked when it is next hit, not here. maxBytes <= 0 disables the size
// bound.
func NewDownloadCache(dir string, maxBytes int64) (*DownloadCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("fleet: download cache needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &DownloadCache{
		dir:      dir,
		max:      maxBytes,
		entries:  map[string]*list.Element{},
		order:    list.New(),
		inflight: map[string]*fetchCall{},
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type onDisk struct {
		key   string
		size  int64
		mtime int64
	}
	var found []onDisk
	for _, e := range ents {
		name := e.Name()
		ext := filepath.Ext(name)
		if ext == ".sha256" {
			// A content-hash sidecar from a version that kept one; the
			// entry's own CRC is its check now.
			os.Remove(filepath.Join(dir, name))
		}
		if ext != ".granule" {
			continue
		}
		key := name[:len(name)-len(".granule")]
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, onDisk{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	// Oldest first, so the front of the rebuilt LRU is the newest.
	for i := 0; i < len(found); i++ {
		for j := i + 1; j < len(found); j++ {
			if found[j].mtime < found[i].mtime {
				found[i], found[j] = found[j], found[i]
			}
		}
	}
	// No other goroutine can hold c yet, but the *Locked helpers declare
	// the mu invariant, so honor it here too.
	c.mu.Lock()
	for _, f := range found {
		c.entries[f.key] = c.order.PushFront(&cacheEntry{key: f.key, size: f.size})
		c.total += f.size
	}
	c.evictOverBudgetLocked()
	c.mu.Unlock()
	return c, nil
}

// Stats reports lifetime hit/miss/eviction counts.
func (c *DownloadCache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// Coalesced reports how many fetches were served by waiting on another
// caller's in-flight fill (counted as neither hit nor miss).
func (c *DownloadCache) Coalesced() int64 { return c.coalesced.Load() }

// SizeBytes reports the summed payload size of resident entries.
func (c *DownloadCache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Fetch materializes the file for key at destDir/<key.Name>. A cache
// hit links (or copies) the verified entry into place without touching
// the archive; a miss runs fill — which must download the file to the
// returned path — and then ingests the result into the cache.
// Concurrent fetches of one key coalesce onto a single fill; a waiter
// whose leader's fill fails retries as the new leader.
//
// The returned hit is true when this call made no archive fetch of its
// own: a resident entry, or a wait coalesced onto another caller's fill.
// Only the former counts as a hit in Stats; a cold fetch that coalesced
// onto another lease's download is counted in Coalesced instead, so the
// hit ratio of a cold cache reads 0.
//
// Fetch is FetchFile with the decoded file dropped: its miss reads the
// filled file once for the decode, so the file must be HDF-lite.
func (c *DownloadCache) Fetch(ctx context.Context, key CacheKey, destDir string, fill func(ctx context.Context) (string, error)) (string, bool, error) {
	path, in, hit, err := c.FetchFile(ctx, key, destDir, func(ctx context.Context) (string, []byte, error) {
		p, err := fill(ctx)
		if err != nil {
			return "", nil, err
		}
		data, err := bufpool.ReadFile(p)
		return p, data, err
	})
	in.Release()
	return path, hit, err
}

// Input is one granule input decoded from a buffer of the read pool
// (package bufpool): File's datasets alias that buffer. Release hands
// the buffer back, so call it only once nothing reads File. The zero
// Input holds nothing, and releasing it does nothing.
type Input struct {
	File *hdf.File
	buf  []byte
}

// Release hands the input's buffer back to the read pool and clears the
// input, so a second Release does nothing.
func (in *Input) Release() {
	if in.buf != nil {
		releaseBuffer(in.buf)
	}
	*in = Input{}
}

// releaseBuffer returns a released input's buffer to the read pool.
var releaseBuffer = bufpool.Put

// FetchFile is Fetch for a caller that reads the file next, and returns
// it decoded. Its fill returns the bytes it wrote to the path along with
// the path, and hands those bytes over: they become the returned
// input's buffer, or go back to the read pool at once if they fail. The
// decode is the cache's integrity check: its CRC covers every byte. On a
// miss the call decodes the fill's bytes before it ingests them; bytes
// that fail are neither cached nor left at the path, where the next
// fetch would take them for the file, and the call fails. On a hit it
// reads the entry once, into a pooled buffer, and decodes that buffer
// before it links the entry into destDir, so the file returned is
// decoded from the very bytes that passed; an entry that fails is
// evicted and refetched. The returned input is empty when the call
// waited on another caller's fill of the same destination; the file is
// then on disk at the returned path. The caller releases the input.
func (c *DownloadCache) FetchFile(ctx context.Context, key CacheKey, destDir string, fill func(ctx context.Context) (string, []byte, error)) (string, Input, bool, error) {
	kh := key.hash()
	dest := filepath.Join(destDir, key.Name)
	served := &c.hits // becomes &c.coalesced once this call has waited on a fill

	for {
		c.mu.Lock()
		if el, ok := c.entries[kh]; ok {
			c.order.MoveToFront(el)
			c.mu.Unlock()
			if in, err := c.materialize(kh, dest); err == nil {
				served.Add(1)
				return dest, in, true, nil
			}
			// Corrupted, truncated, or vanished entry: evict and fall
			// through to a real fetch.
			c.remove(kh)
		} else {
			c.mu.Unlock()
		}

		c.mu.Lock()
		if call, ok := c.inflight[kh]; ok {
			call.waiters++
			c.mu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return "", Input{}, false, ctx.Err()
			}
			if call.err != nil {
				// The leader failed, possibly on its own canceled lease:
				// retry as the new leader, so one lease's cancellation
				// never fails another's fetch.
				continue
			}
			served = &c.coalesced
			if call.path == dest {
				// The leader filled our exact destination.
				served.Add(1)
				return dest, Input{}, true, nil
			}
			// The leader filled another run's directory; serve ourselves
			// from the entry it ingested (loop re-checks the cache).
			continue
		}
		call := &fetchCall{done: make(chan struct{})}
		c.inflight[kh] = call
		c.mu.Unlock()

		path, data, err := fill(ctx)
		var in Input
		if err == nil {
			// Before the waiters wake, so none finds bytes that failed.
			if in, err = decodeFetched(path, data); err == nil {
				c.ingest(kh, path, data)
			}
		}
		c.mu.Lock()
		delete(c.inflight, kh)
		c.mu.Unlock()
		call.path, call.err = path, err
		close(call.done)
		if err != nil {
			return "", Input{}, false, err
		}
		c.misses.Add(1)
		return path, in, false, nil
	}
}

// decodeFetched decodes data, the bytes a fetch just wrote to path, into
// an input that owns them. Bytes that fail — a torn or corrupted
// transfer — are removed from path, so no later fetch takes them for the
// file, and go back to the read pool.
func decodeFetched(path string, data []byte) (Input, error) {
	f, err := hdf.Decode(data)
	if err != nil {
		os.Remove(path)
		releaseBuffer(data)
		return Input{}, fmt.Errorf("%s: %w", path, err)
	}
	return Input{File: f, buf: data}, nil
}

// entryPath names an entry's file.
func (c *DownloadCache) entryPath(kh string) string { return filepath.Join(c.dir, kh+".granule") }

// materialize reads the entry for kh once, into a pooled buffer, decodes
// those bytes — which checks their CRC — links the entry to dest and
// returns the decoded input, so the caller reads exactly what was
// checked. An existing dest — another hit on the same destination won
// the link — is left alone; where the filesystem refuses a link, the
// checked bytes are written to dest instead.
func (c *DownloadCache) materialize(kh, dest string) (Input, error) {
	entry := c.entryPath(kh)
	data, err := bufpool.ReadFile(entry)
	if err != nil {
		return Input{}, err
	}
	in := Input{buf: data}
	if in.File, err = hdf.Decode(data); err != nil {
		in.Release()
		return Input{}, fmt.Errorf("fleet: cache entry %s: %w", kh, err)
	}
	if err := os.MkdirAll(filepath.Dir(dest), 0o755); err != nil {
		in.Release()
		return Input{}, err
	}
	if err := os.Link(entry, dest); err == nil || errors.Is(err, fs.ErrExist) {
		return in, nil
	}
	// Cross-device or link-hostile filesystem.
	if err := writeAtomic(dest, data); err != nil {
		in.Release()
		return Input{}, err
	}
	return in, nil
}

// ingest adds the file a fill just wrote at src, whose content is data
// and already decoded, to the cache under key kh. The entry is a hard
// link to src, so a fetch writes its bytes to disk once; where the
// filesystem refuses a link, data is written into the cache instead. A
// failed ingest is swallowed, because the download itself succeeded and
// the caller has its file — the cache just stays cold for that key.
func (c *DownloadCache) ingest(kh, src string, data []byte) {
	size := int64(len(data))
	if c.max > 0 && size > c.max {
		return // larger than the whole budget; never cacheable
	}
	if err := c.linkAtomic(src, c.entryPath(kh), data); err != nil {
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[kh]; ok {
		// Re-ingest of an existing key (concurrent fill): replace size.
		c.total += size - el.Value.(*cacheEntry).size
		el.Value.(*cacheEntry).size = size
		c.order.MoveToFront(el)
	} else {
		c.entries[kh] = c.order.PushFront(&cacheEntry{key: kh, size: size})
		c.total += size
	}
	c.evictOverBudgetLocked()
	c.mu.Unlock()
}

// remove evicts one entry (failed decode, vanished file).
func (c *DownloadCache) remove(kh string) {
	c.mu.Lock()
	if el, ok := c.entries[kh]; ok {
		c.evictLocked(el)
	}
	c.mu.Unlock()
}

// evictOverBudgetLocked drops least-recently-used entries until the
// budget holds. Caller holds mu.
func (c *DownloadCache) evictOverBudgetLocked() {
	if c.max <= 0 {
		return
	}
	for c.total > c.max {
		back := c.order.Back()
		if back == nil {
			return
		}
		c.evictLocked(back)
	}
}

// evictLocked removes one LRU element and its file. Caller holds mu.
func (c *DownloadCache) evictLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.entries, ent.key)
	c.total -= ent.size
	c.evictions.Add(1)
	os.Remove(c.entryPath(ent.key))
}

// linkAtomic makes dst a hard link to src, replacing any file there: it
// links under a temp name unique to this call (pid and sequence number)
// beside dst, then renames. Where the filesystem refuses the link it
// writes data, src's content, instead.
func (c *DownloadCache) linkAtomic(src, dst string, data []byte) error {
	tmp := fmt.Sprintf("%s.link.%d.%d", dst, os.Getpid(), c.linkSeq.Add(1))
	if err := os.Link(src, tmp); err != nil {
		return writeAtomic(dst, data)
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// writeAtomic writes data to dst through a temp file of its own beside
// dst and a rename, so concurrent writers never share a temp and dst
// never names a partial file.
func writeAtomic(dst string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".part*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, dst)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// ResultCache memoizes completed task results keyed on the task's
// granule-ref identity, bounded LRU. A requeued or stolen task whose
// work already finished on this worker returns the memoized result
// instead of recomputing — the coordinator's exactly-once result
// contract already discards duplicates, so the memo only changes the
// cost of at-least-once execution, never its outcome.
type ResultCache struct {
	max int

	mu sync.Mutex
	// entries maps result key to its LRU element. guarded by mu
	entries map[string]*list.Element
	// order is the LRU list, most recently used at the front. guarded by mu
	order *list.List

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// resultEntry is one memoized result.
type resultEntry struct {
	key string
	val any
}

// NewResultCache builds a memo bounded to max entries (<=0 means a
// default of 1024).
func NewResultCache(max int) *ResultCache {
	if max <= 0 {
		max = 1024
	}
	return &ResultCache{max: max, entries: map[string]*list.Element{}, order: list.New()}
}

// Get returns the memoized result for key, if any.
func (r *ResultCache) Get(key string) (any, bool) {
	r.mu.Lock()
	el, ok := r.entries[key]
	if !ok {
		r.mu.Unlock()
		r.misses.Add(1)
		return nil, false
	}
	r.order.MoveToFront(el)
	v := el.Value.(*resultEntry).val
	r.mu.Unlock()
	r.hits.Add(1)
	return v, true
}

// Put memoizes a completed result.
func (r *ResultCache) Put(key string, v any) {
	r.mu.Lock()
	if el, ok := r.entries[key]; ok {
		el.Value.(*resultEntry).val = v
		r.order.MoveToFront(el)
	} else {
		r.entries[key] = r.order.PushFront(&resultEntry{key: key, val: v})
		for r.order.Len() > r.max {
			back := r.order.Back()
			delete(r.entries, back.Value.(*resultEntry).key)
			r.order.Remove(back)
			r.evictions.Add(1)
		}
	}
	r.mu.Unlock()
}

// Delete drops a stale memo (its on-disk artifact vanished).
func (r *ResultCache) Delete(key string) {
	r.mu.Lock()
	if el, ok := r.entries[key]; ok {
		delete(r.entries, key)
		r.order.Remove(el)
	}
	r.mu.Unlock()
}

// Stats reports lifetime hit/miss/eviction counts.
func (r *ResultCache) Stats() (hits, misses, evictions int64) {
	return r.hits.Load(), r.misses.Load(), r.evictions.Load()
}
