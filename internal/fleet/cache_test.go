package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eoml/eoml/internal/hdf"
)

// hdfPayload returns a small valid HDF-lite file holding content as its
// one uint8 dataset, "v": every cache entry must decode, and its CRC is
// what catches a corrupted one. Equal-length contents encode to
// equal-length files.
func hdfPayload(t *testing.T, content string) string {
	t.Helper()
	f := hdf.NewFile()
	ds, err := hdf.NewUint8("v", []int{len(content)}, []byte(content))
	if err == nil {
		err = f.Add(ds)
	}
	var buf bytes.Buffer
	if err == nil {
		err = hdf.Write(&buf, f)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// payloadOf returns the content hdfPayload encoded into f.
func payloadOf(t *testing.T, f *hdf.File) []byte {
	t.Helper()
	if f == nil {
		t.Fatal("no decoded file")
	}
	ds, err := f.Dataset("v")
	if err != nil {
		t.Fatal(err)
	}
	return ds.Raw()
}

// cacheFill returns a fill func that writes content at destDir/name and
// counts invocations.
func cacheFill(t *testing.T, destDir, name, content string, calls *atomic.Int64) func(context.Context) (string, error) {
	t.Helper()
	return func(context.Context) (string, error) {
		calls.Add(1)
		path := filepath.Join(destDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return "", err
		}
		return path, nil
	}
}

func TestDownloadCacheHitSkipsFill(t *testing.T) {
	cache, err := NewDownloadCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{ArchiveURL: "http://archive", Token: "tok", Name: "g1.hdf"}
	var calls atomic.Int64
	payload := hdfPayload(t, "payload-1")

	dir1 := t.TempDir()
	path, hit, err := cache.Fetch(context.Background(), key, dir1, cacheFill(t, dir1, key.Name, payload, &calls))
	if err != nil || hit {
		t.Fatalf("first fetch: path=%q hit=%v err=%v", path, hit, err)
	}

	dir2 := t.TempDir()
	path, hit, err = cache.Fetch(context.Background(), key, dir2, func(context.Context) (string, error) {
		t.Fatal("fill ran on a warm key")
		return "", nil
	})
	if err != nil || !hit {
		t.Fatalf("second fetch: hit=%v err=%v", hit, err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != payload {
		t.Fatalf("materialized content %q err=%v", got, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("fill ran %d times, want 1", calls.Load())
	}
	hits, misses, _ := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestDownloadCacheKeysSeparateTokens(t *testing.T) {
	cache, err := NewDownloadCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	for i, tok := range []string{"alice", "bob"} {
		dir := t.TempDir()
		key := CacheKey{ArchiveURL: "http://archive", Token: tok, Name: "g.hdf"}
		_, hit, err := cache.Fetch(context.Background(), key, dir, cacheFill(t, dir, key.Name, hdfPayload(t, fmt.Sprintf("tenant-%d", i)), &calls))
		if err != nil || hit {
			t.Fatalf("tenant %d: hit=%v err=%v", i, hit, err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("fill ran %d times, want 2 (distinct tokens must not share entries)", calls.Load())
	}
}

func TestDownloadCacheLRUEviction(t *testing.T) {
	// Budget fits two payloads of one size; inserting a third evicts the
	// least recently used.
	a, b, c := hdfPayload(t, "aaaaaaaa"), hdfPayload(t, "bbbbbbbb"), hdfPayload(t, "cccccccc")
	budget := 2 * int64(len(a))
	cache, err := NewDownloadCache(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fetch := func(name, content string) {
		t.Helper()
		dir := t.TempDir()
		var calls atomic.Int64
		if _, _, err := cache.Fetch(ctx, CacheKey{ArchiveURL: "u", Token: "t", Name: name}, dir, cacheFill(t, dir, name, content, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	fetch("a", a)
	fetch("b", b)
	// Touch a so b becomes LRU.
	dir := t.TempDir()
	if _, hit, err := cache.Fetch(ctx, CacheKey{ArchiveURL: "u", Token: "t", Name: "a"}, dir, nil); err != nil || !hit {
		t.Fatalf("touch a: hit=%v err=%v", hit, err)
	}
	fetch("c", c)

	if got := cache.SizeBytes(); got != budget {
		t.Fatalf("cache size %d, want %d", got, budget)
	}
	_, _, evictions := cache.Stats()
	if evictions != 1 {
		t.Fatalf("evictions=%d, want 1", evictions)
	}
	// b must refetch; a must still hit.
	var calls atomic.Int64
	dirB := t.TempDir()
	if _, hit, err := cache.Fetch(ctx, CacheKey{ArchiveURL: "u", Token: "t", Name: "b"}, dirB, cacheFill(t, dirB, "b", b, &calls)); err != nil || hit {
		t.Fatalf("refetch b: hit=%v err=%v", hit, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("b fill ran %d times, want 1", calls.Load())
	}
}

// TestDownloadCacheCorruptionEvictsAndRefetches: one flipped byte
// anywhere in an entry — its header, a dataset, the CRC trailer — or a
// truncated or replaced entry, changed behind the cache's back, fails
// the next hit's decode, which evicts the entry and refetches it; the
// repaired entry is trustworthy again.
func TestDownloadCacheCorruptionEvictsAndRefetches(t *testing.T) {
	good := hdfPayload(t, "good-bytes")
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"head", func(b []byte) []byte { b[0] ^= 0x01; return b }},
		{"dataset", func(b []byte) []byte { b[len(b)-4-len("good-bytes")/2] ^= 0x40; return b }},
		{"crc", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"replaced", func([]byte) []byte { return []byte("trunc") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := NewDownloadCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			key := CacheKey{ArchiveURL: "u", Token: "t", Name: "g.hdf"}
			var calls atomic.Int64
			d1 := t.TempDir()
			if _, _, err := cache.Fetch(ctx, key, d1, cacheFill(t, d1, key.Name, good, &calls)); err != nil {
				t.Fatal(err)
			}
			entry := filepath.Join(dir, key.hash()+".granule")
			if err := os.WriteFile(entry, tc.corrupt([]byte(good)), 0o644); err != nil {
				t.Fatal(err)
			}

			d2 := t.TempDir()
			path, hit, err := cache.Fetch(ctx, key, d2, cacheFill(t, d2, key.Name, good, &calls))
			if err != nil || hit || calls.Load() != 2 {
				t.Fatalf("corrupted entry: hit=%v err=%v fills=%d, want a refetch", hit, err, calls.Load())
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != good {
				t.Fatalf("refetched %d bytes, err %v", len(got), err)
			}
			if _, _, evictions := cache.Stats(); evictions != 1 {
				t.Fatalf("evictions=%d, want 1", evictions)
			}
			if _, hit, err := cache.Fetch(ctx, key, t.TempDir(), nil); err != nil || !hit {
				t.Fatalf("after the refetch: hit=%v err=%v", hit, err)
			}
		})
	}
}

// TestDownloadCacheRejectsCorruptFill: a miss whose fetched bytes fail
// their decode fails, is not ingested, and leaves no file at the
// destination; the next fetch of the key goes to the archive again.
func TestDownloadCacheRejectsCorruptFill(t *testing.T) {
	cache, err := NewDownloadCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := CacheKey{ArchiveURL: "u", Token: "t", Name: "g.hdf"}
	good := hdfPayload(t, "good-bytes")
	torn := good[:len(good)/2]
	var calls atomic.Int64
	dest := t.TempDir()
	if _, _, err := cache.Fetch(ctx, key, dest, cacheFill(t, dest, key.Name, torn, &calls)); err == nil {
		t.Fatal("a torn fill was served")
	}
	if _, err := os.Stat(filepath.Join(dest, key.Name)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the torn file was left at the destination: %v", err)
	}
	if n := cache.SizeBytes(); n != 0 {
		t.Fatalf("the torn fill was ingested: %d bytes cached", n)
	}
	path, hit, err := cache.Fetch(ctx, key, dest, cacheFill(t, dest, key.Name, good, &calls))
	if err != nil || hit || calls.Load() != 2 {
		t.Fatalf("refetch: hit=%v err=%v fills=%d", hit, err, calls.Load())
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != good {
		t.Fatalf("refetched %d bytes, err %v", len(got), err)
	}
}

func TestDownloadCacheSingleflight(t *testing.T) {
	cache, err := NewDownloadCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{ArchiveURL: "u", Token: "t", Name: "g.hdf"}
	destDir := t.TempDir()
	var calls atomic.Int64
	shared := hdfPayload(t, "shared")
	gate := make(chan struct{})
	fill := func(context.Context) (string, error) {
		calls.Add(1)
		<-gate
		path := filepath.Join(destDir, key.Name)
		if err := os.WriteFile(path, []byte(shared), 0o644); err != nil {
			return "", err
		}
		return path, nil
	}

	const racers = 8
	var wg sync.WaitGroup
	errs := make([]error, racers)
	started := make(chan struct{}, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			_, _, errs[i] = cache.Fetch(context.Background(), key, destDir, fill)
		}(i)
	}
	for i := 0; i < racers; i++ {
		<-started
	}
	// Hold the leader's fill until every other racer is parked on it, so
	// none can arrive late and find the entry already resident.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		cache.mu.Lock()
		waiting := 0
		if call := cache.inflight[key.hash()]; call != nil {
			waiting = call.waiters
		}
		cache.mu.Unlock()
		if waiting == racers-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d racers coalesced onto the fill", waiting, racers-1)
		}
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("fill ran %d times under contention, want 1", calls.Load())
	}
	// A cold fetch that coalesced onto the in-flight download is neither
	// a hit nor a miss: the cache was empty, and only the leader fetched.
	hits, misses, _ := cache.Stats()
	if hits != 0 || misses != 1 || cache.Coalesced() != racers-1 {
		t.Fatalf("cold coalesced fetch: hits=%d misses=%d coalesced=%d, want 0/1/%d",
			hits, misses, cache.Coalesced(), racers-1)
	}
	// The entry is resident now: the next fetch is a real hit.
	if _, hit, err := cache.Fetch(context.Background(), key, t.TempDir(), nil); err != nil || !hit {
		t.Fatalf("warm fetch: hit=%v err=%v", hit, err)
	}
	if hits, _, _ := cache.Stats(); hits != 1 {
		t.Fatalf("warm fetch counted %d hits, want 1", hits)
	}
}

// TestDownloadCacheWaiterOutlivesCanceledLeader: a fetch parked on
// another caller's fill does not inherit that fill's failure. When the
// leader's own context is canceled mid-fill, the waiter retries as the
// new leader and succeeds.
func TestDownloadCacheWaiterOutlivesCanceledLeader(t *testing.T) {
	cache, err := NewDownloadCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{ArchiveURL: "u", Token: "t", Name: "g.hdf"}
	var calls atomic.Int64
	payload := hdfPayload(t, "data")
	filling := make(chan struct{})
	fill := func(destDir string) func(context.Context) (string, error) {
		return func(ctx context.Context) (string, error) {
			if calls.Add(1) == 1 {
				close(filling)
				<-ctx.Done() // the first fill lasts until its lease is dropped
				return "", ctx.Err()
			}
			path := filepath.Join(destDir, key.Name)
			return path, os.WriteFile(path, []byte(payload), 0o644)
		}
	}

	leaderCtx, drop := context.WithCancel(context.Background())
	defer drop()
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := cache.Fetch(leaderCtx, key, t.TempDir(), fill(t.TempDir()))
		leaderDone <- err
	}()
	<-filling
	waiterDir := t.TempDir()
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := cache.Fetch(context.Background(), key, waiterDir, fill(waiterDir))
		waiterDone <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		cache.mu.Lock()
		waiting := cache.inflight[key.hash()].waiters
		cache.mu.Unlock()
		if waiting == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second fetch never parked on the first fill")
		}
	}
	drop()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader = %v, want context.Canceled", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter failed with its canceled leader: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("fill ran %d times, want 2 (the canceled leader, then the waiter)", n)
	}
	if _, err := os.Stat(filepath.Join(waiterDir, key.Name)); err != nil {
		t.Fatalf("waiter's file: %v", err)
	}
}

func TestDownloadCacheRebuildsFromDisk(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewDownloadCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{ArchiveURL: "u", Token: "t", Name: "g.hdf"}
	var calls atomic.Int64
	persisted := hdfPayload(t, "persisted")
	d1 := t.TempDir()
	if _, _, err := cache.Fetch(context.Background(), key, d1, cacheFill(t, d1, key.Name, persisted, &calls)); err != nil {
		t.Fatal(err)
	}

	// A restarted worker reopens the same directory and keeps the warm set.
	reopened, err := NewDownloadCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2 := t.TempDir()
	path, hit, err := reopened.Fetch(context.Background(), key, d2, nil)
	if err != nil || !hit {
		t.Fatalf("fetch after reopen: hit=%v err=%v", hit, err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != persisted {
		t.Fatalf("content %q after reopen", got)
	}
}

// TestDownloadCacheReopensSidecarLayout: a directory written by a
// version that kept a `.sha256` content-hash sidecar beside each entry
// reopens with every entry warm — each fetch a hit, no fill — and no
// sidecar left behind.
func TestDownloadCacheReopensSidecarLayout(t *testing.T) {
	dir := t.TempDir()
	var keys []CacheKey
	for i := 0; i < 3; i++ {
		key := CacheKey{ArchiveURL: "u", Token: "t", Name: fmt.Sprintf("g%d.hdf", i)}
		payload := hdfPayload(t, key.Name)
		sum := sha256.Sum256([]byte(payload))
		if err := os.WriteFile(filepath.Join(dir, key.hash()+".granule"), []byte(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key.hash()+".sha256"), []byte(hex.EncodeToString(sum[:])), 0o644); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}

	cache, err := NewDownloadCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sidecars, _ := filepath.Glob(filepath.Join(dir, "*.sha256")); len(sidecars) != 0 {
		t.Fatalf("%d sidecars left after reopen", len(sidecars))
	}
	var calls atomic.Int64
	for _, key := range keys {
		dest := t.TempDir()
		path, hit, err := cache.Fetch(context.Background(), key, dest, cacheFill(t, dest, key.Name, hdfPayload(t, key.Name), &calls))
		if err != nil || !hit {
			t.Fatalf("%s after reopen: hit=%v err=%v", key.Name, hit, err)
		}
		if got, _ := os.ReadFile(path); string(got) != hdfPayload(t, key.Name) {
			t.Fatalf("%s: content %q after reopen", key.Name, got)
		}
	}
	if hits, misses, _ := cache.Stats(); calls.Load() != 0 || hits != int64(len(keys)) || misses != 0 {
		t.Fatalf("fills=%d hits=%d misses=%d, want 0/%d/0", calls.Load(), hits, misses, len(keys))
	}
}

func TestResultCacheMemoizesAndEvicts(t *testing.T) {
	rc := NewResultCache(2)
	if _, ok := rc.Get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	rc.Put("a", 1)
	rc.Put("b", 2)
	if v, ok := rc.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("get a = %v %v", v, ok)
	}
	// b is now LRU; inserting c evicts it.
	rc.Put("c", 3)
	if _, ok := rc.Get("b"); ok {
		t.Fatal("b survived past the bound")
	}
	if v, ok := rc.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("a evicted wrongly: %v %v", v, ok)
	}
	hits, misses, evictions := rc.Stats()
	if hits != 2 || misses != 2 || evictions != 1 {
		t.Fatalf("stats hits=%d misses=%d evictions=%d", hits, misses, evictions)
	}
	rc.Delete("a")
	if _, ok := rc.Get("a"); ok {
		t.Fatal("a survived Delete")
	}
}

// TestDownloadCacheConcurrentHitsKeepEntry: many hits materializing one
// resident entry into one destination at once all succeed from the
// entry. The one whose link loses to another's finds the destination
// already there, which is success, not a reason to evict a verified
// entry and refetch it from the archive.
func TestDownloadCacheConcurrentHitsKeepEntry(t *testing.T) {
	// More Ps than CPUs: the OS interleaves the racers' threads, which
	// lines their verify-then-link steps up often enough to race.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	cache, err := NewDownloadCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{ArchiveURL: "u", Token: "t", Name: "g.hdf"}
	payload := hdfPayload(t, strings.Repeat("granule-bytes.", 1<<14)) // ~230 kB: decoding spans the race
	var calls atomic.Int64
	d0 := t.TempDir()
	if _, _, err := cache.Fetch(context.Background(), key, d0, cacheFill(t, d0, key.Name, payload, &calls)); err != nil {
		t.Fatal(err)
	}

	const rounds, racers = 60, 16
	for r := 0; r < rounds; r++ {
		dest := t.TempDir()
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, racers)
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				var hit bool
				if _, hit, errs[i] = cache.Fetch(context.Background(), key, dest, cacheFill(t, dest, key.Name, payload, &calls)); errs[i] == nil && !hit {
					errs[i] = errors.New("served as a miss")
				}
			}(i)
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d, racer %d: %v", r, i, err)
			}
		}
		if got, err := os.ReadFile(filepath.Join(dest, key.Name)); err != nil || string(got) != payload {
			t.Fatalf("round %d: materialized %d bytes, err %v", r, len(got), err)
		}
	}
	hits, misses, evictions := cache.Stats()
	if calls.Load() != 1 || misses != 1 || evictions != 0 || hits != rounds*racers {
		t.Fatalf("fills=%d hits=%d misses=%d evictions=%d, want 1/%d/1/0", calls.Load(), hits, misses, evictions, rounds*racers)
	}
}

// TestDownloadCacheHitServesVerifiedBytes: a hit returns the entry's
// bytes as read and verified, not a later read of the file — changing
// the entry afterwards changes nothing the caller holds — and a miss
// returns the very bytes its fill kept, without reading them back.
func TestDownloadCacheHitServesVerifiedBytes(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewDownloadCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := CacheKey{ArchiveURL: "u", Token: "t", Name: "g.hdf"}
	kept := []byte(hdfPayload(t, "fetched-bytes"))
	d1 := t.TempDir()
	_, f, hit, err := cache.FetchFile(ctx, key, d1, func(context.Context) (string, []byte, error) {
		path := filepath.Join(d1, key.Name)
		return path, kept, os.WriteFile(path, kept, 0o644)
	})
	if err != nil || hit {
		t.Fatalf("miss: hit=%v err=%v", hit, err)
	}
	// The dataset is the last thing before the 4-byte CRC trailer.
	data := payloadOf(t, f.File)
	if &data[0] != &kept[len(kept)-4-len(data)] {
		t.Fatal("the miss returned a copy of the bytes its fill kept")
	}

	d2 := t.TempDir()
	path, f, hit, err := cache.FetchFile(ctx, key, d2, nil)
	if err != nil || !hit || string(payloadOf(t, f.File)) != "fetched-bytes" {
		t.Fatalf("hit: %v hit=%v err=%v", f, hit, err)
	}
	if err := os.WriteFile(filepath.Join(dir, key.hash()+".granule"), []byte("rewritten"), 0o644); err != nil {
		t.Fatal(err)
	}
	if data := payloadOf(t, f.File); string(data) != "fetched-bytes" {
		t.Fatalf("served bytes changed with the entry: %q", data)
	}
	if onDisk, err := os.ReadFile(path); err != nil || string(onDisk) != "rewritten" {
		t.Fatalf("the destination is not the entry linked into place: %q, %v", onDisk, err)
	}
	// The rewritten entry no longer verifies: the next hit evicts it.
	d3 := t.TempDir()
	refetched := []byte(hdfPayload(t, "refetched"))
	if _, f, hit, err := cache.FetchFile(ctx, key, d3, func(context.Context) (string, []byte, error) {
		path := filepath.Join(d3, key.Name)
		return path, refetched, os.WriteFile(path, refetched, 0o644)
	}); err != nil || hit || string(payloadOf(t, f.File)) != "refetched" {
		t.Fatalf("rewritten entry: %v hit=%v err=%v", f, hit, err)
	}
	if _, _, evictions := cache.Stats(); evictions != 1 {
		t.Fatalf("evictions=%d, want 1", evictions)
	}
}

// TestDownloadCacheMissLinksFetchedFile: a miss makes the fetched file
// itself the cache entry (one write per fetched byte, not a copy), and
// two hits into one directory share it too.
func TestDownloadCacheMissLinksFetchedFile(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewDownloadCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{ArchiveURL: "u", Token: "t", Name: "g.hdf"}
	var calls atomic.Int64
	d1 := t.TempDir()
	path, _, err := cache.Fetch(context.Background(), key, d1, cacheFill(t, d1, key.Name, hdfPayload(t, "payload"), &calls))
	if err != nil {
		t.Fatal(err)
	}
	sameFile(t, path, filepath.Join(dir, key.hash()+".granule"))
	d2 := t.TempDir()
	hitPath, _, err := cache.Fetch(context.Background(), key, d2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameFile(t, hitPath, path)
}

// sameFile fails unless a and b name one file.
func sameFile(t *testing.T, a, b string) {
	t.Helper()
	ai, err := os.Stat(a)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := os.Stat(b)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(ai, bi) {
		t.Fatalf("%s and %s are two files", a, b)
	}
}

// TestWriteAtomicConcurrentWriters: writers racing to one destination
// each stage under a temp of their own, so every one succeeds, the
// destination holds one writer's whole content, and no temp is left.
func TestWriteAtomicConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "g.hdf")
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = writeAtomic(dst, []byte(strings.Repeat(fmt.Sprint(i), 1<<16)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, err := os.ReadFile(dst)
	if err != nil || len(got) != 1<<16 || strings.Count(string(got), string(got[:1])) != len(got) {
		t.Fatalf("destination holds %d mixed or partial bytes (err %v)", len(got), err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("%d files left in the directory, want only the destination", len(ents))
	}
}
