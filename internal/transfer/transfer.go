// Package transfer is a Globus-Transfer-like data movement service:
// named endpoints rooted at directories, asynchronous transfer tasks with
// per-file checksum verification, bounded parallelism, retry, and fault
// injection for tests.
//
// In the paper, stage 5 ("Shipment") submits a Globus Transfer moving the
// labeled NetCDF files from the ACE Defiant filesystem to Frontier's
// Orion Lustre filesystem and polls the task until completion. This
// package reproduces that control flow: submit returns a task ID
// immediately, the transfer runs in the background, and Wait/Status
// expose the same lifecycle (ACTIVE → SUCCEEDED/FAILED).
package transfer

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// State is a transfer task lifecycle state.
type State string

// Task states, named as in the Globus Transfer API.
const (
	Active    State = "ACTIVE"
	Succeeded State = "SUCCEEDED"
	Failed    State = "FAILED"
)

// Endpoint is a named filesystem root, like a Globus collection.
type Endpoint struct {
	ID   string
	Name string
	Root string
}

// Options tunes the service.
type Options struct {
	// Parallelism is the number of concurrent file copies per task.
	Parallelism int
	// RetryLimit is per-file retry count after checksum or I/O failure.
	RetryLimit int
	// VerifyChecksum enables CRC32 verification of every copied file.
	VerifyChecksum bool
	// FailureRate injects per-copy corruption with the given probability
	// (testing only; requires VerifyChecksum to be recoverable).
	FailureRate float64
	// Seed drives fault injection.
	Seed int64
}

// Item is one file to move, with paths relative to the endpoint roots.
type Item struct {
	Src string
	Dst string
}

// TaskStatus is a point-in-time snapshot of a transfer task.
type TaskStatus struct {
	ID         string
	State      State
	FilesTotal int
	FilesDone  int
	BytesDone  int64
	Errors     []string
	Submitted  time.Time
	Completed  time.Time
}

// Service manages endpoints and transfer tasks.
type Service struct {
	opts Options

	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[string]*Endpoint
	tasks     map[string]*task
	nextID    int
}

type task struct {
	status TaskStatus
	done   chan struct{}
}

// NewService builds a transfer service.
func NewService(opts Options) *Service {
	if opts.Parallelism <= 0 {
		opts.Parallelism = 4
	}
	return &Service{
		opts:      opts,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		endpoints: map[string]*Endpoint{},
		tasks:     map[string]*task{},
	}
}

// RegisterEndpoint declares a filesystem root under a stable ID.
func (s *Service) RegisterEndpoint(id, name, root string) (*Endpoint, error) {
	if id == "" || root == "" {
		return nil, fmt.Errorf("transfer: endpoint needs id and root")
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.endpoints[id]; dup {
		return nil, fmt.Errorf("transfer: duplicate endpoint %q", id)
	}
	ep := &Endpoint{ID: id, Name: name, Root: abs}
	s.endpoints[id] = ep
	return ep, nil
}

// Endpoint looks up a registered endpoint.
func (s *Service) Endpoint(id string) (*Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, ok := s.endpoints[id]
	if !ok {
		return nil, fmt.Errorf("transfer: no endpoint %q", id)
	}
	return ep, nil
}

// Submit starts an asynchronous transfer of items from srcEP to dstEP and
// returns the task ID.
func (s *Service) Submit(srcEP, dstEP string, items []Item) (string, error) {
	src, err := s.Endpoint(srcEP)
	if err != nil {
		return "", err
	}
	dst, err := s.Endpoint(dstEP)
	if err != nil {
		return "", err
	}
	if len(items) == 0 {
		return "", fmt.Errorf("transfer: empty item list")
	}
	for _, it := range items {
		if it.Src == "" || it.Dst == "" || strings.Contains(it.Src, "..") || strings.Contains(it.Dst, "..") {
			return "", fmt.Errorf("transfer: invalid item %+v", it)
		}
	}

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("task-%06d", s.nextID)
	tk := &task{
		status: TaskStatus{ID: id, State: Active, FilesTotal: len(items), Submitted: time.Now()},
		done:   make(chan struct{}),
	}
	s.tasks[id] = tk
	s.mu.Unlock()

	go s.run(tk, src, dst, items)
	return id, nil
}

// SubmitDir transfers every regular file under srcDir (relative to the
// source endpoint root) into dstDir on the destination endpoint,
// preserving relative paths. Names ending in ".tmp" are skipped: they
// are the staging files of atomic writers (netcdf.WriteFile), and one
// seen here belongs to a writer still at work — a duplicated fleet lease
// finishing late — that is about to rename it away.
func (s *Service) SubmitDir(srcEP, dstEP, srcDir, dstDir string) (string, error) {
	src, err := s.Endpoint(srcEP)
	if err != nil {
		return "", err
	}
	base := filepath.Join(src.Root, srcDir)
	var items []Item
	err = filepath.Walk(base, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || strings.HasSuffix(path, ".tmp") {
			return nil
		}
		rel, err := filepath.Rel(base, path)
		if err != nil {
			return err
		}
		items = append(items, Item{
			Src: filepath.Join(srcDir, rel),
			Dst: filepath.Join(dstDir, rel),
		})
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Src < items[j].Src })
	return s.Submit(srcEP, dstEP, items)
}

//eomlvet:ignore ctxflow Submit is a fire-and-forget queue API (Wait(ctx) is the cancellable edge); the flagged semaphore send is bounded by local file copies draining the other slots
func (s *Service) run(tk *task, src, dst *Endpoint, items []Item) {
	sem := make(chan struct{}, s.opts.Parallelism)
	var wg sync.WaitGroup
	for _, it := range items {
		it := it
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			n, err := s.copyWithRetry(
				filepath.Join(src.Root, it.Src),
				filepath.Join(dst.Root, it.Dst),
			)
			s.mu.Lock()
			if err != nil {
				tk.status.Errors = append(tk.status.Errors, fmt.Sprintf("%s: %v", it.Src, err))
			} else {
				tk.status.FilesDone++
				tk.status.BytesDone += n
			}
			s.mu.Unlock()
		}()
	}
	wg.Wait()
	s.mu.Lock()
	if len(tk.status.Errors) > 0 {
		tk.status.State = Failed
	} else {
		tk.status.State = Succeeded
	}
	tk.status.Completed = time.Now()
	s.mu.Unlock()
	close(tk.done)
}

func (s *Service) copyWithRetry(src, dst string) (int64, error) {
	var lastErr error
	for attempt := 0; attempt <= s.opts.RetryLimit; attempt++ {
		n, err := s.copyOnce(src, dst)
		if err == nil {
			return n, nil
		}
		lastErr = err
	}
	return 0, fmt.Errorf("after %d attempts: %w", s.opts.RetryLimit+1, lastErr)
}

func (s *Service) copyOnce(src, dst string) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return 0, err
	}
	tmp := dst + ".transferring"
	out, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	srcCRC := crc32.NewIEEE()
	n, err := io.Copy(io.MultiWriter(out, srcCRC), in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}

	// Fault injection: corrupt one byte of the copy.
	s.mu.Lock()
	corrupt := s.opts.FailureRate > 0 && s.rng.Float64() < s.opts.FailureRate
	var corruptAt int64
	if corrupt && n > 0 {
		corruptAt = s.rng.Int63n(n)
	}
	s.mu.Unlock()
	if corrupt && n > 0 {
		f, err := os.OpenFile(tmp, os.O_RDWR, 0)
		if err == nil {
			var b [1]byte
			if _, err := f.ReadAt(b[:], corruptAt); err == nil {
				b[0] ^= 0xFF
				f.WriteAt(b[:], corruptAt)
			}
			_ = f.Close() // fault injection is best-effort by design
		}
	}

	if s.opts.VerifyChecksum {
		got, err := fileCRC(tmp)
		if err != nil {
			os.Remove(tmp)
			return 0, err
		}
		if got != srcCRC.Sum32() {
			os.Remove(tmp)
			return 0, fmt.Errorf("checksum mismatch copying %s", filepath.Base(src))
		}
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, nil
}

func fileCRC(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

// Status snapshots a task.
func (s *Service) Status(id string) (TaskStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tk, ok := s.tasks[id]
	if !ok {
		return TaskStatus{}, fmt.Errorf("transfer: no task %q", id)
	}
	st := tk.status
	st.Errors = append([]string(nil), tk.status.Errors...)
	return st, nil
}

// Wait blocks until the task completes or the context is cancelled.
func (s *Service) Wait(ctx context.Context, id string) (TaskStatus, error) {
	s.mu.Lock()
	tk, ok := s.tasks[id]
	s.mu.Unlock()
	if !ok {
		return TaskStatus{}, fmt.Errorf("transfer: no task %q", id)
	}
	select {
	case <-tk.done:
		return s.Status(id)
	case <-ctx.Done():
		return TaskStatus{}, ctx.Err()
	}
}
