package laads

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/eoml/eoml/internal/bufpool"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/modis"
)

// Client downloads granules from a LAADS-style archive with a worker pool
// and retry, the role wget-under-Globus-Compute plays in the paper.
type Client struct {
	BaseURL string
	Token   string
	// HTTP is the transport; defaults to http.DefaultClient.
	HTTP *http.Client
	// Retries is the number of re-attempts per file after a failure.
	Retries int
	// Backoff is the base delay between retries (doubled each attempt).
	Backoff time.Duration
	// Quota, when set, gates every archive request on the owning
	// tenant's token bucket (see QuotaPool). Nil admits everything.
	Quota *Quota

	m *clientMetrics // nil until Instrument
}

// clientMetrics holds the client's counters; a nil *clientMetrics (the
// uninstrumented default) makes every increment a no-op.
type clientMetrics struct {
	requests *metrics.Counter
	retries  *metrics.Counter
	failures *metrics.Counter
	bytes    *metrics.Counter
}

func (m *clientMetrics) request() {
	if m != nil {
		m.requests.Inc()
	}
}

func (m *clientMetrics) retry() {
	if m != nil {
		m.retries.Inc()
	}
}

func (m *clientMetrics) failure() {
	if m != nil {
		m.failures.Inc()
	}
}

func (m *clientMetrics) downloaded(n int64) {
	if m != nil {
		m.bytes.Add(n)
	}
}

// Instrument registers the client's request, retry, failure, and byte
// counters with reg (eagerly, so the series exist before the first
// request). Safe with a nil registry.
func (c *Client) Instrument(reg *metrics.Registry) {
	c.m = &clientMetrics{
		requests: reg.Counter("eoml_laads_client_requests_total",
			"HTTP requests issued to the archive (every attempt counts)."),
		retries: reg.Counter("eoml_laads_client_retries_total",
			"Download re-attempts after a failed fetch."),
		failures: reg.Counter("eoml_laads_client_failures_total",
			"Downloads abandoned after exhausting retries."),
		bytes: reg.Counter("eoml_laads_client_bytes_total",
			"Granule payload bytes downloaded."),
	}
}

// NewClient builds a client with sane defaults.
func NewClient(baseURL, token string) *Client {
	return &Client{
		BaseURL: baseURL,
		Token:   token,
		HTTP:    http.DefaultClient,
		Retries: 3,
		Backoff: 50 * time.Millisecond,
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// List fetches the day listing for a product.
func (c *Client) List(ctx context.Context, p modis.Product, year, doy int) ([]FileInfo, error) {
	if err := c.Quota.Acquire(ctx); err != nil {
		return nil, err
	}
	url := fmt.Sprintf("%s/archive/%s/%d/%d/", c.BaseURL, p.ShortName(), year, doy)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	c.auth(req)
	c.m.request()
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("laads: listing %s: %s", url, resp.Status)
	}
	var listing []FileInfo
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return nil, fmt.Errorf("laads: listing %s: %w", url, err)
	}
	return listing, nil
}

func (c *Client) auth(req *http.Request) {
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
}

// FileResult records one completed download.
type FileResult struct {
	Name     string
	Path     string
	Bytes    int64
	Duration time.Duration
	Attempts int
	// Data is the file's content as written to Path, kept only by
	// DownloadKeep; nil otherwise. It is a bufpool buffer: the caller
	// may hand it back with bufpool.Put once nothing reads it.
	Data []byte
}

// Download fetches one granule into destDir, retrying on failure. The
// file is written atomically (temp + rename) so a concurrent crawler
// never sees a partial granule — the HDF-read-error hazard the paper
// works around by delaying preprocessing until downloads complete.
func (c *Client) Download(ctx context.Context, p modis.Product, year, doy int, name, destDir string) (FileResult, error) {
	return c.download(ctx, p, year, doy, name, destDir, false)
}

// DownloadKeep is Download for a caller that decodes the file next: the
// result's Data holds the bytes the body streamed to disk, so the caller
// never reads the file back.
func (c *Client) DownloadKeep(ctx context.Context, p modis.Product, year, doy int, name, destDir string) (FileResult, error) {
	return c.download(ctx, p, year, doy, name, destDir, true)
}

func (c *Client) download(ctx context.Context, p modis.Product, year, doy int, name, destDir string, keep bool) (FileResult, error) {
	url := fmt.Sprintf("%s/archive/%s/%d/%d/%s", c.BaseURL, p.ShortName(), year, doy, name)
	res := FileResult{Name: name}
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		res.Attempts = attempt + 1
		if attempt > 0 {
			c.m.retry()
			delay := c.Backoff << (attempt - 1)
			select {
			case <-ctx.Done():
				return res, ctx.Err()
			case <-time.After(delay):
			}
		}
		n, path, data, err := c.fetchOnce(ctx, url, name, destDir, keep)
		if err == nil {
			res.Bytes = n
			res.Path = path
			res.Data = data
			res.Duration = time.Since(start)
			c.m.downloaded(n)
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
	}
	c.m.failure()
	return res, fmt.Errorf("laads: download %s failed after %d attempts: %w", name, c.Retries+1, lastErr)
}

// maxKeptPrealloc bounds the buffer a kept body preallocates from the
// response's Content-Length to a few times the largest product (about
// 3 MB), so a lying header cannot reserve much heap; a larger body still
// arrives, growing the buffer as it does.
const maxKeptPrealloc = 64 << 20

func (c *Client) fetchOnce(ctx context.Context, url, name, destDir string, keep bool) (int64, string, []byte, error) {
	if err := c.Quota.Acquire(ctx); err != nil {
		return 0, "", nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, "", nil, err
	}
	c.auth(req)
	c.m.request()
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, "", nil, fmt.Errorf("laads: GET %s: %s", url, resp.Status)
	}
	if err := os.MkdirAll(destDir, 0o755); err != nil {
		return 0, "", nil, err
	}
	final := filepath.Join(destDir, name)
	// Every call stages under a temp of its own: fleet workers share run
	// directories, and a stolen lease can put two workers — two
	// processes, or two in one — on the same file at once. Each stages
	// privately, with rename settling the winner (identical bytes either
	// way). The name ends in ".part", so a crawler skips it.
	out, err := os.CreateTemp(destDir, name+".*.part")
	if err != nil {
		return 0, "", nil, err
	}
	tmp := out.Name()
	var body io.Reader = resp.Body
	var kept *bytes.Buffer
	if keep {
		// A pooled buffer: the body overwrites every byte it keeps.
		kept = bytes.NewBuffer(bufpool.Get(int(min(max(resp.ContentLength, 0), maxKeptPrealloc)))[:0])
		body = io.TeeReader(resp.Body, kept)
	}
	n, err := io.Copy(out, body)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		if kept != nil {
			bufpool.Put(kept.Bytes())
		}
		return 0, "", nil, err
	}
	if kept == nil {
		return n, final, nil, nil
	}
	return n, final, kept.Bytes(), nil
}

// Task names one granule of one product to download.
type Task struct {
	Product modis.Product
	Year    int
	DOY     int
	Name    string
}

// Report summarizes a pooled download run.
type Report struct {
	Files      []FileResult
	TotalBytes int64
	Elapsed    time.Duration
	Workers    int
	Failed     int
}

// MeanSpeedBytesPerSec is total bytes over wall time.
func (r Report) MeanSpeedBytesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalBytes) / r.Elapsed.Seconds()
}

// DownloadAll fetches tasks with the given number of parallel workers,
// mirroring the paper's Globus Compute fan-out: each worker takes the next
// queued file when it finishes its current one, and exits when the queue
// drains. It keeps no file's bytes in memory.
func (c *Client) DownloadAll(ctx context.Context, tasks []Task, destDir string, workers int) (Report, error) {
	if workers <= 0 {
		workers = 1
	}
	start := time.Now()
	queue := make(chan Task)
	results := make(chan FileResult, len(tasks))
	errs := make(chan error, len(tasks))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range queue {
				res, err := c.Download(ctx, t.Product, t.Year, t.DOY, t.Name, destDir)
				if err != nil {
					errs <- err
					continue
				}
				results <- res
			}
		}()
	}
	for _, t := range tasks {
		queue <- t
	}
	close(queue)
	wg.Wait()
	close(results)
	close(errs)

	rep := Report{Workers: workers, Elapsed: time.Since(start)}
	for res := range results {
		rep.Files = append(rep.Files, res)
		rep.TotalBytes += res.Bytes
	}
	var firstErr error
	for err := range errs {
		rep.Failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	return rep, firstErr
}

// RangeTasks builds the task list for an inclusive day-of-year range —
// the paper's "time span, ranging from a single day to up to 24 years".
// The range must stay within one year; multi-year campaigns chain calls.
func RangeTasks(products []modis.Product, year, doyFrom, doyTo int) ([]Task, error) {
	if doyFrom < 1 || doyTo > 366 || doyFrom > doyTo {
		return nil, fmt.Errorf("laads: bad day range %d..%d", doyFrom, doyTo)
	}
	var tasks []Task
	for doy := doyFrom; doy <= doyTo; doy++ {
		tasks = append(tasks, DayTasks(products, year, doy, nil)...)
	}
	return tasks, nil
}

// DayTasks builds the task list for a day of one or more products,
// optionally restricted to specific granule indices.
func DayTasks(products []modis.Product, year, doy int, indices []int) []Task {
	if indices == nil {
		indices = make([]int, modis.GranulesPerDay)
		for i := range indices {
			indices[i] = i
		}
	}
	var tasks []Task
	for _, p := range products {
		for _, idx := range indices {
			g := modis.GranuleID{Satellite: p.Satellite, Year: year, DOY: doy, Index: idx}
			tasks = append(tasks, Task{Product: p, Year: year, DOY: doy, Name: modis.FileName(p, g)})
		}
	}
	return tasks
}
