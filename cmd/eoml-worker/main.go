// Command eoml-worker is one fleet worker process: it serves the
// granule kernel (fetch, extract tiles, label, publish the labeled
// file) over HTTP, registers its URL with a control plane started as
// `eoml serve -fleet`, heartbeats to stay live, and drains gracefully
// on SIGINT. Each lease is one POST /run that the worker answers when
// the task settles; a lease the coordinator drops is canceled here
// too, and a draining worker finishes and answers the leases it holds.
// Tasks arrive as granule *references* — shared-storage paths plus
// archive coordinates — never bytes, so a worker can run at another
// facility and fetch its own inputs.
//
//	eoml serve -addr localhost:8080 -fleet        # control plane
//	eoml-worker -coordinator http://localhost:8080
//	eoml-worker -coordinator http://localhost:8080 -slots 4
//	eoml-worker -coordinator http://localhost:8080 \
//	    -prefetch 4 -cache-dir /var/cache/eoml -cache-max-bytes 1073741824
//
// -prefetch leases that many granules beyond -slots: they fetch from
// the archive while every compute slot is busy (a fetch needs no slot),
// and -cache-dir keeps fetched granules in a
// content-addressed on-disk cache so re-leases and repeat runs hit disk
// instead of the archive. -metrics-addr serves the worker's cache and
// fetch series (eoml_fleet_cache_*, eoml_fleet_prefetch_inflight) on
// /metrics at that address.
//
// Submit a run whose YAML declares `distribution: fleet` and the
// coordinator leases its granules, one task each, to every registered
// worker.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/eoml/eoml"
	"github.com/eoml/eoml/internal/metrics"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatalf("eoml-worker: %v", err)
	}
}

// run parses args, starts the worker — and its /metrics listener when
// -metrics-addr is set — reports both on out, and drains the worker
// once ctx ends.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eoml-worker", flag.ExitOnError)
	id := fs.String("id", "", "worker identity; default worker-<hostname>-<pid>")
	coordinator := fs.String("coordinator", "http://localhost:8080", "control-plane base URL hosting the /fleet/ membership API")
	listen := fs.String("listen", "127.0.0.1:0", "task listen address (0 = OS-assigned port)")
	advertise := fs.String("advertise", "", "URL to register instead of the listen address (NAT / multi-facility)")
	slots := fs.Int("slots", 1, "granule tasks computing (decode, tile, label, write) at once")
	taskTimeout := fs.Duration("task-timeout", 0, "per-task execution bound, including the wait for a compute slot (0 = none)")
	prefetch := fs.Int("prefetch", 2, "granule leases beyond -slots, fetching ahead of a free compute slot (0 = none); extends registered capacity by the same amount")
	cacheDir := fs.String("cache-dir", "", "content-addressed download cache directory (empty = caching off)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "download cache size bound in bytes (0 = unbounded)")
	archiveRPS := fs.Float64("archive-rps", 0, "per-tenant archive request-rate quota in requests/s (0 = unlimited)")
	archiveBurst := fs.Int("archive-burst", 8, "per-tenant archive request burst when -archive-rps is set")
	metricsAddr := fs.String("metrics-addr", "", "serve the worker's cache and fetch series on /metrics at this address (empty = off)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2 with usage, as flag.Parse does

	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "unknown"
		}
		*id = fmt.Sprintf("worker-%s-%d", host, os.Getpid())
	}

	var quota *eoml.QuotaPool
	if *archiveRPS > 0 {
		quota = eoml.NewQuotaPool(*archiveRPS, *archiveBurst)
	}
	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
	}
	w, err := eoml.NewFleetWorker(eoml.FleetWorkerConfig{
		ID:             *id,
		CoordinatorURL: *coordinator,
		ListenAddr:     *listen,
		AdvertiseURL:   *advertise,
		Slots:          *slots,
		TaskTimeout:    *taskTimeout,
		PrefetchWindow: *prefetch,
		CacheDir:       *cacheDir,
		CacheMaxBytes:  *cacheMaxBytes,
		ArchiveQuota:   quota,
		Metrics:        reg,
	})
	if err != nil {
		return err
	}

	if reg != nil {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg)
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		defer func() {
			_ = srv.Close() // Serve reports how the listener ended
			if err := <-served; !errors.Is(err, http.ErrServerClosed) {
				log.Printf("eoml-worker: metrics listener: %v", err)
			}
		}()
		fmt.Fprintf(out, "eoml-worker: serving /metrics on http://%s\n", ln.Addr())
	}

	startCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err = w.Start(startCtx)
	cancel()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "eoml-worker: %s serving %d slot(s) on %s, registered with %s\n", *id, *slots, w.URL(), *coordinator)

	<-ctx.Done()
	fmt.Fprintln(out, "eoml-worker: draining")
	w.Stop()
	return nil
}
