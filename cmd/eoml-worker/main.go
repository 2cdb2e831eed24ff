// Command eoml-worker is one fleet worker process: it serves the
// granule kernel (fetch, extract tiles, label, publish the labeled
// file) on a local compute endpoint, registers that endpoint with a
// control plane started as `eoml serve -fleet`, heartbeats to stay
// live, and drains gracefully on SIGINT. Tasks arrive as granule *references* — shared-storage
// paths plus archive coordinates — never bytes, so a worker can run at
// another facility and fetch its own inputs.
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
// instead of the archive.
//
// Submit a run whose YAML declares `distribution: fleet` and the
// coordinator leases its granules, one task each, to every registered
// worker.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"github.com/eoml/eoml"
)

func main() {
	id := flag.String("id", "", "worker identity; default worker-<hostname>-<pid>")
	coordinator := flag.String("coordinator", "http://localhost:8080", "control-plane base URL hosting the /fleet/ membership API")
	listen := flag.String("listen", "127.0.0.1:0", "task endpoint listen address (0 = OS-assigned port)")
	advertise := flag.String("advertise", "", "endpoint URL to register instead of the listen address (NAT / multi-facility)")
	slots := flag.Int("slots", 1, "granule tasks computing (decode, tile, label, write) at once")
	taskTimeout := flag.Duration("task-timeout", 0, "per-task execution bound, including the wait for a compute slot (0 = none)")
	prefetch := flag.Int("prefetch", 2, "granule leases beyond -slots, fetching ahead of a free compute slot (0 = none); extends registered capacity by the same amount")
	cacheDir := flag.String("cache-dir", "", "content-addressed download cache directory (empty = caching off)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "download cache size bound in bytes (0 = unbounded)")
	archiveRPS := flag.Float64("archive-rps", 0, "per-tenant archive request-rate quota in requests/s (0 = unlimited)")
	archiveBurst := flag.Int("archive-burst", 8, "per-tenant archive request burst when -archive-rps is set")
	flag.Parse()

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
	})
	if err != nil {
		log.Fatalf("eoml-worker: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	startCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err = w.Start(startCtx)
	cancel()
	if err != nil {
		log.Fatalf("eoml-worker: %v", err)
	}
	fmt.Printf("eoml-worker: %s serving %d slot(s) on %s, registered with %s\n", *id, *slots, w.URL(), *coordinator)

	<-ctx.Done()
	fmt.Println("eoml-worker: draining")
	w.Stop()
}
