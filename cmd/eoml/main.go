// Command eoml runs the five-stage EO-ML workflow from a YAML
// declaration, in the spirit of the paper's user-facing configuration:
//
//	eoml -init -config workflow.yaml            # write a sample declaration
//	eoml -config workflow.yaml -train           # offline stages + batch run
//	eoml -config workflow.yaml                  # batch run with saved model
//	eoml -config workflow.yaml -stream          # streaming run
//	eoml -config workflow.yaml -metrics-addr localhost:9090
//	eoml serve -addr localhost:8080             # multi-run control plane
//
// The serve subcommand turns the tool into a long-lived workflow
// control plane: one engine, many runs. Clients POST a YAML config to
// /api/v1/runs and get back a run ID; runs execute concurrently
// (bounded by -max-runs), can be listed (GET /api/v1/runs), inspected
// (GET /api/v1/runs/{id}), canceled (DELETE /api/v1/runs/{id}), and
// scraped individually (GET /api/v1/runs/{id}/metrics), while /metrics
// and /healthz aggregate across every retained run. -quota-rps shapes
// each tenant's aggregate archive request rate across all its runs.
//
// With -train, the tool first performs the offline stages (download
// training granules, fit the RICC autoencoder, cluster the AICCA
// codebook) and saves the artifacts to the paths named under `model:` in
// the config; otherwise it loads them from those paths.
//
// With -metrics-addr (or the metrics_addr config key), the tool serves
// live observability endpoints for the lifetime of the run: /metrics
// (Prometheus text exposition; append ?format=json for JSON) and
// /healthz (200 while every stage is live, 503 once a stage stalls or
// fails). See docs/OPERATIONS.md for the metric catalogue.
//
// With -pprof-addr, the tool additionally serves the Go runtime
// profiles under /debug/pprof/ (CPU, heap, goroutine, block, mutex,
// trace); give it the same address as -metrics-addr to share one
// listener. See the Profiling section of docs/OPERATIONS.md.
//
// Other flags: -timeline prints the worker-activity timeline,
// -stream-gap-ms sets the streaming inter-arrival gap, -provenance
// exports the run's provenance graph, -train-classes and -train-epochs
// tune training.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"time"

	"github.com/eoml/eoml"
)

// attachPprof mounts the runtime profile handlers (CPU, heap, goroutine,
// block, mutex, trace) under /debug/pprof/ on mux.
func attachPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// muxSet composes HTTP roles (run API, metrics, pprof) onto listener
// addresses, binding each distinct address exactly once. Asking for the
// mux of an address twice returns the same mux, so two flags naming the
// same address share one listener instead of the second bind failing
// with "address already in use" — the composition rule every
// addr-taking flag of this command follows.
type muxSet struct {
	muxes map[string]*http.ServeMux
	order []string
	stops []func()
}

func newMuxSet() *muxSet {
	return &muxSet{muxes: map[string]*http.ServeMux{}}
}

// mux finds or creates the mux bound to addr.
func (m *muxSet) mux(addr string) *http.ServeMux {
	if mx, ok := m.muxes[addr]; ok {
		return mx
	}
	mx := http.NewServeMux()
	m.muxes[addr] = mx
	m.order = append(m.order, addr)
	return mx
}

// start binds every address and serves its mux, returning the bound
// address per requested address. On any bind failure the already-bound
// listeners are closed and the error returned.
func (m *muxSet) start() (map[string]net.Addr, error) {
	bound := map[string]net.Addr{}
	for _, addr := range m.order {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			m.stop()
			return nil, err
		}
		srv := &http.Server{Handler: m.muxes[addr]}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = srv.Serve(ln) // returns once stop calls Close
		}()
		m.stops = append(m.stops, func() {
			_ = srv.Close()
			<-served
		})
		bound[addr] = ln.Addr()
	}
	return bound, nil
}

// stop closes every listener and joins the serve goroutines.
func (m *muxSet) stop() {
	for _, s := range m.stops {
		s()
	}
	m.stops = nil
}

// sampleConfig is the declaration written by -init, mirroring the YAML
// interface the paper describes for its users.
const sampleConfig = `# EO-ML workflow declaration
satellite: Terra
year: 2022
doy: 1
granules: [0, 1, 2]   # five-minute slots; omit for the whole day

archive:
  url: http://localhost:8900
  token: demo

paths:
  data: /tmp/eoml/data      # downloaded MODIS granules
  tiles: /tmp/eoml/tiles    # preprocessed ocean-cloud tiles (NetCDF)
  outbox: /tmp/eoml/outbox  # labeled files staged for shipment
  dest: /tmp/eoml/orion     # destination filesystem

workers:
  download: 3             # granule tasks fetching ahead of a free preprocess slot
  preprocess: 8           # compute slots: granules decoding, tiling and labeling at once
  inference: 1

tile:
  pixels: 8                # 128 / archive scale (laads-server -scale 16)
  min_cloud_fraction: 0.3

poll_interval_ms: 50      # monitor fallback crawl period (tile files the run writes are picked up at once)
stall_timeout_ms: 300000  # abort if inference makes no progress this long

batch:
  tiles: 256              # cap on one coalesced encode batch
  delay_ms: 20            # deprecated, ignored since PR 13 (an idle encoder takes a file at once)

precision: float32        # encode arithmetic: float32 (oracle) or int8 (quantized, faster)

distribution: local       # local (in-process) or fleet (leased to eoml-worker processes)

model:
  weights: /tmp/eoml/ricc.hdf
  codebook: /tmp/eoml/aicca-codebook.hdf

# metrics_addr: localhost:9090  # serve /metrics and /healthz during the run
`

// runServe is the `eoml serve` subcommand: a long-lived control plane
// hosting many concurrent runs over one engine.
func runServe(args []string) {
	fs := flag.NewFlagSet("eoml serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "run API listener (/api/v1/runs, /metrics, /healthz)")
	maxRuns := fs.Int("max-runs", 2, "runs executing concurrently; further submissions queue")
	retainRuns := fs.Int("retain-runs", 16, "finished runs kept inspectable before eviction")
	quotaRPS := fs.Float64("quota-rps", 0, "per-tenant archive requests per second across all of a tenant's runs (0 = unlimited)")
	quotaBurst := fs.Int("quota-burst", 8, "archive requests a tenant may burst before the rate applies")
	pprofAddr := fs.String("pprof-addr", "", "serve /debug/pprof on this address; give it the -addr value to share that listener")
	fleetOn := fs.Bool("fleet", false, "host a worker-fleet coordinator (/fleet/ membership API) so runs may declare `distribution: fleet`")
	_ = fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := eoml.EngineOptions{Quotas: eoml.NewQuotaPool(*quotaRPS, *quotaBurst)}
	if *fleetOn {
		coord := eoml.NewFleetCoordinator(eoml.FleetConfig{})
		coord.Start(ctx)
		defer coord.Close()
		opts.Fleet = coord
	}
	eng := eoml.NewEngine(opts)
	cp := eoml.NewControlPlane(eng, eoml.ControlPlaneOptions{
		MaxConcurrentRuns: *maxRuns,
		RetainRuns:        *retainRuns,
	})

	ms := newMuxSet()
	ms.mux(*addr).Handle("/", cp)
	if *pprofAddr != "" {
		// Same address as -addr → same mux, one listener; different
		// address → its own listener. Never a double bind.
		attachPprof(ms.mux(*pprofAddr))
	}
	bound, err := ms.start()
	if err != nil {
		log.Fatalf("eoml: serve: %v", err)
	}
	defer ms.stop()
	fmt.Printf("eoml: run API on http://%s (POST /api/v1/runs; %d concurrent)\n", bound[*addr], *maxRuns)
	if *fleetOn {
		fmt.Printf("eoml: fleet membership on http://%s/fleet/ (start workers with `eoml-worker -coordinator http://%s`)\n", bound[*addr], bound[*addr])
	}
	if *pprofAddr != "" {
		fmt.Printf("eoml: /debug/pprof on http://%s\n", bound[*pprofAddr])
	}

	<-ctx.Done()
	fmt.Println("eoml: shutting down")
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	configPath := flag.String("config", "workflow.yaml", "YAML workflow declaration")
	train := flag.Bool("train", false, "train the model and codebook before running")
	trainClasses := flag.Int("train-classes", 8, "AICCA codebook size when training")
	trainEpochs := flag.Int("train-epochs", 4, "autoencoder epochs when training")
	timeline := flag.Bool("timeline", false, "print the worker-activity timeline after the run")
	stream := flag.Bool("stream", false, "process granules as a stream instead of a batch")
	streamGapMS := flag.Int("stream-gap-ms", 100, "inter-arrival gap in streaming mode")
	provPath := flag.String("provenance", "", "write the run's provenance graph (JSON) to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /healthz on this address for the run (overrides metrics_addr in the config)")
	pprofAddr := flag.String("pprof-addr", "", "serve /debug/pprof on this address for the run; when it matches the metrics address the two share one listener")
	initConfig := flag.Bool("init", false, "write a sample workflow declaration to -config and exit")
	flag.Parse()

	if *initConfig {
		if _, err := os.Stat(*configPath); err == nil {
			log.Fatalf("eoml: %s already exists; refusing to overwrite", *configPath)
		}
		if err := os.WriteFile(*configPath, []byte(sampleConfig), 0o644); err != nil {
			log.Fatalf("eoml: %v", err)
		}
		fmt.Printf("eoml: wrote sample workflow to %s\n", *configPath)
		fmt.Println("eoml: start an archive with `laads-server -addr :8900 -token demo`, then run `eoml -config", *configPath, "-train`")
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg, err := eoml.LoadConfigFile(*configPath)
	if err != nil {
		log.Fatalf("eoml: %v", err)
	}

	var labeler *eoml.Labeler
	if *train {
		fmt.Println("eoml: training RICC model and AICCA codebook…")
		labeler, err = eoml.TrainFromArchive(ctx, *cfg, eoml.TrainOptions{
			Classes: *trainClasses,
			Epochs:  *trainEpochs,
		})
		if err != nil {
			log.Fatalf("eoml: training: %v", err)
		}
		if cfg.ModelPath != "" && cfg.CodebookPath != "" {
			if err := eoml.SaveLabeler(labeler, cfg.ModelPath, cfg.CodebookPath); err != nil {
				log.Fatalf("eoml: saving model: %v", err)
			}
			fmt.Printf("eoml: saved %s and %s\n", cfg.ModelPath, cfg.CodebookPath)
		}
	}

	pipe, err := eoml.NewPipeline(*cfg, labeler)
	if err != nil {
		log.Fatalf("eoml: %v", err)
	}
	var prov *eoml.ProvenanceStore
	if *provPath != "" {
		prov = eoml.NewProvenanceStore()
		pipe.SetProvenance(prov)
	}

	obsAddr := *metricsAddr
	if obsAddr == "" {
		obsAddr = cfg.MetricsAddr
	}
	ms := newMuxSet()
	if obsAddr != "" {
		mux := ms.mux(obsAddr)
		mux.Handle("/metrics", pipe.Metrics())
		mux.Handle("/healthz", pipe.Health())
	}
	if *pprofAddr != "" {
		// Matching obsAddr reuses its mux (one listener, all roles);
		// otherwise pprof gets its own — muxSet makes double-binding
		// one address structurally impossible.
		attachPprof(ms.mux(*pprofAddr))
	}
	if len(ms.order) > 0 {
		bound, err := ms.start()
		if err != nil {
			log.Fatalf("eoml: observability listener: %v", err)
		}
		defer ms.stop()
		if obsAddr != "" {
			what := "/metrics and /healthz"
			if *pprofAddr == obsAddr {
				what = "/metrics, /healthz and /debug/pprof"
			}
			fmt.Printf("eoml: serving %s on http://%s\n", what, bound[obsAddr])
		}
		if *pprofAddr != "" && *pprofAddr != obsAddr {
			fmt.Printf("eoml: serving /debug/pprof on http://%s\n", bound[*pprofAddr])
		}
	}

	var rep *eoml.Report
	if *stream {
		fmt.Printf("eoml: streaming %d granules…\n", len(cfg.GranuleIDs()))
		arrivals := make(chan int)
		go func() {
			defer close(arrivals)
			for _, g := range cfg.GranuleIDs() {
				select {
				case arrivals <- g.Index:
				case <-ctx.Done():
					return
				}
				time.Sleep(time.Duration(*streamGapMS) * time.Millisecond)
			}
		}()
		rep, err = pipe.RunStream(ctx, arrivals)
	} else {
		fmt.Printf("eoml: running workflow for %d granules…\n", len(cfg.GranuleIDs()))
		rep, err = pipe.Run(ctx)
	}
	if err != nil {
		log.Fatalf("eoml: %v", err)
	}
	if prov != nil {
		out, err := os.Create(*provPath)
		if err != nil {
			log.Fatalf("eoml: %v", err)
		}
		if err := prov.Export(out); err != nil {
			log.Fatalf("eoml: provenance export: %v", err)
		}
		if err := out.Close(); err != nil {
			log.Fatalf("eoml: %v", err)
		}
		fmt.Printf("eoml: wrote provenance graph to %s\n", *provPath)
	}
	fmt.Println("eoml:", rep.Summary())
	if rep.FlowsFailed > 0 {
		fmt.Printf("eoml: warning: %d inference flows failed\n", rep.FlowsFailed)
	}
	fmt.Println("\nstage latency breakdown:")
	fmt.Print(rep.Spans.Render())
	if *timeline {
		fmt.Println("\nworker activity timeline:")
		fmt.Print(rep.Timeline.Render(rep.Elapsed.Seconds(), 72))
	}
}
