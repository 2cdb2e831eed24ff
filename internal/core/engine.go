package core

import (
	"fmt"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/metrics"
)

// Engine hosts N isolated workflow runs in one process — the control
// plane's execution substrate. What is expensive or shared lives here
// exactly once: the granule kernel set every in-process run executes on
// (its model cache keys loaded weights by artifact paths, so a hundred
// runs of the same campaign share one weight copy, and its decode
// scratch arena is recycled across runs), the worker fleet, and the
// per-tenant archive quotas. What belongs to one run — its config,
// metric registry, health tracker, provenance store, and stage objects —
// lives on the Run values NewRun hands out, so concurrent runs never
// collide on state.
type Engine struct {
	quotas  *laads.QuotaPool   // per-tenant archive request quotas (nil = unlimited)
	kernels *fleet.Kernels     // granule kernel, weights cache and decode arena of in-process runs
	fleet   *fleet.Coordinator // worker fleet (nil = fleet distribution unavailable)
}

// EngineOptions tunes a new Engine.
type EngineOptions struct {
	// Labeler, when set, is used by every run whose config does not name
	// model artifacts of its own.
	Labeler *aicca.Labeler
	// Quotas, when set, gates each run's archive requests on its
	// tenant's token bucket. Nil admits everything.
	Quotas *laads.QuotaPool
	// Fleet, when set, lets runs with `distribution: fleet` lease each
	// granule to a registered worker process as one task: the worker
	// fetches, tiles, labels and publishes the labeled file; the run
	// monitors, counts and ships.
	Fleet *fleet.Coordinator
}

// NewEngine builds an engine.
func NewEngine(opts EngineOptions) *Engine {
	kernels := fleet.NewKernels()
	if opts.Labeler != nil {
		kernels.UseLabeler(opts.Labeler)
	}
	return &Engine{quotas: opts.Quotas, kernels: kernels, fleet: opts.Fleet}
}

// RunOptions carries the per-run identity the control plane assigns.
type RunOptions struct {
	// ID, when non-empty, labels every metric series the run emits with
	// run="<ID>" via a labeled child registry. Empty (the legacy
	// one-shot path) keeps the series label-for-label identical to the
	// pre-engine Pipeline.
	ID string
	// Tenant selects the archive quota bucket and, when non-empty, adds
	// a tenant="<Tenant>" label next to the run label.
	Tenant string
}

// NewRun validates the config and builds an isolated run over the
// engine's shared resources: its own child metric registry, health
// tracker, and stage state, plus the shared kernels and tenant quota.
// A `fleet` run leases its granules to the engine's worker fleet; any
// other run gets an in-process fleet of one per Run/RunStream call.
func (e *Engine) NewRun(cfg Config, opts RunOptions) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Resolve the labeler now, so a run without one fails here rather
	// than on its first task.
	labeler, err := e.kernels.Labeler(cfg.ModelPath, cfg.CodebookPath)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var reg *metrics.Registry
	switch {
	case opts.ID != "" && opts.Tenant != "":
		reg = metrics.NewLabeledRegistry(metrics.L("run", opts.ID), metrics.L("tenant", opts.Tenant))
	case opts.ID != "":
		reg = metrics.NewLabeledRegistry(metrics.L("run", opts.ID))
	default:
		reg = metrics.NewRegistry()
	}
	r := &Run{
		cfg:     cfg,
		id:      opts.ID,
		tenant:  opts.Tenant,
		kernels: e.kernels,
		quota:   e.quotas.Tenant(tenantOrDefault(opts.Tenant)),
		metrics: reg,
		health:  metrics.NewHealth(),
	}
	if cfg.Distribution == DistributionFleet {
		if e.fleet == nil {
			return nil, fmt.Errorf("core: config asks for distribution %q but the engine has no fleet coordinator", cfg.Distribution)
		}
		r.fleet = e.fleet
	}
	e.kernels.Arena().Instrument(r.metrics, "tile")
	labeler.Model.Arena().Instrument(r.metrics, "ricc")
	return r, nil
}

// Fleet returns the engine's worker-fleet coordinator, or nil when the
// engine runs everything in-process. The control plane uses this to
// mount the membership API and instrument the eoml_fleet_* series.
func (e *Engine) Fleet() *fleet.Coordinator { return e.fleet }

// Quotas returns the engine's per-tenant archive quota pool (nil when
// quotas are disabled), so drivers can instrument it.
func (e *Engine) Quotas() *laads.QuotaPool { return e.quotas }

// tenantOrDefault maps the empty tenant onto one shared default bucket,
// so unattributed runs still share a quota instead of each minting an
// unlimited one.
func tenantOrDefault(t string) string {
	if t == "" {
		return "default"
	}
	return t
}
