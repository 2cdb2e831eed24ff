package core

import (
	"fmt"
	"sync"

	"github.com/eoml/eoml/internal/aicca"
	"github.com/eoml/eoml/internal/fleet"
	"github.com/eoml/eoml/internal/laads"
	"github.com/eoml/eoml/internal/metrics"
	"github.com/eoml/eoml/internal/ricc"
	"github.com/eoml/eoml/internal/tensor"
)

// Engine hosts N isolated workflow runs in one process — the control
// plane's execution substrate. What is expensive or shared lives here
// exactly once: loaded model weights (keyed by artifact paths, so a
// hundred runs of the same campaign share one weight copy), the tile
// decode scratch arena, and the per-tenant archive quotas. What belongs
// to one run — its config, metric registry, health tracker, provenance
// store, and stage objects — lives on the Run values NewRun hands out,
// so concurrent runs never collide on state.
type Engine struct {
	labeler *aicca.Labeler       // optional programmatic labeler shared by every run
	quotas  *laads.QuotaPool     // per-tenant archive request quotas (nil = unlimited)
	extract *tensor.ShardedArena // shared per-granule decode scratch
	fleet   *fleet.Coordinator   // worker fleet (nil = fleet distribution unavailable)

	mu     sync.Mutex
	models map[string]*aicca.Labeler // disk-loaded labelers keyed by model|codebook
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
	return &Engine{
		labeler: opts.Labeler,
		quotas:  opts.Quotas,
		extract: tensor.NewShardedArena(),
		fleet:   opts.Fleet,
		models:  map[string]*aicca.Labeler{},
	}
}

// labelerFor resolves the labeler a run uses: the config's named model
// artifacts when present (loaded once and cached — subsequent runs share
// the weights), else the engine's programmatic labeler.
func (e *Engine) labelerFor(cfg Config) (*aicca.Labeler, error) {
	if cfg.ModelPath == "" || cfg.CodebookPath == "" {
		if e.labeler == nil {
			return nil, fmt.Errorf("core: pipeline needs a labeler or model+codebook paths")
		}
		return e.labeler, nil
	}
	key := cfg.ModelPath + "|" + cfg.CodebookPath
	e.mu.Lock()
	defer e.mu.Unlock()
	if l, ok := e.models[key]; ok {
		return l, nil
	}
	model, err := ricc.Load(cfg.ModelPath)
	if err != nil {
		return nil, err
	}
	cb, err := ricc.LoadCodebook(cfg.CodebookPath)
	if err != nil {
		return nil, err
	}
	l, err := aicca.NewLabeler(model, cb)
	if err != nil {
		return nil, err
	}
	e.models[key] = l
	return l, nil
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
// tracker, and stage state, plus the shared weights, decode arena, and
// tenant quota.
func (e *Engine) NewRun(cfg Config, opts RunOptions) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	labeler, err := e.labelerFor(cfg)
	if err != nil {
		return nil, err
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
	if cfg.Distribution == DistributionFleet && e.fleet == nil {
		return nil, fmt.Errorf("core: config asks for distribution %q but the engine has no fleet coordinator", cfg.Distribution)
	}
	r := &Run{
		cfg:     cfg,
		id:      opts.ID,
		tenant:  opts.Tenant,
		labeler: labeler,
		extract: e.extract,
		fleet:   e.fleet,
		quota:   e.quotas.Tenant(tenantOrDefault(opts.Tenant)),
		metrics: reg,
		health:  metrics.NewHealth(),
	}
	r.extract.Instrument(r.metrics, "tile")
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
