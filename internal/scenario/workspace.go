package scenario

import "encoding/json"

// Workspace executes runs back-to-back on recycled simulator state. The
// first Run builds a kernel (Runner); later Runs rewind it in place
// (Runner.reset), reusing the event-heap slabs, the link rings, the packet
// pools, retired flow states, and the RNG structs instead of reallocating
// them per cell. Reuse is output-neutral: a Workspace's Metrics are
// byte-identical to fresh per-run construction for any sequence of configs
// and seeds.
//
// A Workspace is used from one goroutine at a time. The grid paths
// (RunSeedsObserved, the experiments engine) give each worker goroutine its
// own Workspace.
type Workspace struct {
	r *Runner
}

// NewWorkspace returns an empty workspace; the first Run populates it.
func NewWorkspace() *Workspace { return &Workspace{} }

// Run resolves and validates cfg, runs it on cfg.Shards domains, flushes
// the observability artifacts and follows the cache protocol (Config.Cache).
// The previous run's kernel is recycled when the domain count and the
// topology size match.
func (ws *Workspace) Run(cfg Config) (Metrics, error) {
	m, _, err := ws.RunRecorded(cfg)
	return m, err
}

// RunRecorded is Run returning, additionally, a RunRecord describing the
// run (seed, shard count, per-shard executed-event counts and queue
// ledgers, the artifact files written, cache hit).
// The Metrics are computed exactly as Run computes them.
func (ws *Workspace) RunRecorded(cfg Config) (Metrics, RunRecord, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return Metrics{}, RunRecord{}, err
	}
	rec := RunRecord{Seed: cfg.Seed, Shards: effectiveShards(cfg)}
	key, m, ok := cacheGet(cfg)
	if ok {
		rec.Cached = true
		return m, rec, nil
	}
	plan := planShards(&cfg, rec.Shards)
	if ws.r != nil && ws.r.canReuse(cfg, plan) {
		ws.r.reset(cfg, plan)
	} else {
		ws.r = newRunner(cfg, plan)
	}
	m = ws.r.Run()
	rec.ShardExecuted = ws.r.ex.Executed()
	for _, d := range ws.r.doms {
		rec.Queue = append(rec.Queue, d.s.Counters())
	}
	var err error
	if rec.Artifacts, err = ws.r.FlushObs(); err != nil {
		return m, rec, err
	}
	cachePut(cfg, key, m)
	return m, rec, nil
}

// cacheGet consults cfg.Cache for the run's fingerprinted result. The
// returned key is "" when caching does not apply to this run (no store
// attached, or observability active — a cached run cannot produce the
// requested artifacts); otherwise the key is valid for cachePut whether or
// not there was a hit. Entries that fail checksum verification are deleted
// by the store itself; entries that pass but fail to decode (e.g. written
// by a build with a different Metrics shape and an unbumped salt) are
// discarded here. Both count as misses and recompute silently.
func cacheGet(cfg Config) (key string, m Metrics, ok bool) {
	if cfg.Cache == nil || cfg.Obs.Active() {
		return "", Metrics{}, false
	}
	key = cfg.Fingerprint()
	raw, hit := cfg.Cache.Get(key)
	if !hit {
		return key, Metrics{}, false
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		cfg.Cache.Discard(key)
		return key, Metrics{}, false
	}
	return key, m, true
}

// cachePut stores a computed result under the key cacheGet derived. Cache
// write failures are deliberately swallowed: the run already succeeded, and
// a read-only or full cache directory must not turn into a grid failure.
func cachePut(cfg Config, key string, m Metrics) {
	if key == "" {
		return
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return
	}
	_ = cfg.Cache.Put(key, raw)
}
