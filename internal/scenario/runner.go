package scenario

import (
	"fmt"
	"runtime"

	"eac/internal/netsim"
	"eac/internal/obs"
	"eac/internal/sim"
	"eac/internal/sim/shard"
	"eac/internal/stats"
	"eac/internal/tcp"
	"eac/internal/trafgen"
)

// Runner is the run kernel: one scenario executed as K ≥ 1 domains, each a
// private simulator owning a contiguous block of links (shardPlan),
// advanced together by the conservative windowed executor in
// internal/sim/shard. The serial run is the K = 1 case — one domain owning
// every link, no boundary link, no portal, and an executor with no barrier
// to keep. The kernel looks at K in one place only: a single domain keeps
// the unsuffixed RNG stream labels (newRunner). Observability is a K = 1
// feature (Config.Validate), so a run has at most one obs.Collector.
//
// Runs at K > 1 are deterministic per K but only statistically equivalent
// to K = 1 (each domain draws its own thinned arrival stream);
// internal/conformance's envelopes pin that equivalence.
type Runner struct {
	cfg Config

	ex    *shard.Exec[*netsim.Packet]
	doms  []*domain
	links []*netsim.Link // indexed like cfg.Links

	// obs is the run's collector, nil unless Config.Obs is enabled; it is
	// the one domain's.
	obs *obs.Collector
}

// NewRunner builds (but does not run) a scenario on cfg.Shards domains.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newRunner(cfg, planShards(&cfg, effectiveShards(cfg))), nil
}

// newRunner builds the kernel for a resolved, valid cfg and its plan: the
// shell — executor, domains, link table — is allocated here, everything a
// run depends on is written by reset.
func newRunner(cfg Config, plan shardPlan) *Runner {
	r := &Runner{
		ex:    shard.NewExec[*netsim.Packet](plan.k, plan.window),
		doms:  make([]*domain, plan.k),
		links: make([]*netsim.Link, len(cfg.Links)),
	}
	for i := range r.doms {
		suffix := ""
		if plan.k > 1 {
			suffix = fmt.Sprintf("@s%d", i)
		}
		sh := r.ex.Shard(i)
		sh.Deliver = func(now sim.Time, p *netsim.Packet) { p.Forward(now) }
		r.doms[i] = newDomain(i, sh.Sim, suffix)
	}
	r.reset(cfg, plan)
	return r
}

// canReuse reports whether reset can adapt this kernel to a config planned
// as plan: the domains and the link slabs are positional, so the domain
// count and the topology size have to match — which also fixes each link's
// domain. Every other parameter is rewritten by reset.
func (r *Runner) canReuse(cfg Config, plan shardPlan) bool {
	return plan.k == len(r.doms) && len(cfg.Links) == len(r.links)
}

// reset puts the kernel into the state a run of cfg starts from. On a
// kernel that has run before it recycles the expensive allocations of the
// previous run: the event-heap slabs, the link pipe and queue rings, the
// packet pools' freelists, retired flow states (with their stop events and
// probers), and the RNG stream structs. The recycled state is
// output-neutral — Sim.Reset rewinds the FIFO tie-break counter, Pool.Put
// zeroes packets, and ring/heap geometry is proven irrelevant by the
// byte-identity tests — so a reused kernel's Metrics are identical to a
// fresh one's (TestWorkspaceByteIdentical, TestKernelDigests). cfg must be
// resolved and valid, plan its plan, and canReuse hold.
func (r *Runner) reset(cfg Config, plan shardPlan) {
	r.cfg = cfg
	r.ex.Window = plan.window
	r.ex.Reset()
	for _, d := range r.doms {
		d.reset(cfg, plan.owner)
	}

	maxPkt := 0
	for _, cl := range cfg.Classes {
		maxPkt = max(maxPkt, cl.Preset.PktSize)
		if cl.TCPFlows > 0 {
			maxPkt = max(maxPkt, tcp.Config{}.WithDefaults().SegSize)
		}
	}
	for i, ls := range cfg.Links {
		d := r.doms[plan.shardOf[i]]
		l := r.links[i]
		if l == nil {
			l = netsim.NewLink(d.s, fmt.Sprintf("L%d", i), ls.RateBps, ls.Delay, newDiscipline(&cfg, i, maxPkt))
			r.links[i] = l
		} else {
			l.Reset(ls.RateBps, ls.Delay, d.pool.Put)
			// The pushout discipline's band rings are worth keeping; RED holds
			// a seeded RNG and run-scoped EWMA state, so it is rebuilt.
			if pp, ok := l.Q.(*netsim.PriorityPushout); ok && cfg.Queue == QueuePushout {
				pp.SetCap(ls.BufferPkts)
			} else {
				l.Q = newDiscipline(&cfg, i, maxPkt)
			}
		}
		l.Boundary = plan.boundary[i]
		d.wireLink(i, l, maxPkt)
	}
	tmpl := r.routeTemplates(&plan) // classes and paths may have changed

	r.obs = obs.New(cfg.Obs, cfg.Seed)
	for _, d := range r.doms {
		d.tmpl = tmpl
		d.setupHybrid()
		d.observe(r.obs)
		d.policy = d.buildPolicy()
	}
}

// newDiscipline builds the queue discipline for link i per cfg.Queue.
func newDiscipline(cfg *Config, i, maxPkt int) netsim.Discipline {
	ls := cfg.Links[i]
	switch cfg.Queue {
	case QueueRED:
		return netsim.NewRED(ls.BufferPkts, netsim.REDConfig{
			MeanPktTime: trafgen.Interval(ls.RateBps, maxPkt),
		}, stats.NewStream(cfg.Seed, fmt.Sprintf("red-%d", i)))
	default:
		return netsim.NewPriorityPushout(ls.BufferPkts)
	}
}

// routeTemplates assembles the run's per-class packet routes, one per
// class, shared by all its flows and immutable for the run: each class
// path's links, a portal at every domain crossing (including the return to
// the owner's sink after the final link), then the owner's sink. One domain
// has no crossing and so no portal.
func (r *Runner) routeTemplates(p *shardPlan) [][]netsim.Receiver {
	portalTo := func(from, to int) netsim.Receiver { return &portal{src: r.ex.Shard(from), dst: to} }
	tmpl := make([][]netsim.Receiver, len(r.cfg.Classes))
	for c := range r.cfg.Classes {
		o := p.owner[c]
		cur := o
		var t []netsim.Receiver
		for _, li := range classPath(&r.cfg, c) {
			if s := p.shardOf[li]; s != cur {
				t = append(t, portalTo(cur, s))
				cur = s
			}
			t = append(t, r.links[li])
		}
		if cur != o {
			t = append(t, portalTo(cur, o))
		}
		tmpl[c] = append(t, (*sinkRecv)(r.doms[o]))
	}
	return tmpl
}

// Run executes the scenario and returns its metrics.
func (r *Runner) Run() Metrics {
	for _, d := range r.doms {
		d.start()
	}
	r.ex.Run(r.cfg.Duration)
	return r.metrics()
}

// FlushObs writes the run's observability artifacts (time-series CSV,
// event trace, spans, histograms) and returns their paths. No-op without
// an enabled collector.
func (r *Runner) FlushObs() ([]string, error) { return r.obs.Flush() }

// Sim exposes the first domain's simulator — the only one at K = 1 (for
// tests and composition).
func (r *Runner) Sim() *sim.Sim { return r.doms[0].s }

// metrics merges the per-domain results into one Metrics. Window sends are
// booked per class on the flow's owning domain (domain.sentWin), window
// drops on the domain of the link that dropped (domain.dropWin). Delay
// statistics merge by integer addition. Iteration is in domain order, so
// the result is deterministic for a fixed K.
func (r *Runner) metrics() Metrics {
	// Exec.Run left every domain's clock at Duration. Reading a link there
	// makes it book the last packets at its recording sink (sinkRecv.Record),
	// so the links come before anything a sink accumulated.
	now := r.cfg.Duration
	var m Metrics
	m.Links = make([]LinkMetrics, len(r.links))
	for i, l := range r.links {
		st := l.StatsAt(now)
		lm := LinkMetrics{Utilization: st.Utilization(now, l.RateBps), DataLossProb: st.DataLossProb()}
		if dt := (now - st.ResetTime).Sec(); dt > 0 {
			lm.ProbeShare = float64(st.SentBits[netsim.Probe]) / (l.RateBps * dt)
			if l.Bg != nil {
				// The fluid plane's delivered bits are part of the link's
				// carried load; the packet counters missed them.
				lm.Utilization += l.Bg.DeliveredBits(now) / (l.RateBps * dt)
			}
		}
		if a := st.Arrived[netsim.Probe]; a > 0 {
			lm.ProbeLossProb = float64(st.Dropped[netsim.Probe]) / float64(a)
		}
		m.Links[i] = lm
	}
	m.Utilization = m.Links[0].Utilization
	m.ProbeShare = m.Links[0].ProbeShare
	m.Classes = make([]ClassMetrics, len(r.cfg.Classes))
	for i := range m.Classes {
		m.Classes[i].Name = r.cfg.Classes[i].Name
	}
	// Loss counts actual router drops of window packets, not sent minus
	// received: a packet emitted inside the window but still in flight when
	// the run ends was neither delivered nor lost, and must not inflate the
	// loss probability.
	var sent, lost int64
	var epsSum float64
	var delayNs, delayN int64
	var hist [1001]int64
	for _, d := range r.doms {
		for c := range d.dropWin {
			m.Classes[c].DataSent += d.sentWin[c]
			m.Classes[c].DataLost += d.dropWin[c]
			sent += d.sentWin[c]
			lost += d.dropWin[c]
		}
		if d.hyb != nil {
			fs, fl := d.mergeFluidClasses(&m, now)
			sent += fs
			lost += fl
		}
		for c, cm := range d.classes {
			m.Classes[c].Arrived += cm.Arrived
			m.Classes[c].Accepted += cm.Accepted
			m.Classes[c].Blocked += cm.Blocked
		}
		m.Decided += d.decided
		m.Retries += d.retries
		epsSum += d.epsSum
		delayNs += d.delayNs
		delayN += d.delayN
		for i, v := range d.delayHist {
			hist[i] += v
		}
	}
	if sent > 0 {
		m.DataLossProb = float64(lost) / float64(sent)
	}
	var blocked int64
	for _, cm := range m.Classes {
		blocked += cm.Blocked
	}
	if m.Decided > 0 {
		m.BlockingProb = float64(blocked) / float64(m.Decided)
		m.MeanEps = epsSum / float64(m.Decided)
	}
	if delayN > 0 {
		m.MeanDelaySec = float64(delayNs) / (float64(delayN) * float64(sim.Second))
	}
	m.P99DelaySec = delayPercentile(&hist, delayN, 0.99)
	return m
}

// delayPercentile reads the q-quantile from a millisecond histogram (upper
// bucket edge, so the estimate is conservative).
func delayPercentile(hist *[1001]int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	var cum int64
	for ms, c := range hist {
		cum += c
		if cum > target {
			return float64(ms+1) / 1000
		}
	}
	return float64(len(hist)) / 1000
}

// Run executes a single scenario run. With observability enabled
// (Config.Obs) the run's artifacts are flushed before returning. With a
// result cache attached (Config.Cache) the run is served from — and on a
// miss, stored into — the cache.
func Run(cfg Config) (Metrics, error) { return NewWorkspace().Run(cfg) }

// RunRecord describes one completed run beyond its Metrics: where it
// came from and, for sharded runs, how the event load split. Metrics
// itself stays shard-free — the record is a side channel, so aggregate
// results (and their cache entries) are bitwise-identical whether or not
// anyone asked for records.
type RunRecord struct {
	// Seed is the run's resolved seed.
	Seed uint64
	// Shards is the domain count K the run executed with.
	Shards int
	// ShardExecuted holds each shard's executed-event count, indexed by
	// shard (one entry at K = 1). Nil for cached results —
	// the events were executed in some earlier process.
	ShardExecuted []uint64
	// Queue holds each domain's event-queue ledger, indexed like
	// ShardExecuted and likewise nil for cached results.
	Queue []sim.Counters
	// Artifacts lists the observability files the run's flush wrote, in
	// flush order; nil without an enabled Config.Obs.
	Artifacts []string
}

// AddTo files the run's sections in a manifest: its event-queue ledger
// under "s<seed>" and the artifact paths it wrote.
func (r RunRecord) AddTo(man *obs.Manifest) {
	if len(r.Queue) > 0 {
		if man.Queue == nil {
			man.Queue = map[string][]sim.Counters{}
		}
		man.Queue[fmt.Sprintf("s%d", r.Seed)] = r.Queue
	}
	man.Artifacts = append(man.Artifacts, r.Artifacts...)
}

// RunSeedsObserved runs the scenario once per seed on up to workers
// goroutines (<= 0 means runtime.GOMAXPROCS(0)) and returns the aggregate
// plus one RunRecord per seed, in seed order. Every run is independent —
// it owns its Sim, its packet pool, and RNG streams derived only from
// (seed, label) — and the per-seed Metrics are aggregated in seed order,
// so the MultiMetrics is bitwise-identical for every worker count; only
// wall-clock time changes. A failing seed stops the seeds not yet started.
func RunSeedsObserved(cfg Config, seeds []uint64, workers int) (MultiMetrics, []RunRecord, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Each worker owns a Workspace: consecutive seeds claimed by the same
	// goroutine reuse one simulator's slabs, and nothing is shared across
	// goroutines.
	wss := make([]*Workspace, workers)
	runs := make([]Metrics, len(seeds))
	recs := make([]RunRecord, len(seeds))
	err := RunOrdered(workers, len(seeds),
		func(w, i int) (Metrics, error) {
			if wss[w] == nil {
				wss[w] = NewWorkspace()
			}
			c := cfg
			c.Seed = seeds[i]
			m, rec, err := wss[w].RunRecorded(c)
			recs[i] = rec
			return m, err
		},
		func(i int, m Metrics) error { runs[i] = m; return nil })
	if err != nil {
		return MultiMetrics{}, nil, err
	}
	return Aggregate(runs), recs, nil
}

// MaxSeeds bounds the seed count a user asks for (eacsim's -seeds,
// experiments.Options.Seeds): the seed list, and one Metrics and one
// RunRecord per seed, are allocated before any seed runs. The largest
// count the docs use is 40.
const MaxSeeds = 10000

// DefaultSeeds returns n deterministic seeds.
func DefaultSeeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = 0x9E3779B9*uint64(i+1) + 1
	}
	return s
}
