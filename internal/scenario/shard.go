package scenario

import (
	"fmt"
	"runtime"

	"eac/internal/netsim"
	"eac/internal/obs"
	"eac/internal/sim"
	"eac/internal/sim/shard"
	"eac/internal/stats"
)

// This file implements the sharded execution path: one scenario partitioned
// by link across shard domains, each domain a private simulator advanced by
// the conservative windowed executor in internal/sim/shard.
//
// Decomposition. Links are partitioned into contiguous index blocks, one
// block per shard. A class is owned by the shard of the first link on its
// path, so flow arrivals, sources, probers, and the terminating sink of a
// class are all local to its owner; a packet only leaves the owner's domain
// by crossing a boundary link, where a portal hop takes custody at
// transmission end and ships the packet to the downstream shard with the
// link's full propagation delay still ahead of it. That residual delay is
// the executor's lookahead window.
//
// Arrivals. The serial scenario draws one aggregate Poisson arrival
// process and picks a class per arrival. Thinning a Poisson process yields
// independent Poisson processes, so each shard draws its own arrival
// stream at rate scaled by its owned share of the class weights and picks
// only among its own classes — identical in distribution to the serial
// process, though not variate-for-variate. Sharded runs are therefore
// deterministic per shard count but only statistically equivalent to the
// serial path; internal/conformance's envelopes pin that equivalence.

// effectiveShards returns the shard count a resolved config actually runs
// with: Shards clamped to the link count, with 0/1 (and anything that
// clamps down to 1) meaning the byte-identical serial path.
func effectiveShards(c Config) int {
	k := c.Shards
	if k > len(c.Links) {
		k = len(c.Links)
	}
	if k < 2 {
		return 1
	}
	return k
}

// AutoShards picks a shard count for cfg: the number of available cores,
// clamped to what the topology and method support (1 when sharding does
// not apply). The -shards=0 command-line setting resolves through this.
func AutoShards(cfg Config) int {
	return ShardableK(cfg, runtime.GOMAXPROCS(0))
}

// ShardableK clamps a requested shard count to what cfg supports: at most
// one shard per link, only for methods whose admission state is shard-local
// (EAC probing and no admission control; MBAC and Passive read router
// estimators across the whole path), and only when every boundary link has
// positive propagation delay (the conservative lookahead). Observability
// composes with sharding: each shard gets its own collector and the
// artifacts are merged at run end (see obs.Merged). Returns 1 — the
// serial path — when sharding does not apply.
func ShardableK(cfg Config, k int) int {
	cfg = cfg.WithDefaults()
	if k > len(cfg.Links) {
		k = len(cfg.Links)
	}
	if k < 2 {
		return 1
	}
	if cfg.Method != EAC && cfg.Method != None {
		return 1
	}
	if cfg.Hybrid.Active() {
		// Fluid link state is advanced from flow events across the whole
		// topology; it is not shard-local.
		return 1
	}
	if _, err := planShards(&cfg, k); err != nil {
		return 1
	}
	return k
}

// classPath returns a class's link path with the single-link default
// applied.
func classPath(cfg *Config, class int) []int {
	p := cfg.Classes[class].Path
	if len(p) == 0 {
		return []int{0}
	}
	return p
}

// shardPlan is the static partition of a config: which shard each link
// lives on, which links send packets across a border, which shard owns
// each class, and the resulting conservative window.
type shardPlan struct {
	shardOf  []int
	boundary []bool
	owner    []int
	window   sim.Time
}

// planShards partitions cfg's links into k contiguous blocks and derives
// the boundary set and window. It fails when a boundary link has zero
// propagation delay, which would leave no lookahead.
func planShards(cfg *Config, k int) (shardPlan, error) {
	n := len(cfg.Links)
	p := shardPlan{
		shardOf:  make([]int, n),
		boundary: make([]bool, n),
		owner:    make([]int, len(cfg.Classes)),
	}
	for i := 0; i < n; i++ {
		p.shardOf[i] = i * k / n
	}
	for c := range cfg.Classes {
		path := classPath(cfg, c)
		cur := p.shardOf[path[0]]
		p.owner[c] = cur
		for j := 1; j < len(path); j++ {
			s := p.shardOf[path[j]]
			if s != cur {
				p.boundary[path[j-1]] = true
				cur = s
			}
		}
		// The delivered packet returns to the owner's sink after the last
		// link; that is a crossing too when the path ends off-owner.
		if cur != p.owner[c] {
			p.boundary[path[len(path)-1]] = true
		}
	}
	w := sim.Time(0)
	for i, b := range p.boundary {
		if !b {
			continue
		}
		d := cfg.Links[i].Delay
		if d <= 0 {
			return p, fmt.Errorf("scenario: sharding requires positive propagation delay on boundary link %d", i)
		}
		if w == 0 || d < w {
			w = d
		}
	}
	if w == 0 {
		// No class path crosses a border: the shards never exchange
		// messages and any window is conservative. One window per run.
		w = cfg.Duration
		if w <= 0 {
			w = sim.Second
		}
	}
	p.window = w
	return p, nil
}

// portal is the route hop at a shard border. The upstream boundary link
// hands the packet over at transmission end (ReceiveTxEnd); the portal
// stages it as a cross-shard message due after the propagation delay, and
// the destination shard's Deliver forwards it to the next route hop.
type portal struct {
	src *shard.Shard[*netsim.Packet]
	dst int
}

// Receive implements netsim.Receiver; a portal must only ever be reached
// through the boundary link's tx-end hand-off.
func (pt *portal) Receive(now sim.Time, p *netsim.Packet) {
	panic("scenario: portal reached without boundary hand-off")
}

// ReceiveTxEnd implements netsim.TxEndReceiver.
func (pt *portal) ReceiveTxEnd(txEnd, delay sim.Time, p *netsim.Packet) {
	pt.src.Send(pt.dst, txEnd+delay, p)
}

// shardSlot is the per-shard state the Runner hooks consult: the shard's
// runner, its owned links, the owned class weights, and the drop tally for
// packets of remote flows dropped here.
type shardSlot struct {
	idx    int
	r      *Runner
	links  []*netsim.Link // links living on this shard
	onDrop func(now sim.Time, p *netsim.Packet)

	classW         []float64 // owned class weights (0 for foreign classes)
	ownedW, totalW float64
	dropWin        []int64 // per-class window drops on this shard's links
}

// prepopShare apportions the serial prepopulation count to this shard by
// its owned weight share.
func (sl *shardSlot) prepopShare(n int) int {
	if sl.ownedW <= 0 {
		return 0
	}
	return int(float64(n)*sl.ownedW/sl.totalW + 0.5)
}

// shardExec runs one scenario partitioned across k shards.
type shardExec struct {
	cfg  Config
	k    int
	plan shardPlan

	ex    *shard.Exec[*netsim.Packet]
	slots []*shardSlot
	links []*netsim.Link // global link list, indexed like cfg.Links

	// obs is the merged per-shard collector set (nil/inert unless
	// Config.Obs is active). Each shard's collector is owned by that
	// shard's goroutine during the run; the barrier at run end publishes
	// them for merging.
	obs *obs.Merged
}

// shardStream derives a per-shard RNG stream: distinct labels per shard
// keep the thinned arrival processes independent.
func shardStream(seed uint64, label string, idx int) *stats.RNG {
	return stats.NewStream(seed, fmt.Sprintf("%s@s%d", label, idx))
}

// newShardRunner builds the slot runner for one shard: a Runner without
// links of its own (the executor owns and wires those), whose simulator is
// the shard's, and whose RNG streams are shard-labelled.
func newShardRunner(cfg Config, s *sim.Sim, idx int) *Runner {
	r := &Runner{
		cfg:      cfg,
		s:        s,
		rngArr:   shardStream(cfg.Seed, "arrivals", idx),
		rngPick:  shardStream(cfg.Seed, "classpick", idx),
		rngLife:  shardStream(cfg.Seed, "lifetimes", idx),
		rngSrc:   shardStream(cfg.Seed, "sources", idx),
		rngRetry: shardStream(cfg.Seed, "retries", idx),
		rngLoad:  shardStream(cfg.Seed, "load", idx),
	}
	r.arrEv = sim.NewEvent(r.onFlowArrival)
	r.winStart = cfg.Warmup
	r.winEnd = cfg.Duration - cfg.Drain
	r.meanIA = cfg.InterArrival
	r.setupLoad()
	r.classes = make([]ClassMetrics, len(cfg.Classes))
	for i := range r.classes {
		r.classes[i].Name = cfg.Classes[i].Name
	}
	return r
}

// newShardExec builds the sharded execution of a resolved, valid cfg.
func newShardExec(cfg Config, k int) (*shardExec, error) {
	plan, err := planShards(&cfg, k)
	if err != nil {
		return nil, err
	}
	e := &shardExec{cfg: cfg, k: k, plan: plan}
	e.ex = shard.NewExec[*netsim.Packet](k, plan.window)
	e.slots = make([]*shardSlot, k)
	for i := 0; i < k; i++ {
		sl := &shardSlot{idx: i}
		sl.r = newShardRunner(cfg, e.ex.Shard(i).Sim, i)
		sl.r.slot = sl
		sl.dropWin = make([]int64, len(cfg.Classes))
		r := sl.r
		sl.onDrop = func(now sim.Time, p *netsim.Packet) {
			if p.Kind == netsim.Data && p.SentAt >= r.winStart && p.SentAt <= r.winEnd {
				sl.dropWin[p.Class]++
			}
			r.pool.Put(p)
		}
		e.ex.Shard(i).Deliver = func(now sim.Time, p *netsim.Packet) { p.Forward(now) }
		e.slots[i] = sl
	}
	e.applyWeights(cfg)

	maxPkt := maxPktSize(cfg)
	e.links = make([]*netsim.Link, len(cfg.Links))
	for i, ls := range cfg.Links {
		sl := e.slots[plan.shardOf[i]]
		l := netsim.NewLink(sl.r.s, linkName(i), ls.RateBps, ls.Delay, newDiscipline(&cfg, i, ls, maxPkt))
		attachMarker(&cfg, l, ls, maxPkt)
		l.OnDrop = sl.onDrop
		l.Boundary = plan.boundary[i]
		e.links[i] = l
		sl.links = append(sl.links, l)
	}
	tmpl := plan.routeTemplates(&cfg, e.links,
		func(from, to int) netsim.Receiver { return &portal{src: e.ex.Shard(from), dst: to} },
		func(shard int) *Runner { return e.slots[shard].r })
	for _, sl := range e.slots {
		sl.r.tmpl = tmpl
	}
	e.wireObs()
	e.buildPolicies()
	return e, nil
}

// buildPolicies constructs each shard's admission policy over its owned
// links. Admission state stays shard-local: the token bucket is scaled to
// the shard's weight share (Runner.buildPolicy), and the adaptive policy
// adapts from the loss observed on the shard's own links.
func (e *shardExec) buildPolicies() {
	if e.cfg.Method != EAC {
		return
	}
	for _, sl := range e.slots {
		sl.r.policy = sl.r.buildPolicy(sl.links)
	}
}

// wireObs builds the per-shard collector set and attaches it: one
// collector per slot runner (classes and duration registered by
// Runner.Observe) and one link tap per link, registered on the owning
// shard's collector in ascending global link order — which is also each
// slot's links order, so per-shard link indices in samples and trace
// events line up with the collector's registry. No-op when Config.Obs is
// inactive: e.obs stays nil, every runner keeps its nil collector, and
// taps stay nil, preserving the sharded path's zero-overhead contract.
func (e *shardExec) wireObs() {
	if !e.cfg.Obs.Active() {
		return
	}
	e.obs = obs.NewMerged(e.cfg.Obs, e.cfg.Seed, e.k)
	for i, sl := range e.slots {
		sl.r.Observe(e.obs.Collector(i))
	}
	for i, l := range e.links {
		l.Tap = e.obs.Collector(e.plan.shardOf[i]).RegisterLink(l.Name)
	}
}

// flushObs writes the merged artifacts of a completed sharded run and
// returns their paths. No-op without an enabled collector set.
func (e *shardExec) flushObs() ([]string, error) { return e.obs.Flush() }

// applyWeights recomputes the per-slot class ownership weights, thinned
// arrival means, and template index from cfg (also used on reset, where
// weights may have changed).
func (e *shardExec) applyWeights(cfg Config) {
	totalW := 0.0
	for _, cl := range cfg.Classes {
		totalW += cl.Weight
	}
	for _, sl := range e.slots {
		sl.totalW = totalW
		sl.ownedW = 0
		if cap(sl.classW) >= len(cfg.Classes) {
			sl.classW = sl.classW[:len(cfg.Classes)]
		} else {
			sl.classW = make([]float64, len(cfg.Classes))
		}
		for c := range cfg.Classes {
			w := 0.0
			if e.plan.owner[c] == sl.idx {
				w = cfg.Classes[c].Weight
				sl.ownedW += w
			}
			sl.classW[c] = w
		}
		if sl.ownedW > 0 {
			sl.r.meanIA = cfg.InterArrival * totalW / sl.ownedW
		}
	}
}

// routeTemplates assembles a plan's shared per-class packet routes: each
// class path's links, a portal at every shard crossing (including the
// return to the owner's sink after the final link), then the owner's sink.
// The serial runner's routes are the one-shard plan's, which has no
// crossing and so never asks for a portal.
func (p *shardPlan) routeTemplates(cfg *Config, links []*netsim.Link, portal func(from, to int) netsim.Receiver, owner func(shard int) *Runner) [][]netsim.Receiver {
	tmpl := make([][]netsim.Receiver, len(cfg.Classes))
	for c := range cfg.Classes {
		o := p.owner[c]
		cur := o
		var t []netsim.Receiver
		for _, li := range classPath(cfg, c) {
			if s := p.shardOf[li]; s != cur {
				t = append(t, portal(cur, s))
				cur = s
			}
			t = append(t, links[li])
		}
		if cur != o {
			t = append(t, portal(cur, o))
		}
		tmpl[c] = append(t, (*sinkRecv)(owner(o)))
	}
	return tmpl
}

// serialTemplates builds r's routes over its own links, ending at r.
func (r *Runner) serialTemplates() [][]netsim.Receiver {
	plan, _ := planShards(&r.cfg, 1) // one shard has no boundary link to reject
	return plan.routeTemplates(&r.cfg, r.links, nil, func(int) *Runner { return r })
}

// canReuse reports whether reset can adapt this executor to cfg: same
// shard count and a structurally identical topology (link count and class
// paths), so the partition, boundary set, and route templates carry over.
func (e *shardExec) canReuse(cfg Config, k int) bool {
	if k != e.k || len(cfg.Links) != len(e.cfg.Links) || len(cfg.Classes) != len(e.cfg.Classes) {
		return false
	}
	for c := range cfg.Classes {
		a, b := classPath(&cfg, c), classPath(&e.cfg, c)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// reset rewinds the executor for another run of a structurally identical
// cfg, mirroring Runner.reset shard by shard. Like the serial reuse path,
// it is output-neutral: a reused executor's Metrics are identical to a
// fresh one's for the same cfg.
func (e *shardExec) reset(cfg Config) {
	plan, err := planShards(&cfg, e.k)
	if err != nil {
		// canReuse guaranteed the structure; only delays can differ, and
		// Validate already rejected non-positive boundary delays.
		panic(err)
	}
	e.cfg = cfg
	e.plan.window = plan.window
	e.ex.Window = plan.window

	for _, sl := range e.slots {
		r := sl.r
		r.releaseFlows()
		r.s.Reset()
		r.cfg = cfg
		r.rngArr.ReseedStream(cfg.Seed, fmt.Sprintf("arrivals@s%d", sl.idx))
		r.rngPick.ReseedStream(cfg.Seed, fmt.Sprintf("classpick@s%d", sl.idx))
		r.rngLife.ReseedStream(cfg.Seed, fmt.Sprintf("lifetimes@s%d", sl.idx))
		r.rngSrc.ReseedStream(cfg.Seed, fmt.Sprintf("sources@s%d", sl.idx))
		r.rngRetry.ReseedStream(cfg.Seed, fmt.Sprintf("retries@s%d", sl.idx))
		r.rngLoad.ReseedStream(cfg.Seed, fmt.Sprintf("load@s%d", sl.idx))
		r.winStart = cfg.Warmup
		r.winEnd = cfg.Duration - cfg.Drain
		r.meanIA = cfg.InterArrival
		r.setupLoad()
		for i := range r.classes {
			r.classes[i] = ClassMetrics{Name: cfg.Classes[i].Name}
		}
		r.decided, r.retries = 0, 0
		r.epsSum, r.epsN = 0, 0
		r.obs = nil
		r.activeFlows, r.lastSample = 0, 0
		r.delayStats = stats.Welford{}
		r.delayHist = [1001]int64{}
		for c := range sl.dropWin {
			sl.dropWin[c] = 0
		}
	}
	e.ex.Reset()
	e.applyWeights(cfg)

	maxPkt := maxPktSize(cfg)
	for i, ls := range cfg.Links {
		sl := e.slots[e.plan.shardOf[i]]
		l := e.links[i]
		l.Reset(ls.RateBps, ls.Delay, sl.r.pool.Put)
		if pp, ok := l.Q.(*netsim.PriorityPushout); ok && cfg.Queue == QueuePushout {
			pp.SetCap(ls.BufferPkts)
		} else {
			l.Q = newDiscipline(&cfg, i, ls, maxPkt)
		}
		attachMarker(&cfg, l, ls, maxPkt)
		l.OnDrop = sl.onDrop
		l.Boundary = e.plan.boundary[i]
	}
	e.obs = nil
	e.wireObs()
	for _, sl := range e.slots {
		sl.r.policy = nil
	}
	e.buildPolicies()
}

// run executes the sharded scenario and merges the per-shard metrics.
func (e *shardExec) run() Metrics {
	for _, sl := range e.slots {
		r := sl.r
		owned := sl.links
		r.s.Call(e.cfg.Warmup, func(now sim.Time) {
			for _, l := range owned {
				l.Stats.Reset(now)
			}
		})
		r.startObsSampling(owned)
		r.prepopulate()
		if sl.ownedW > 0 {
			r.scheduleNextArrival(0)
		}
	}
	e.ex.Run(e.cfg.Duration)
	e.obs.SetShardExecuted(e.executed())
	return e.metrics()
}

// executed returns per-shard executed-event counts (for load-balance
// reporting in benchmarks).
func (e *shardExec) executed() []uint64 {
	out := make([]uint64, len(e.slots))
	for i, sl := range e.slots {
		out[i] = sl.r.s.Executed()
	}
	return out
}

// metrics merges the per-shard results into one Metrics, mirroring the
// serial Runner.metrics field by field. Per-flow window counters live with
// the owning shard; window drops of a flow's packets on foreign shards are
// booked there per class (shardSlot.dropWin), so class and total loss sums
// match the serial accounting. Delay statistics merge via Welford
// combination plus histogram addition. Iteration is in shard order, so the
// merged result is deterministic for a fixed shard count.
func (e *shardExec) metrics() Metrics {
	var m Metrics
	m.Classes = make([]ClassMetrics, len(e.cfg.Classes))
	for i := range m.Classes {
		m.Classes[i].Name = e.cfg.Classes[i].Name
	}
	var sent, lost int64
	var epsSum float64
	var epsN int64
	var delay stats.Welford
	var hist [1001]int64
	for _, sl := range e.slots {
		r := sl.r
		for i, f := range r.flows {
			m.Classes[f.class].DataSent += r.hot[i].winSent
			sent += r.hot[i].winSent
		}
		for c, d := range sl.dropWin {
			m.Classes[c].DataLost += d
			lost += d
		}
		for c := range r.classes {
			m.Classes[c].Arrived += r.classes[c].Arrived
			m.Classes[c].Accepted += r.classes[c].Accepted
			m.Classes[c].Blocked += r.classes[c].Blocked
		}
		m.Decided += r.decided
		m.Retries += r.retries
		epsSum += r.epsSum
		epsN += r.epsN
		delay.Merge(r.delayStats)
		for i, v := range r.delayHist {
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
	}
	if epsN > 0 {
		m.MeanEps = epsSum / float64(epsN)
	}
	m.MeanDelaySec = delay.Mean()
	m.P99DelaySec = delayPercentile(&hist, delay.N(), 0.99)
	now := e.cfg.Duration
	m.Links = make([]LinkMetrics, len(e.links))
	for i, l := range e.links {
		dt := (now - l.Stats.ResetTime).Sec()
		var lm LinkMetrics
		if dt > 0 {
			lm.Utilization = float64(l.Stats.SentBits[netsim.Data]) / (l.RateBps * dt)
			lm.ProbeShare = float64(l.Stats.SentBits[netsim.Probe]) / (l.RateBps * dt)
		}
		if a := l.Stats.Arrived[netsim.Data]; a > 0 {
			lm.DataLossProb = float64(l.Stats.Dropped[netsim.Data]) / float64(a)
		}
		if a := l.Stats.Arrived[netsim.Probe]; a > 0 {
			lm.ProbeLossProb = float64(l.Stats.Dropped[netsim.Probe]) / float64(a)
		}
		m.Links[i] = lm
	}
	m.Utilization = m.Links[0].Utilization
	m.ProbeShare = m.Links[0].ProbeShare
	return m
}
