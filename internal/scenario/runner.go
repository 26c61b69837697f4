package scenario

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"eac/internal/admission"
	"eac/internal/mbac"
	"eac/internal/netsim"
	"eac/internal/obs"
	"eac/internal/sim"
	"eac/internal/stats"
	"eac/internal/trafgen"
)

// flowState tracks one offered flow through its lifecycle. The fields
// listed in releaseFlows — stop event, prober, and the two per-flow
// closures — survive recycling; everything else is per-run.
type flowState struct {
	id        int
	class     int
	route     []netsim.Receiver // the class's shared template (Runner.tmpl)
	prober    *admission.Prober
	probeDone func(admission.Result) // prober completion, captures this flowState
	emitFn    trafgen.EmitFunc       // source emission hook, captures this flowState
	src       trafgen.Source
	stopEv    sim.Event
	counted   bool // decision falls inside the measurement window
	attempts  int  // completed admission attempts (for retries)
	extends   int  // probe extensions granted by the policy this attempt chain

	active   bool
	fluid    bool    // data phase carried on the fluid plane (hybrid engine)
	lastFrac float64 // bad-packet fraction of the last probe (EAC)
	lastEps  float64 // threshold the last probe ran against (EAC)
}

// flowHot holds the per-flow counters touched on every packet event. They
// live in one contiguous arena (Runner.hot, indexed by flow ID) rather than
// inside the pointer-scattered flowState structs, so the packet hot loop —
// emit, sink, drop — walks cache-local memory. One entry is 48 bytes.
type flowHot struct {
	dataSeq          int64
	winSent, winRecv int64 // emitted/arrived within the accounting window
	winDrop          int64 // window packets dropped at a router
	sentAll, recvAll int64
}

// Runner executes one configured scenario.
type Runner struct {
	cfg Config
	s   *sim.Sim

	links    []*netsim.Link
	ms       []*mbac.MeasuredSum
	monitors []*lossMonitor
	pool     netsim.Pool
	rngArr   *stats.RNG
	rngPick  *stats.RNG
	rngLife  *stats.RNG
	rngSrc   *stats.RNG
	rngRetry *stats.RNG
	rngLoad  *stats.RNG
	// rngBg is the fluid backgrounds' congestion-dice stream, created
	// lazily by setupHybrid (pure-packet runs never touch it).
	rngBg *stats.RNG

	// policy is the run's admission policy instance (Method EAC only).
	// The static default reproduces the pre-policy code path exactly.
	policy admission.Policy
	// loadMaxF caches the peak factor of an active load modulation — the
	// Lewis–Shedler thinning envelope: max(OnFactor, OffFactor) for a
	// LoadSpec, Schedule.Peak() for a Schedule. 0 means modulation is off
	// and the arrival path (including its RNG consumption) is
	// byte-identical to previous releases.
	loadMaxF float64
	// schedCur is the monotone phase cursor of an active Schedule, reset
	// with the rest of the run state so Workspace reuse cannot leak a
	// previous run's phase position (TestWorkspaceLoadByteIdentical).
	schedCur schedCursor
	// replay / replayIdx drive trace-replay arrivals: replayIdx is the
	// next recorded arrival to schedule. Sharded runners skip entries for
	// classes owned by other shards, which partitions the recorded
	// aggregate exactly as class ownership partitions the live process.
	replay    *ReplayTrace
	replayIdx int
	// epsSum / epsN accumulate the admission threshold in force for each
	// EAC flow decided inside the window (Metrics.MeanEps).
	epsSum float64
	epsN   int64

	flows     []*flowState
	hot       []flowHot    // per-flow packet counters, parallel to flows
	freeFlows []*flowState // retired flow states awaiting reuse (reset path)
	flowSlab  []flowState  // remainder of the arena block newFlow carves from
	// tmpl holds one packet route per class, shared by all its flows and
	// immutable for the run: the class path's links and the owner's sink,
	// with portals at shard crossings on the sharded path (routeTemplates).
	tmpl    [][]netsim.Receiver
	arrEv   *sim.Event // the single pending flow-arrival event
	classes []ClassMetrics

	winStart, winEnd sim.Time // packet accounting window
	decided          int64
	retries          int64

	// meanIA is the mean flow inter-arrival time fed to the arrival
	// process: Config.InterArrival on the serial path, scaled up by the
	// shard's share of the class weights on the sharded path (thinning a
	// Poisson process splits it into independent Poisson processes).
	meanIA float64
	// slot is non-nil when this runner drives one shard of a partitioned
	// topology (see shard.go). Serial runners leave it nil.
	slot *shardSlot

	// hyb is non-nil when the hybrid fluid/packet engine is enabled
	// (Config.Hybrid); see hybrid.go. Hybrid runs are serial-only.
	hyb *hybridState

	// Observability (nil/inert by default; see Config.Obs and Observe).
	obs         *obs.Collector
	activeFlows int // flows currently in their data phase
	lastSample  sim.Time
	lastBits    []int64 // per-link data bits at the previous sample

	// End-to-end data delay statistics over the accounting window:
	// Welford for the mean plus a 1 ms-bucket histogram for percentiles.
	delayStats stats.Welford
	delayHist  [1001]int64 // [i] = delays in [i, i+1) ms; last = overflow
}

// NewRunner builds (but does not run) a scenario.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newRunner(cfg), nil
}

// newRunner assumes cfg is already resolved and valid.
func newRunner(cfg Config) *Runner {
	r := &Runner{
		cfg:      cfg,
		s:        sim.New(),
		rngArr:   stats.NewStream(cfg.Seed, "arrivals"),
		rngPick:  stats.NewStream(cfg.Seed, "classpick"),
		rngLife:  stats.NewStream(cfg.Seed, "lifetimes"),
		rngSrc:   stats.NewStream(cfg.Seed, "sources"),
		rngRetry: stats.NewStream(cfg.Seed, "retries"),
		rngLoad:  stats.NewStream(cfg.Seed, "load"),
	}
	r.arrEv = sim.NewEvent(r.onFlowArrival)
	r.winStart = cfg.Warmup
	r.winEnd = cfg.Duration - cfg.Drain
	r.meanIA = cfg.InterArrival
	r.setupLoad()

	maxPkt := maxPktSize(cfg)
	for i, ls := range cfg.Links {
		l := netsim.NewLink(r.s, linkName(i), ls.RateBps, ls.Delay, r.newDiscipline(i, ls, maxPkt))
		r.links = append(r.links, l)
		r.wireLink(i, maxPkt)
	}
	r.tmpl = r.serialTemplates()
	r.setupHybrid()
	r.classes = make([]ClassMetrics, len(cfg.Classes))
	for i := range r.classes {
		r.classes[i].Name = cfg.Classes[i].Name
	}
	if cfg.Obs.Active() {
		r.Observe(obs.New(cfg.Obs, cfg.Seed))
	}
	if cfg.Method == EAC {
		r.policy = r.buildPolicy(r.links)
	}
	return r
}

// setupLoad reinitializes the workload state for a (re)run: the thinning
// peak of an active modulation, the schedule's phase cursor, and the
// replay stream position. Called by newRunner, newShardRunner, and both
// reset paths, so a recycled runner starts every workload byte-identically
// to a fresh one.
func (r *Runner) setupLoad() {
	r.loadMaxF = 0
	r.schedCur = schedCursor{}
	r.replay = r.cfg.Replay
	r.replayIdx = 0
	switch {
	case r.replay != nil:
		// Replay drives arrival times directly; no thinning envelope.
	case r.cfg.Schedule.Active():
		r.loadMaxF = r.cfg.Schedule.Peak()
	case r.cfg.Load.Active():
		r.loadMaxF = math.Max(r.cfg.Load.OnFactor, r.cfg.Load.OffFactor)
	}
}

// loadFactor returns the arrival-rate scale in force at now (an active
// Schedule's phase value, else the square wave of Config.Load; only
// called while modulation is active). The phase clock is absolute
// simulated time, so every shard of a sharded run evaluates the same
// factor at the same instant.
func (r *Runner) loadFactor(now sim.Time) float64 {
	if r.cfg.Schedule.Active() {
		return r.cfg.Schedule.factorAt(now.Sec(), &r.schedCur)
	}
	l := r.cfg.Load
	if math.Mod(now.Sec(), l.PeriodSec) < l.OnFraction*l.PeriodSec {
		return l.OnFactor
	}
	return l.OffFactor
}

// buildPolicy constructs the run's admission policy and wires its
// environment: a sharded run's token bucket is scaled to the shard's
// owned weight share (so the aggregate admission rate matches serial),
// and the adaptive policy reads post-admission loss from the given links
// — the shard-owned subset on the sharded path — and reports epochs to
// the run's collector. Requires links built; Method EAC only.
func (r *Runner) buildPolicy(links []*netsim.Link) admission.Policy {
	p := admission.NewPolicy(r.cfg.Policy, r.cfg.AC)
	switch pol := p.(type) {
	case *admission.TokenBucket:
		if r.slot != nil && r.slot.totalW > 0 {
			pol.Scale(r.slot.ownedW / r.slot.totalW)
		}
	case *admission.EpochAdaptive:
		pol.SetLossSignal(func() (arrived, dropped int64) {
			for _, l := range links {
				arrived += l.Stats.Arrived[netsim.Data]
				dropped += l.Stats.Dropped[netsim.Data]
			}
			return
		})
		pol.SetEpochHook(func(now sim.Time, st admission.EpochStats) {
			r.obs.Epoch(now, st.Epoch, st.Eps, st.ProbeDur, st.RejectRate, st.LossRate)
		})
	}
	return p
}

// maxPktSize returns the largest packet size across the offered classes.
func maxPktSize(cfg Config) int {
	maxPkt := 0
	for _, cl := range cfg.Classes {
		if cl.Preset.PktSize > maxPkt {
			maxPkt = cl.Preset.PktSize
		}
	}
	return maxPkt
}

// newDiscipline builds the queue discipline for link i per cfg.Queue. It is
// a free function because both the serial runner and the sharded executor
// build links.
func newDiscipline(cfg *Config, i int, ls LinkSpec, maxPkt int) netsim.Discipline {
	switch cfg.Queue {
	case QueueRED:
		return netsim.NewRED(ls.BufferPkts, netsim.REDConfig{
			MeanPktTime: sim.Time(float64(maxPkt*8) / ls.RateBps * float64(sim.Second)),
		}, stats.NewStream(cfg.Seed, fmt.Sprintf("red-%d", i)))
	default:
		return netsim.NewPriorityPushout(ls.BufferPkts)
	}
}

func (r *Runner) newDiscipline(i int, ls LinkSpec, maxPkt int) netsim.Discipline {
	return newDiscipline(&r.cfg, i, ls, maxPkt)
}

// attachMarker installs the EAC marking shadow queue on a link, when the
// configured design uses one. Shared by the serial and sharded wiring.
func attachMarker(cfg *Config, l *netsim.Link, ls LinkSpec, maxPkt int) {
	if cfg.Method != EAC {
		return
	}
	switch cfg.AC.Design.Signal {
	case admission.Mark:
		l.Marker = netsim.NewVirtualQueue(cfg.VQFactor*ls.RateBps, int64(ls.BufferPkts*maxPkt))
	case admission.VDrop:
		l.Marker = netsim.NewVirtualQueue(cfg.VQFactor*ls.RateBps, int64(ls.BufferPkts*maxPkt))
		l.VQDropProbes = true
	}
}

// wireLink attaches link i's method-specific machinery — drop hook, marking
// shadow queue, MBAC load tap, passive loss monitor — on a link whose hooks
// are clear (just built, or just Reset). It appends to r.ms / r.monitors,
// so the caller iterates links in order with both slices empty.
func (r *Runner) wireLink(i, maxPkt int) {
	cfg, ls, l := &r.cfg, r.cfg.Links[i], r.links[i]
	l.OnDrop = r.onLinkDrop
	attachMarker(cfg, l, ls, maxPkt)
	switch cfg.Method {
	case MBAC:
		m := mbac.New(ls.RateBps, cfg.MS)
		l.OnArrive = m.Tap()
		r.ms = append(r.ms, m)
	case Passive:
		lm := newLossMonitor(cfg.PV.WindowSec)
		l.OnArrive = func(now sim.Time, p *netsim.Packet) { lm.onArrive(now) }
		l.OnDrop = func(now sim.Time, p *netsim.Packet) {
			lm.onDrop(now)
			r.onLinkDrop(now, p)
		}
		r.monitors = append(r.monitors, lm)
	}
}

// canReuse reports whether reset can adapt this runner to cfg. The link
// slabs are positional, so only the topology size has to match; every
// other parameter is rewritten by reset.
func (r *Runner) canReuse(cfg Config) bool { return len(r.links) == len(cfg.Links) }

// reset rewinds an already-run Runner into the state newRunner(cfg) would
// produce, recycling the expensive allocations of the previous run: the
// event-heap slab, the link pipe and queue rings, the packet pool's
// freelist, retired flow states (with their stop events and probers), and
// the RNG stream structs. The recycled state is output-neutral —
// Sim.Reset rewinds the FIFO tie-break counter, Pool.Put zeroes packets,
// and ring/heap geometry is proven irrelevant by the byte-identity tests —
// so a reused runner's Metrics are identical to a fresh runner's
// (TestWorkspaceByteIdentical pins this). cfg must be resolved, valid, and
// satisfy canReuse.
func (r *Runner) reset(cfg Config) {
	r.releaseFlows()
	r.s.Reset()
	r.cfg = cfg
	r.rngArr.ReseedStream(cfg.Seed, "arrivals")
	r.rngPick.ReseedStream(cfg.Seed, "classpick")
	r.rngLife.ReseedStream(cfg.Seed, "lifetimes")
	r.rngSrc.ReseedStream(cfg.Seed, "sources")
	r.rngRetry.ReseedStream(cfg.Seed, "retries")
	r.rngLoad.ReseedStream(cfg.Seed, "load")
	r.winStart = cfg.Warmup
	r.winEnd = cfg.Duration - cfg.Drain
	r.meanIA = cfg.InterArrival
	r.setupLoad()
	r.ms = r.ms[:0]
	r.monitors = r.monitors[:0]

	maxPkt := maxPktSize(cfg)
	for i, ls := range cfg.Links {
		l := r.links[i]
		l.Reset(ls.RateBps, ls.Delay, r.pool.Put)
		// The pushout discipline's band rings are worth keeping; RED holds
		// a seeded RNG and run-scoped EWMA state, so it is rebuilt.
		if pp, ok := l.Q.(*netsim.PriorityPushout); ok && cfg.Queue == QueuePushout {
			pp.SetCap(ls.BufferPkts)
		} else {
			l.Q = r.newDiscipline(i, ls, maxPkt)
		}
		r.wireLink(i, maxPkt)
	}
	r.tmpl = r.serialTemplates() // classes and paths may have changed
	r.setupHybrid()

	if cap(r.classes) >= len(cfg.Classes) {
		r.classes = r.classes[:len(cfg.Classes)]
	} else {
		r.classes = make([]ClassMetrics, len(cfg.Classes))
	}
	for i := range r.classes {
		r.classes[i] = ClassMetrics{Name: cfg.Classes[i].Name}
	}

	r.decided, r.retries = 0, 0
	r.epsSum, r.epsN = 0, 0
	r.obs = nil
	r.activeFlows, r.lastSample = 0, 0
	r.delayStats = stats.Welford{}
	r.delayHist = [1001]int64{}
	if cfg.Obs.Active() {
		r.Observe(obs.New(cfg.Obs, cfg.Seed))
	}
	r.policy = nil
	if cfg.Method == EAC {
		r.policy = r.buildPolicy(r.links)
	}
}

// releaseFlows retires the previous run's flow states into the freelist,
// keeping each one's stop event (whose closure captures the flowState
// pointer, which stays valid across reuse). Must run before Sim.Reset wipes
// the heap, which is what makes the blanket Forget calls safe.
func (r *Runner) releaseFlows() {
	r.arrEv.Forget()
	for _, f := range r.flows {
		if f.prober != nil {
			f.prober.ForgetEvents()
		}
		f.stopEv.Forget()
		*f = flowState{
			stopEv:    f.stopEv,
			prober:    f.prober,
			probeDone: f.probeDone,
			emitFn:    f.emitFn,
		}
		r.freeFlows = append(r.freeFlows, f)
	}
	r.flows = r.flows[:0]
	r.hot = r.hot[:0]
}

// flowSlabSize is the flowState arena block size (cf. netsim's packet slabs).
const flowSlabSize = 64

// newFlow hands out the next flowState — recycled when the freelist has
// one, else carved from the arena — registered under the next flow ID and
// routed over its class template.
func (r *Runner) newFlow(class int) *flowState {
	var f *flowState
	if n := len(r.freeFlows); n > 0 {
		f = r.freeFlows[n-1]
		r.freeFlows[n-1] = nil
		r.freeFlows = r.freeFlows[:n-1]
	} else {
		if len(r.flowSlab) == 0 {
			r.flowSlab = make([]flowState, flowSlabSize)
		}
		f = &r.flowSlab[0]
		r.flowSlab = r.flowSlab[1:]
		f.stopEv.Init(func(at sim.Time) { r.stopFlow(at, f) })
	}
	f.id = len(r.flows)
	f.class = class
	f.route = r.tmpl[class]
	r.flows = append(r.flows, f)
	r.hot = append(r.hot, flowHot{})
	return f
}

// stopFlow ends a flow's data phase (its lifetime expired).
func (r *Runner) stopFlow(now sim.Time, f *flowState) {
	if f.fluid {
		r.stopFluid(now, f)
		return
	}
	f.src.Stop()
	f.active = false
	r.activeFlows--
	r.obs.SpanDataEnd(now, f.id)
}

// onLinkDrop is every link's drop hook: it books the loss against the
// owning flow when the packet was a data packet emitted inside the
// accounting window, then recycles the packet. Counting drops where they
// happen (instead of inferring them as winSent-winRecv at the end) keeps
// packets still in flight when the run ends out of the loss statistics.
func (r *Runner) onLinkDrop(now sim.Time, p *netsim.Packet) {
	if p.Kind == netsim.Data && p.SentAt >= r.winStart && p.SentAt <= r.winEnd {
		r.hot[p.FlowID].winDrop++
	}
	r.pool.Put(p)
}

// Observe attaches a telemetry collector to the runner (normally done by
// NewRunner from Config.Obs; exposed so tests can inject a
// constructed-but-disabled collector). Must be called before Run. A nil
// or disabled collector leaves every hot path untouched.
//
// Sharded runs attach one collector per shard runner; their link taps
// are wired by the shard executor (a shard runner owns no links — see
// shardExec.wireObs), so the loop below is a no-op there.
func (r *Runner) Observe(c *obs.Collector) {
	r.obs = c
	if !c.Enabled() {
		return
	}
	for _, l := range r.links {
		l.Tap = c.RegisterLink(l.Name)
	}
	for _, cl := range r.cfg.Classes {
		c.RegisterClass(cl.Name)
	}
	c.SetDuration(r.cfg.Duration)
}

func linkName(i int) string { return fmt.Sprintf("L%d", i) }

// Run executes the scenario and returns its metrics.
func (r *Runner) Run() Metrics {
	// Warmup boundary: reset link counters (and the fluid plane's
	// delivered/offered integrals, which feed window utilization).
	r.s.Call(r.cfg.Warmup, func(now sim.Time) {
		for _, l := range r.links {
			l.Stats.Reset(now)
		}
		if r.hyb != nil {
			for _, bg := range r.hyb.bgs {
				bg.ResetWindow(now)
			}
		}
	})
	r.startObsSampling(r.links)
	r.prepopulate()
	r.scheduleNextArrival(0)
	r.s.Run(r.cfg.Duration)
	return r.metrics()
}

// startObsSampling schedules the periodic per-queue sampling event over
// the given links — the runner's own on the serial path, the owning
// shard's on the sharded path. The event only reads simulator state, so
// enabling it does not perturb the simulated dynamics.
func (r *Runner) startObsSampling(links []*netsim.Link) {
	if !r.obs.Sampling() {
		return
	}
	r.lastBits = make([]int64, len(links))
	iv := r.obs.Interval()
	var ev *sim.Event
	ev = sim.NewEvent(func(now sim.Time) {
		r.sampleObs(now, links)
		if now+iv <= r.cfg.Duration {
			r.s.Schedule(ev, now+iv)
		}
	})
	r.s.Schedule(ev, iv)
}

// sampleObs appends one time-series point per link: queue depth,
// utilization over the elapsed interval, cumulative counters, shadow
// backlog, and the active-flow count. The link index recorded in each
// sample is the position in links, which matches the collector's
// RegisterLink order (global on the serial path, per-shard on the
// sharded path).
func (r *Runner) sampleObs(now sim.Time, links []*netsim.Link) {
	dt := (now - r.lastSample).Sec()
	for i, l := range links {
		bits := l.Stats.SentBits[netsim.Data]
		if bits < r.lastBits[i] {
			r.lastBits[i] = 0 // counters were reset at the warmup boundary
		}
		var util float64
		if dt > 0 {
			util = float64(bits-r.lastBits[i]) / (l.RateBps * dt)
		}
		r.lastBits[i] = bits
		s := obs.Sample{
			T: now.Sec(), Link: i, Depth: l.QueueLen(), Busy: l.Busy(),
			ActiveFlows: r.activeFlows, Util: util,
			Arrived: l.Stats.Arrived, Dropped: l.Stats.Dropped,
			Marked: l.Stats.Marked, SentPkts: l.Stats.SentPkts,
		}
		if l.Marker != nil {
			s.VQBacklog = l.Marker.TotalBacklog()
		}
		if r.hyb != nil {
			bg := r.hyb.bgs[i]
			s.FluidBg = bg.Rate()
			s.FluidMark = bg.Congestion()
		}
		r.obs.AddSample(s)
	}
	r.lastSample = now
}

// FlushObs writes the attached collector's artifacts (time-series CSV,
// event trace) and returns their paths. No-op without an enabled
// collector.
func (r *Runner) FlushObs() ([]string, error) { return r.obs.Flush() }

// prepopulate seeds already-admitted flows per Config.PrepopulateUtil.
func (r *Runner) prepopulate() {
	if r.cfg.PrepopulateUtil <= 0 {
		return
	}
	var avg, wsum float64
	for _, cl := range r.cfg.Classes {
		avg += cl.Weight * cl.Preset.AvgRate
		wsum += cl.Weight
	}
	avg /= wsum
	n := int(r.cfg.PrepopulateUtil*r.cfg.Links[0].RateBps/avg + 0.5)
	if r.slot != nil {
		n = r.slot.prepopShare(n)
	}
	for i := 0; i < n; i++ {
		class := r.pickClass()
		f := r.newFlow(class)
		f.active = true
		r.startData(0, f)
	}
}

// Sim exposes the underlying simulator (for tests and composition).
func (r *Runner) Sim() *sim.Sim { return r.s }

func (r *Runner) scheduleNextArrival(now sim.Time) {
	if r.replay != nil {
		r.scheduleNextReplay()
		return
	}
	mean := r.meanIA
	if r.loadMaxF > 0 {
		// Lewis–Shedler thinning: draw at the peak modulated rate;
		// onFlowArrival keeps each arrival with probability
		// factor(now)/loadMaxF.
		mean /= r.loadMaxF
	}
	gap := sim.Seconds(r.rngArr.Exp(mean))
	at := now + gap
	if at >= r.cfg.Duration {
		return
	}
	// Only one arrival is ever pending (each firing schedules the next),
	// so a single persistent event serves the whole run.
	r.s.Schedule(r.arrEv, at)
}

// scheduleNextReplay schedules the next recorded arrival this runner owns.
// A sharded runner skips entries for classes owned by other shards; a
// recorded time at or past the horizon ends the stream, mirroring the
// live arrival process.
func (r *Runner) scheduleNextReplay() {
	for r.replayIdx < len(r.replay.arrivals) {
		a := r.replay.arrivals[r.replayIdx]
		if r.slot != nil && r.slot.classW[a.Class] <= 0 {
			r.replayIdx++
			continue
		}
		if a.At >= r.cfg.Duration {
			return
		}
		r.s.Schedule(r.arrEv, a.At)
		return
	}
}

// pickClass samples a class index by weight. A sharded runner samples only
// the classes its shard owns (slot.classW zeroes the rest), which together
// with the thinned arrival rate reconstructs the serial scenario's
// per-class Poisson arrival processes exactly in distribution.
func (r *Runner) pickClass() int {
	weight := func(i int) float64 { return r.cfg.Classes[i].Weight }
	if r.slot != nil {
		weight = func(i int) float64 { return r.slot.classW[i] }
	}
	total := 0.0
	for i := range r.cfg.Classes {
		total += weight(i)
	}
	x := r.rngPick.Float64() * total
	for i := range r.cfg.Classes {
		x -= weight(i)
		if x < 0 {
			return i
		}
	}
	return len(r.cfg.Classes) - 1
}

// path returns a class's link path (defaulting to link 0).
func (r *Runner) path(class int) []int { return classPath(&r.cfg, class) }

func (r *Runner) onFlowArrival(now sim.Time) {
	var class int
	if r.replay != nil {
		// The pending arrival is the one scheduleNextReplay stopped at;
		// consume it and line up the next before anything else so the
		// Schedule-call order matches the live path (next arrival first,
		// then the flow's own events) — the replay round-trip's
		// byte-identity depends on that order.
		class = r.replay.arrivals[r.replayIdx].Class
		r.replayIdx++
		r.scheduleNextArrival(now)
	} else {
		r.scheduleNextArrival(now)
		if r.loadMaxF > 0 && r.rngLoad.Float64()*r.loadMaxF >= r.loadFactor(now) {
			return // thinned away: the modulated rate is below peak right now
		}
		class = r.pickClass()
	}
	cl := r.cfg.Classes[class]
	f := r.newFlow(class)
	r.obs.Arrival(now, f.id, class)

	switch r.cfg.Method {
	case MBAC:
		hops := make([]*mbac.MeasuredSum, 0, len(r.path(class)))
		for _, li := range r.path(class) {
			hops = append(hops, r.ms[li])
		}
		r.recordDecision(now, f, mbac.AdmitPath(now, cl.Preset.TokenRate, hops))
		if flowAccepted(f) {
			r.startData(now, f)
		}
	case Passive:
		admitted := true
		for _, li := range r.path(class) {
			if r.monitors[li].Estimate(now) > r.cfg.AC.Eps {
				admitted = false
				break
			}
		}
		r.recordDecision(now, f, admitted)
		if admitted {
			r.startData(now, f)
		}
	case None:
		r.recordDecision(now, f, true)
		r.startData(now, f)
	default: // EAC
		r.admitEAC(now, f)
	}
}

// maxProbeExtends caps how many extra probes a policy's OutcomeExtend can
// chain onto one admission attempt before the attempt falls back to the
// normal rejection path.
const maxProbeExtends = 3

// admitEAC runs one admission attempt through the policy layer: the
// policy sees the attempt (class threshold resolved into BaseEps) and
// either settles it outright or parameterizes the probe. The static
// default always probes at BaseEps, reproducing the pre-policy behaviour
// exactly.
func (r *Runner) admitEAC(now sim.Time, f *flowState) {
	base := r.cfg.AC.Eps
	if cl := r.cfg.Classes[f.class]; cl.Eps >= 0 {
		base = cl.Eps
	}
	d := r.policy.Decide(admission.Request{
		Now: now, FlowID: f.id, Class: f.class, Attempts: f.attempts, BaseEps: base,
	})
	// The threshold in force for this attempt, whatever the action — it
	// feeds Metrics.MeanEps when the flow's final decision is recorded
	// (outright admits/rejects carry the policy's Eps as published, zero
	// for policies that do not probe).
	f.lastEps = d.Eps
	switch d.Action {
	case admission.ActionAdmit:
		r.recordDecision(now, f, true)
		r.startData(now, f)
	case admission.ActionReject:
		// Policy rejections are final: the retry back-off exists to
		// re-measure a congested path, not to re-ask a rate limiter.
		r.recordDecision(now, f, false)
	default:
		r.startProbe(now, f, d)
	}
}

// startProbe launches (or relaunches, on retry) a flow's admission probe
// with the policy's threshold and optional probe-duration override. The
// completion closure and the prober itself are per-flowState, created on
// first use and recycled with it; the closure reads only live state (the
// runner, the flowState), so recycling cannot leak a previous run's
// decisions.
func (r *Runner) startProbe(now sim.Time, f *flowState, d admission.Decision) {
	cl := r.cfg.Classes[f.class]
	ac := r.cfg.AC
	ac.Eps = d.Eps
	if d.ProbeDur > 0 {
		ac.ProbeDur = d.ProbeDur
	}
	f.lastEps = d.Eps
	if f.probeDone == nil {
		f.probeDone = func(res admission.Result) {
			at := r.s.Now()
			f.attempts++
			f.lastFrac = res.Fraction
			switch r.policy.Judge(at, admission.Observation{
				Res: res, Attempts: f.attempts, Eps: f.lastEps,
			}) {
			case admission.OutcomeAccept:
				r.recordDecision(at, f, true)
				r.startData(at, f)
				return
			case admission.OutcomeExtend:
				// The policy wants another look (e.g. the threshold moved
				// mid-probe); re-attempt immediately, without burning a
				// retry, up to the extension cap.
				if f.extends < maxProbeExtends {
					f.extends++
					r.admitEAC(at, f)
					return
				}
			}
			// Footnote 10: rejected flows retry with exponential back-off.
			if f.attempts <= r.cfg.MaxRetries {
				backoff := r.cfg.RetryBackoffSec * float64(int64(1)<<uint(f.attempts-1))
				delay := sim.Seconds(backoff * r.rngRetry.Uniform(0.5, 1.5))
				if at+delay < r.cfg.Duration {
					r.retries++
					r.s.Call(at+delay, func(t sim.Time) { r.admitEAC(t, f) })
					return
				}
			}
			r.recordDecision(at, f, false)
		}
	}
	if f.prober == nil {
		f.prober = admission.NewProber(r.s, ac, f.id, cl.Preset.TokenRate, cl.Preset.PktSize,
			f.route, &r.pool, f.probeDone)
	} else {
		f.prober.Reinit(ac, f.id, cl.Preset.TokenRate, cl.Preset.PktSize, f.route, f.probeDone)
	}
	r.obs.SpanProbeStart(now, f.id, f.class)
	f.prober.Start(now)
}

// flowAccepted reports whether the decision recorded the flow as accepted.
func flowAccepted(f *flowState) bool { return f.active }

// recordDecision books the admission outcome; accepted flows are marked
// active (data not yet started).
func (r *Runner) recordDecision(now sim.Time, f *flowState, accepted bool) {
	f.active = accepted
	r.obs.Decision(now, f.id, f.class, accepted, f.attempts, f.lastFrac)
	if now < r.winStart || now > r.winEnd {
		return
	}
	f.counted = true
	r.decided++
	if r.cfg.Method == EAC {
		r.epsSum += f.lastEps
		r.epsN++
	}
	cm := &r.classes[f.class]
	cm.Arrived++
	if accepted {
		cm.Accepted++
	} else {
		cm.Blocked++
	}
}

// startData begins the admitted flow's data phase and schedules its death.
func (r *Runner) startData(now sim.Time, f *flowState) {
	if r.hyb != nil && r.hyb.isBg[f.class] {
		r.startFluid(now, f)
		return
	}
	cl := r.cfg.Classes[f.class]
	if f.emitFn == nil {
		f.emitFn = func(at sim.Time, size int) { r.emitData(at, f, size) }
	}
	f.src = cl.Preset.New(r.s, r.rngSrc, f.emitFn)
	f.src.Start(now)
	r.activeFlows++
	r.obs.SpanDataStart(now, f.id, f.class)
	life := sim.Seconds(r.rngLife.Exp(r.cfg.LifetimeSec))
	r.s.Schedule(&f.stopEv, now+life)
}

func (r *Runner) emitData(now sim.Time, f *flowState, size int) {
	h := &r.hot[f.id]
	pk := r.pool.Get()
	pk.FlowID = f.id
	pk.Class = f.class
	pk.Kind = netsim.Data
	pk.Band = netsim.BandData
	pk.Size = size
	pk.Seq = h.dataSeq
	pk.Route = f.route
	h.dataSeq++
	h.sentAll++
	if now >= r.winStart && now <= r.winEnd {
		h.winSent++
	}
	netsim.Send(now, pk)
}

// sinkRecv adapts the runner as the terminating Receiver of all routes.
type sinkRecv Runner

// Receive implements netsim.Receiver.
func (k *sinkRecv) Receive(now sim.Time, p *netsim.Packet) {
	r := (*Runner)(k)
	f := r.flows[p.FlowID]
	if p.Kind == netsim.Probe {
		if f.prober != nil {
			f.prober.OnProbeArrival(now, p)
		}
	} else {
		h := &r.hot[p.FlowID]
		h.recvAll++
		if p.SentAt >= r.winStart && p.SentAt <= r.winEnd {
			h.winRecv++
			d := now - p.SentAt
			r.delayStats.Add(d.Sec())
			ms := int(d / sim.Millisecond)
			if ms >= len(r.delayHist) {
				ms = len(r.delayHist) - 1
			}
			r.delayHist[ms]++
			r.obs.Delay(p.Class, d)
		}
	}
	r.pool.Put(p)
}

func (r *Runner) metrics() Metrics {
	var m Metrics
	m.Classes = make([]ClassMetrics, len(r.classes))
	copy(m.Classes, r.classes)
	// Loss counts actual router drops of window packets (winDrop), not
	// the winSent-winRecv difference: a packet emitted inside the window
	// but still in flight when the run ends was neither delivered nor
	// lost, and must not inflate the loss probability (it used to, when
	// Drain was shorter than the path's queueing+propagation delay).
	var sent, lost int64
	for i, f := range r.flows {
		h := &r.hot[i]
		m.Classes[f.class].DataSent += h.winSent
		m.Classes[f.class].DataLost += h.winDrop
		sent += h.winSent
		lost += h.winDrop
	}
	if r.hyb != nil {
		fs, fl := r.mergeFluidClasses(&m, r.s.Now())
		sent += fs
		lost += fl
	}
	if sent > 0 {
		m.DataLossProb = float64(lost) / float64(sent)
	}
	var blocked int64
	for _, cm := range m.Classes {
		blocked += cm.Blocked
	}
	if r.decided > 0 {
		m.BlockingProb = float64(blocked) / float64(r.decided)
	}
	m.Decided = r.decided
	m.Retries = r.retries
	if r.epsN > 0 {
		m.MeanEps = r.epsSum / float64(r.epsN)
	}
	m.MeanDelaySec = r.delayStats.Mean()
	m.P99DelaySec = r.delayPercentile(0.99)
	now := r.s.Now()
	m.Links = make([]LinkMetrics, len(r.links))
	for i, l := range r.links {
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
	if r.hyb != nil {
		// The fluid plane's delivered bits are part of each link's carried
		// load; fold them into the utilizations the packet counters missed.
		for i, l := range r.links {
			if dt := (now - l.Stats.ResetTime).Sec(); dt > 0 {
				m.Links[i].Utilization += r.hyb.bgs[i].DeliveredBits(now) / (l.RateBps * dt)
			}
		}
	}
	m.Utilization = m.Links[0].Utilization
	m.ProbeShare = m.Links[0].ProbeShare
	return m
}

// delayPercentile reads the q-quantile from a millisecond histogram (upper
// bucket edge, so the estimate is conservative). Free function so the
// shard-merge path can apply it to a summed histogram.
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

func (r *Runner) delayPercentile(q float64) float64 {
	return delayPercentile(&r.delayHist, r.delayStats.N(), q)
}

// Run executes a single scenario run. With observability enabled
// (Config.Obs) the run's artifacts are flushed before returning. With a
// result cache attached (Config.Cache) the run is served from — and on a
// miss, stored into — the cache.
func Run(cfg Config) (Metrics, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return Metrics{}, err
	}
	key, m, ok := cacheGet(cfg)
	if ok {
		return m, nil
	}
	if k := effectiveShards(cfg); k > 1 {
		e, err := newShardExec(cfg, k)
		if err != nil {
			return Metrics{}, err
		}
		m = e.run()
		if _, err := e.flushObs(); err != nil {
			return m, err
		}
		cachePut(cfg, key, m)
		return m, nil
	}
	r := newRunner(cfg)
	m = r.Run()
	if _, err := r.FlushObs(); err != nil {
		return m, err
	}
	cachePut(cfg, key, m)
	return m, nil
}

// RunSeeds runs the scenario once per seed and aggregates, mirroring the
// paper's 7-run averaging. Runs execute concurrently on up to
// runtime.GOMAXPROCS(0) cores; see RunSeedsParallel for an explicit
// worker count. The result is identical to a sequential execution.
func RunSeeds(cfg Config, seeds []uint64) (MultiMetrics, error) {
	return RunSeedsParallel(cfg, seeds, 0)
}

// RunSeedsParallel is RunSeeds with an explicit worker count (<= 0 means
// runtime.GOMAXPROCS(0)). Every run is independent — it owns its Sim, its
// packet pool, and RNG streams derived only from (seed, label) — and the
// per-seed Metrics are aggregated in seed order, so the MultiMetrics is
// bitwise-identical for every worker count; only wall-clock time changes.
func RunSeedsParallel(cfg Config, seeds []uint64, workers int) (MultiMetrics, error) {
	mm, _, err := RunSeedsObserved(cfg, seeds, workers)
	return mm, err
}

// RunRecord describes one completed run beyond its Metrics: where it
// came from and, for sharded runs, how the event load split. Metrics
// itself stays shard-free — the record is a side channel, so aggregate
// results (and their cache entries) are bitwise-identical whether or not
// anyone asked for records.
type RunRecord struct {
	// Seed is the run's resolved seed.
	Seed uint64
	// Shards is the shard count the run executed with (1 = serial).
	Shards int
	// ShardExecuted holds each shard's executed-event count, indexed by
	// shard (a serial run reports one entry). Nil for cached results —
	// the events were executed in some earlier process.
	ShardExecuted []uint64
	// Cached reports whether the result came from the result cache.
	Cached bool
}

// RunSeedsObserved is RunSeedsParallel returning, additionally, one
// RunRecord per seed (in seed order). The metrics are computed exactly
// as RunSeedsParallel computes them.
func RunSeedsObserved(cfg Config, seeds []uint64, workers int) (MultiMetrics, []RunRecord, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}
	recs := make([]RunRecord, len(seeds))
	if workers <= 1 {
		ws := NewWorkspace()
		runs := make([]Metrics, 0, len(seeds))
		for i, sd := range seeds {
			c := cfg
			c.Seed = sd
			m, rec, err := ws.RunRecorded(c)
			if err != nil {
				return MultiMetrics{}, nil, err
			}
			runs = append(runs, m)
			recs[i] = rec
		}
		return Aggregate(runs), recs, nil
	}
	runs := make([]Metrics, len(seeds))
	errs := make([]error, len(seeds))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns a Workspace: consecutive seeds claimed by
			// the same goroutine reuse one simulator's slabs, and nothing
			// is shared across goroutines.
			ws := NewWorkspace()
			for {
				i := int(next.Add(1))
				if i >= len(seeds) {
					return
				}
				c := cfg
				c.Seed = seeds[i]
				runs[i], recs[i], errs[i] = ws.RunRecorded(c)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return MultiMetrics{}, nil, err
		}
	}
	return Aggregate(runs), recs, nil
}

// DefaultSeeds returns n deterministic seeds.
func DefaultSeeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(0x9E3779B9*(i+1)) + 1
	}
	return s
}
