package scenario

import (
	"slices"

	"eac/internal/admission"
	"eac/internal/mbac"
	"eac/internal/netsim"
	"eac/internal/obs"
	"eac/internal/sim"
	"eac/internal/stats"
	"eac/internal/tcp"
	"eac/internal/trafgen"
)

// flowState tracks one offered flow through its lifecycle, and goes back to
// the domain as soon as nothing can reach it (freeFlow). The timer survives
// recycling; everything else is per-flow. Its packets route over the class's
// template, domain.tmpl[class].
type flowState struct {
	id    int
	class int
	// prober is the flow's while its admission is open: taken from the
	// domain's prober arena at the first probe, handed back when the
	// decision is final (probeDone).
	prober *admission.Prober
	src    trafgen.Source
	// timer is the flow's one event: the retry back-off while its admission
	// is open, then the end of its lifetime. It fires domain.onFlowTimer with
	// the flow's id as argument.
	timer    sim.Event
	attempts int // completed admission attempts (for retries)
	extends  int // probe extensions granted by the policy this attempt chain

	active   bool
	lastFrac float64    // bad-packet fraction of the last probe (EAC)
	lastEps  float64    // threshold the last probe ran against (EAC)
	next     *flowState // the domain's free list, while freed
}

// flowSlot is a flow's entry in the domain's table: the flow, and what
// emitData needs of it, so that emitting a packet reads no flowState.
type flowSlot struct {
	f     *flowState // nil once the flow was freed
	seq   int64      // the flow's next data packet sequence number
	class int
}

// domain is one shard domain of a run: a private simulator, the links that
// live on it, and everything the classes it owns need — their arrival
// process, flows, probers, admission policy and terminating sink. A class
// is owned by the domain of the first link on its path, so all of a flow's
// state is local to one domain; only its packets travel, through portals at
// the boundary links. During a run a domain is touched only by its own
// worker goroutine.
//
// The router policies' per-link state and hyb.bgs are parallel to links but
// read by global link number: the methods that use them (MBAC, Passive, the
// hybrid engine) run at K = 1 only (Config.Validate), where the domain's
// links are the whole topology.
type domain struct {
	cfg Config
	s   *sim.Sim
	idx int
	// streamSuffix labels this domain's RNG streams: empty at K = 1 (the
	// stream names every golden was recorded with), "@s<idx>" otherwise, so
	// the domains' thinned arrival processes are independent.
	streamSuffix string

	links []*netsim.Link // links living on this domain, ascending
	pool  netsim.Pool
	// onDrop is onLinkDrop as a func value, made once so that rewiring a
	// link does not allocate.
	onDrop func(sim.Time, *netsim.Packet)

	rngLife, rngSrc, rngRetry stats.RNG
	// rngBg is the fluid backgrounds' congestion-dice stream, seeded only
	// by setupHybrid.
	rngBg stats.RNG

	// arr is the domain's flow-arrival process: stationary, scheduled or
	// replayed, over the classes it owns (workload.go).
	arr arrivals
	// sentWin counts, per class, the window data packets this domain's flows
	// emitted; dropWin those dropped on this domain's links — the flow that
	// sent them may live on another domain.
	sentWin, dropWin []int64

	// policy decides every admission attempt, whatever the Method
	// (buildPolicy). The static default probes at the class's ε and
	// echoes the probe's verdict.
	policy admission.Policy
	// epsSum accumulates the admission threshold in force for each flow
	// decided inside the window (Metrics.MeanEps); a method that does not
	// probe adds 0.
	epsSum float64

	// flows is the window of flow IDs from flowBase on: flows[id-flowBase]
	// is the slot of flow id. The freed slots before the first live one,
	// flows[:head], are cut off when they reach half the window (freeFlow),
	// so the table spans the live flows, not the run.
	flows     []flowSlot
	flowBase  int
	head      int
	freeFlows *flowState  // freed flow states awaiting reuse, linked by next
	flowSlab  []flowState // remainder of the arena block newFlow carves from
	// probers carves the flows' probers and keeps those no flow is using: a
	// flow whose decision is final hands its prober on, so a run allocates
	// one generation of probers — those probing at once — not one per flow.
	// Like the flow slab, it serves every run of the domain.
	probers *admission.ProberArena
	// mkSrc builds the data sources of each class (trafgen.Preset.Maker).
	mkSrc []trafgen.Maker
	// flowTimer, probeDone and emit are the callbacks of every flow's timer,
	// prober and source; the flow is named by the event's argument, the
	// result's FlowID and emit's id, so none costs a closure per flow.
	flowTimer func(sim.Time)
	probeDone func(admission.Result)
	emit      trafgen.FlowEmit
	// tmpl is the run's per-class packet routes (Runner.routeTemplates),
	// shared by every domain and immutable for the run.
	tmpl    [][]netsim.Receiver
	arrEv   *sim.Event // the single pending flow-arrival event
	classes []ClassMetrics

	winStart, winEnd sim.Time // packet accounting window
	decided          int64
	retries          int64

	// hyb is non-nil when the hybrid fluid/packet engine is enabled
	// (Config.Hybrid); see hybrid.go.
	hyb *hybridState

	// Observability (nil/inert by default; see Config.Obs).
	obs         *obs.Collector
	activeFlows int // flows currently in their data phase
	lastSample  sim.Time
	lastBits    []int64 // per-link data bits at the previous sample

	// End-to-end data delay over the accounting window: an integer sum and
	// count, so the mean cannot depend on the order packets were booked in
	// (sinkRecv.Record), plus a 1 ms-bucket histogram for percentiles.
	delayNs, delayN int64
	delayHist       [1001]int64 // [i] = delays in [i, i+1) ms; last = overflow
}

func newDomain(idx int, s *sim.Sim, suffix string) *domain {
	d := &domain{idx: idx, s: s, streamSuffix: suffix}
	d.arrEv = sim.NewEvent(d.onFlowArrival)
	d.probers = admission.NewProberArena(s, &d.pool)
	d.onDrop = d.onLinkDrop
	d.flowTimer = d.onFlowTimer
	d.probeDone = d.onProbeDone
	d.emit = d.emitData
	return d
}

// reset puts the domain into the state a run of cfg starts from, whether
// it is new or has run before: the previous run's flow states, packets and
// RNG structs are recycled, everything that feeds the output is rewritten.
// Links, routes, observability and policy are the kernel's to wire
// afterwards (Runner.reset).
func (d *domain) reset(cfg Config, owner []int) {
	d.releaseFlows()
	d.s.Reset()
	d.cfg = cfg
	d.arr.reset(&cfg, owner, d.idx, d.streamSuffix)
	d.rngLife.ReseedStream(cfg.Seed, "lifetimes"+d.streamSuffix)
	d.rngSrc.ReseedStream(cfg.Seed, "sources"+d.streamSuffix)
	d.rngRetry.ReseedStream(cfg.Seed, "retries"+d.streamSuffix)
	d.winStart = cfg.Warmup
	d.winEnd = cfg.Duration - cfg.Drain

	n := len(cfg.Classes)
	if cap(d.dropWin) < n {
		d.sentWin = make([]int64, n)
		d.dropWin = make([]int64, n)
		d.classes = make([]ClassMetrics, n)
		d.mkSrc = make([]trafgen.Maker, n)
	}
	d.sentWin, d.dropWin, d.classes, d.mkSrc = d.sentWin[:n], d.dropWin[:n], d.classes[:n], d.mkSrc[:n]
	clear(d.sentWin)
	clear(d.dropWin)
	clear(d.classes)
	for c, cl := range cfg.Classes {
		d.mkSrc[c] = nil
		if cl.TCPFlows == 0 {
			d.mkSrc[c] = cl.Preset.Maker(d.s, &d.rngSrc, d.emit)
		}
	}

	d.links = d.links[:0]
	d.decided, d.retries, d.epsSum = 0, 0, 0
	d.activeFlows, d.lastSample = 0, 0
	d.delayNs, d.delayN = 0, 0
	d.delayHist = [1001]int64{}
}

// buildPolicy constructs the domain's admission policy and wires its
// environment: MBAC and Passive are router policies that install their link
// taps here. The token bucket is scaled to the domain's owned weight share
// (so the aggregate admission rate is the configured one), and the adaptive
// policy reads post-admission loss from the domain's own links and reports
// epochs to its collector. Requires links wired.
func (d *domain) buildPolicy() admission.Policy {
	switch d.cfg.Method {
	case MBAC:
		// One Measured Sum per link, and per class the ones on its path.
		ms := make([]*mbac.MeasuredSum, len(d.links))
		for i, l := range d.links {
			ms[i] = mbac.New(l.RateBps, d.cfg.MS)
			l.OnArrive = ms[i].Tap()
		}
		hops := make([][]*mbac.MeasuredSum, len(d.cfg.Classes))
		for c := range hops {
			for _, li := range d.path(c) {
				hops[c] = append(hops[c], ms[li])
			}
		}
		return routerPolicy(func(req admission.Request) bool {
			return mbac.AdmitPath(req.Now, d.cfg.Classes[req.Class].Preset.TokenRate, hops[req.Class])
		})
	case Passive:
		mons := make([]*lossMonitor, len(d.links))
		for i, l := range d.links {
			lm := newLossMonitor(passiveWindowSec)
			mons[i] = lm
			l.OnArrive = func(now sim.Time, p *netsim.Packet) { lm.onArrive(now) }
			l.OnDrop = func(now sim.Time, p *netsim.Packet) {
				lm.onDrop(now)
				d.onLinkDrop(now, p)
			}
		}
		return routerPolicy(func(req admission.Request) bool {
			for _, li := range d.path(req.Class) {
				if mons[li].Estimate(req.Now) > req.BaseEps {
					return false
				}
			}
			return true
		})
	}
	p := admission.NewPolicy(d.cfg.Policy, d.cfg.AC)
	switch pol := p.(type) {
	case *admission.TokenBucket:
		pol.Scale(d.arr.ownedW / d.arr.totalW)
	case *admission.EpochAdaptive:
		pol.SetLossSignal(func() (arrived, dropped int64) {
			for _, l := range d.links {
				st := l.StatsAt(d.s.Now())
				arrived += st.Arrived[netsim.Data]
				dropped += st.Dropped[netsim.Data]
			}
			return
		})
		pol.SetEpochHook(func(now sim.Time, st admission.EpochStats) {
			d.obs.Epoch(now, st.Epoch, st.Eps, st.RejectRate, st.LossRate)
		})
	}
	return p
}

// wireLink takes ownership of link i, whose hooks are clear (just built, or
// just Reset), and attaches its drop hook and, for a marking EAC design, the
// shadow queue. The router policies' taps are buildPolicy's.
func (d *domain) wireLink(i int, l *netsim.Link, maxPkt int) {
	cfg, ls := &d.cfg, d.cfg.Links[i]
	d.links = append(d.links, l)
	l.OnDrop = d.onDrop
	if sig := cfg.AC.Design.Signal; cfg.Method == EAC && sig != admission.Drop {
		l.Marker = netsim.NewVirtualQueue(cfg.VQFactor*ls.RateBps, int64(ls.BufferPkts*maxPkt))
		l.VQDropProbes = sig == admission.VDrop
	}
}

// observe attaches the domain's collector (nil unless Config.Obs is
// enabled): link taps, class names and the horizon. A nil collector
// leaves every hot path untouched.
func (d *domain) observe(c *obs.Collector) {
	d.obs = c
	if c == nil {
		return
	}
	for _, l := range d.links {
		l.Tap = c.RegisterLink(l.Name)
	}
	for _, cl := range d.cfg.Classes {
		c.RegisterClass(cl.Name)
	}
	c.SetDuration(d.cfg.Duration)
}

// releaseFlows retires the previous run's live flow states into the
// freelist, keeping each one's timer, and its probers into theirs. Must
// run before Sim.Reset wipes the heap, which is what makes the blanket
// Forget calls safe — a free prober may still have a judge queued.
func (d *domain) releaseFlows() {
	d.arrEv.Forget()
	for _, sl := range d.flows {
		f := sl.f
		if f == nil {
			continue
		}
		if f.prober != nil {
			d.probers.Put(f.prober)
		}
		f.timer.Forget()
		d.recycle(f)
	}
	d.probers.ForgetFree()
	clear(d.flows)
	d.flows, d.flowBase, d.head = d.flows[:0], 0, 0
}

// flowSlabSize is the flowState arena block size (cf. netsim's packet slabs).
const flowSlabSize = 64

// newFlow hands out the next flowState — recycled when the freelist has
// one, else carved from the arena — registered under the next flow ID.
func (d *domain) newFlow(class int) *flowState {
	f := d.freeFlows
	if f != nil {
		d.freeFlows, f.next = f.next, nil
	} else {
		if len(d.flowSlab) == 0 {
			d.flowSlab = make([]flowState, flowSlabSize)
		}
		f = &d.flowSlab[0]
		d.flowSlab = d.flowSlab[1:]
		f.timer.Init(d.flowTimer)
	}
	f.id = d.flowBase + len(d.flows)
	f.timer.SetArg(uint32(f.id))
	f.class = class
	d.flows = append(d.flows, flowSlot{f: f, class: class})
	return f
}

// freeFlow takes back the state of a flow nothing can reach any more: it
// was rejected for good, its lifetime ended, or its data went to the fluid
// plane. Its prober is back in the arena already, and its timer is idle. The
// flow's slot in the table is cleared, and once the free slots before the
// first live one make half the table they are cut off in place: each cut moves
// no more slots than it drops, so it costs O(1) per flow, amortised. A slot
// moves whole, its sequence counter with it.
func (d *domain) freeFlow(f *flowState) {
	d.flows[f.id-d.flowBase] = flowSlot{}
	d.recycle(f)
	for d.head < len(d.flows) && d.flows[d.head].f == nil {
		d.head++
	}
	if 2*d.head >= len(d.flows) {
		n := copy(d.flows, d.flows[d.head:])
		clear(d.flows[n:])
		d.flows, d.flowBase, d.head = d.flows[:n], d.flowBase+d.head, 0
	}
}

// recycle clears f but for its timer and puts it on the free list.
func (d *domain) recycle(f *flowState) {
	*f = flowState{timer: f.timer, next: d.freeFlows}
	d.freeFlows = f
}

// flow returns the live flow id, or nil when it was freed.
func (d *domain) flow(id int) *flowState {
	if i := id - d.flowBase; i >= 0 {
		return d.flows[i].f
	}
	return nil
}

// onFlowTimer is the callback of every flow's timer: an admitted flow's
// lifetime has expired, or a rejected one's retry back-off (footnote 10).
func (d *domain) onFlowTimer(now sim.Time) {
	if f := d.flows[int(d.s.Arg())-d.flowBase].f; f.active {
		d.stopFlow(now, f)
	} else {
		d.admit(now, f)
	}
}

// stopFlow ends a packet flow's data phase (its lifetime expired) and frees
// the flow: its source went back to its maker, and its packets in flight
// name only their class.
func (d *domain) stopFlow(now sim.Time, f *flowState) {
	f.src.Stop()
	d.activeFlows--
	d.obs.SpanDataEnd(now, f.id)
	d.freeFlow(f)
}

// onLinkDrop is the drop hook of the domain's links: it books the loss
// against the packet's class when it was a data packet emitted inside the
// accounting window, then recycles the packet. The count is per class and
// per link owner because the flow may live on another domain. Counting
// drops where they happen (instead of inferring them from sent minus received
// at the end) keeps packets still in flight when the run ends out of the loss
// statistics.
func (d *domain) onLinkDrop(now sim.Time, p *netsim.Packet) {
	if p.Kind == netsim.Data && p.SentAt >= d.winStart && p.SentAt <= d.winEnd {
		d.dropWin[p.Class]++
	}
	d.pool.Put(p)
}

// start schedules the domain's time-zero work: the warmup boundary (link
// counters, and the fluid plane's delivered/offered integrals that feed
// window utilization, restart there), obs sampling, the TCP flows, the
// prepopulated flows and the first arrival.
func (d *domain) start() {
	d.s.Call(d.cfg.Warmup, func(now sim.Time) {
		for _, l := range d.links {
			l.StatsAt(now).Reset(now)
			if l.Bg != nil {
				l.Bg.ResetWindow(now)
			}
		}
	})
	d.startObsSampling()
	for c, cl := range d.cfg.Classes {
		if cl.TCPFlows > 0 {
			d.startTCP(c, cl.TCPFlows)
		}
	}
	d.prepopulate()
	if d.arr.ownedW > 0 {
		d.scheduleNextArrival(0)
	}
}

// startTCP starts class c's n greedy TCP Reno flows under the next n flow
// IDs, which no other flow then takes. They run on the class's links to
// receivers of their own, not the sink; each segment is stamped with the
// class, so the window counters book it like any data packet (sentWin
// here, dropWin at the link).
func (d *domain) startTCP(c, n int) {
	links := slices.Clip(d.tmpl[c][:len(d.tmpl[c])-1]) // the path, without the sink
	onSend := func(now sim.Time, p *netsim.Packet) {
		p.Class = int32(c)
		if now >= d.winStart && now <= d.winEnd {
			d.sentWin[c]++
		}
	}
	for i := 0; i < n; i++ {
		sd := tcp.NewSender(d.s, tcp.Config{}, d.flowBase, nil, &d.pool)
		sd.OnSend = onSend
		sd.SetRoute(append(links, tcp.NewReceiver(d.s, sd, &d.pool)))
		sd.Start(0)
		d.flowBase++
	}
}

// startObsSampling schedules the periodic per-queue sampling event over
// the domain's links. The event only reads simulator state, so enabling it
// does not perturb the simulated dynamics.
func (d *domain) startObsSampling() {
	if !d.obs.Sampling() {
		return
	}
	d.lastBits = make([]int64, len(d.links))
	iv := d.obs.Interval()
	var ev *sim.Event
	ev = sim.NewEvent(func(now sim.Time) {
		d.sampleObs(now)
		if now+iv <= d.cfg.Duration {
			d.s.Schedule(ev, now+iv)
		}
	})
	d.s.Schedule(ev, iv)
}

// sampleObs appends one time-series point per link: queue depth,
// utilization over the elapsed interval, cumulative counters, shadow
// backlog, and the active-flow count. The link index recorded in each
// sample is the position in d.links, which is the collector's
// RegisterLink order.
func (d *domain) sampleObs(now sim.Time) {
	dt := (now - d.lastSample).Sec()
	for i, l := range d.links {
		st := l.StatsAt(now)
		bits := st.SentBits[netsim.Data]
		if bits < d.lastBits[i] {
			d.lastBits[i] = 0 // counters were reset at the warmup boundary
		}
		var util float64
		if dt > 0 {
			util = float64(bits-d.lastBits[i]) / (l.RateBps * dt)
		}
		d.lastBits[i] = bits
		s := obs.Sample{
			T: now.Sec(), Link: i, Depth: l.QueueLen(now), Busy: l.Busy(now),
			ActiveFlows: d.activeFlows, Util: util,
			Arrived: st.Arrived, Dropped: st.Dropped,
			Marked: st.Marked, SentPkts: st.SentPkts,
		}
		if l.Marker != nil {
			s.VQBacklog = l.Marker.TotalBacklog()
		}
		if l.Bg != nil {
			s.FluidBg = l.Bg.Rate()
			s.FluidMark = l.Bg.Congestion()
		}
		d.obs.AddSample(s)
	}
	d.lastSample = now
}

// prepopulate seeds already-admitted flows per Config.PrepopulateUtil: the
// topology-wide count apportioned to this domain by its owned weight share.
func (d *domain) prepopulate() {
	if d.cfg.PrepopulateUtil <= 0 || d.arr.ownedW <= 0 {
		return
	}
	n := int(d.cfg.prepopulatedFlows() + 0.5)
	n = int(float64(n)*d.arr.ownedW/d.arr.totalW + 0.5)
	if d.hyb != nil {
		d.hyb.live = make([]fluidFlow, 0, n)
	}
	for i := 0; i < n; i++ {
		class := d.arr.pick()
		if d.hyb != nil {
			// A fluid flow is an ID and a live-list slot: no flowState, no
			// event, no Add of its own. The table is still empty, so taking
			// the next ID moves the window's base.
			d.joinFluid(0, d.flowBase, class)
			d.flowBase++
			continue
		}
		f := d.newFlow(class)
		f.active = true
		d.startData(0, f)
	}
	if d.hyb != nil {
		for c, k := range d.hyb.count {
			d.addFluidRate(0, c, k)
		}
		d.redrawDeparture(0)
	}
}

// scheduleNextArrival lines up the domain's next flow arrival. Only one is
// ever pending (each firing schedules the next), so a single persistent
// event serves the whole run.
func (d *domain) scheduleNextArrival(now sim.Time) {
	if at, ok := d.arr.next(now); ok {
		d.s.Schedule(d.arrEv, at)
	}
}

// path returns a class's link path (defaulting to link 0).
func (d *domain) path(class int) []int { return classPath(&d.cfg, class) }

// onFlowArrival takes the arrival due now, lines up the next one before the
// flow's own events (the replay round trip's byte identity depends on that
// order) and decides the flow.
func (d *domain) onFlowArrival(now sim.Time) {
	class, kept := d.arr.take(now)
	d.scheduleNextArrival(now)
	if !kept {
		return
	}
	f := d.newFlow(class)
	d.obs.Arrival(now, f.id, class)
	d.admit(now, f)
}

// maxProbeExtends caps how many extra probes a policy's OutcomeExtend can
// chain onto one admission attempt before the attempt falls back to the
// normal rejection path.
const maxProbeExtends = 3

// retryBackoffSec is the mean wait before a rejected flow's first retry
// (Config.MaxRetries); each further retry doubles it.
const retryBackoffSec = 5

// admit runs one admission attempt through the policy layer: the policy
// sees the attempt (class threshold resolved into BaseEps) and either
// settles it outright or parameterizes the probe. The static default always
// probes at BaseEps.
func (d *domain) admit(now sim.Time, f *flowState) {
	base := d.cfg.AC.Eps
	if cl := d.cfg.Classes[f.class]; cl.Eps >= 0 {
		base = cl.Eps
	}
	dec := d.policy.Decide(admission.Request{
		Now: now, FlowID: f.id, Class: f.class, BaseEps: base,
	})
	// The threshold in force for this attempt, whatever the action — it
	// feeds Metrics.MeanEps when the flow's final decision is recorded
	// (outright admits/rejects carry the policy's Eps as published, zero
	// for policies that do not probe).
	f.lastEps = dec.Eps
	switch dec.Action {
	case admission.ActionAdmit:
		d.recordDecision(now, f, true)
		d.startData(now, f)
	case admission.ActionReject:
		// Policy rejections are final: the retry back-off exists to
		// re-measure a congested path, not to re-ask a rate limiter.
		d.recordDecision(now, f, false)
		d.freeFlow(f)
	default:
		d.startProbe(now, f, dec.Eps)
	}
}

// startProbe launches (or relaunches, on retry) a flow's admission probe
// at the policy's threshold eps, on the prober the flow holds or else one
// from the arena.
func (d *domain) startProbe(now sim.Time, f *flowState, eps float64) {
	cl := d.cfg.Classes[f.class]
	ac := d.cfg.AC
	ac.Eps = eps
	f.lastEps = eps
	if f.prober == nil {
		f.prober = d.probers.Get()
	}
	f.prober.Reinit(ac, f.id, cl.Preset.TokenRate, cl.Preset.PktSize, d.tmpl[f.class], d.probeDone)
	d.obs.SpanProbeStart(now, f.id, f.class)
	f.prober.Start(now)
}

// onProbeDone is the completion callback of every prober: the policy judges
// the result, and the flow starts its data, probes again, backs off for a
// retry, or is rejected for good. It reads only live state (the domain, the
// flowState), so recycling cannot leak a previous run's decisions.
func (d *domain) onProbeDone(res admission.Result) {
	f := d.flows[res.FlowID-d.flowBase].f
	at := d.s.Now()
	f.attempts++
	f.lastFrac = res.Fraction
	switch d.policy.Judge(at, admission.Observation{
		Res: res, Attempts: f.attempts, Eps: f.lastEps,
	}) {
	case admission.OutcomeAccept:
		d.recordDecision(at, f, true)
		d.startData(at, f)
		return
	case admission.OutcomeExtend:
		// The policy wants another look (e.g. the threshold moved
		// mid-probe); re-attempt immediately, without burning a
		// retry, up to the extension cap.
		if f.extends < maxProbeExtends {
			f.extends++
			d.admit(at, f)
			return
		}
	}
	// Footnote 10: rejected flows retry with exponential back-off.
	if f.attempts <= d.cfg.MaxRetries {
		backoff := retryBackoffSec * float64(int64(1)<<uint(f.attempts-1))
		delay := sim.Seconds(backoff * d.rngRetry.Uniform(0.5, 1.5))
		if at+delay < d.cfg.Duration {
			d.retries++
			d.s.Schedule(&f.timer, at+delay)
			return
		}
	}
	d.recordDecision(at, f, false)
	d.freeFlow(f)
}

// recordDecision books the admission outcome, which is final; accepted
// flows are marked active (data not yet started). The flow's prober goes back
// to the arena: the sink ignores the flow's probe packets still in flight
// (sinkRecv.Receive), and the next user's Reinit cancels a judge the finished
// probe left queued.
func (d *domain) recordDecision(now sim.Time, f *flowState, accepted bool) {
	if f.prober != nil {
		d.probers.Put(f.prober)
		f.prober = nil
	}
	f.active = accepted
	d.obs.Decision(now, f.id, f.class, accepted, f.attempts, f.lastFrac)
	if now < d.winStart || now > d.winEnd {
		return
	}
	d.decided++
	d.epsSum += f.lastEps
	cm := &d.classes[f.class]
	cm.Arrived++
	if accepted {
		cm.Accepted++
	} else {
		cm.Blocked++
	}
}

// startData begins the admitted flow's data phase: on the fluid plane it
// joins the population the departure clock ends, which needs nothing of its
// flowState, else its source starts and its death is scheduled, drawn from
// the same lifetime stream.
func (d *domain) startData(now sim.Time, f *flowState) {
	if d.hyb != nil {
		d.addFluidRate(now, f.class, 1)
		d.joinFluid(now, f.id, f.class)
		d.redrawDeparture(now)
		d.freeFlow(f)
		return
	}
	f.src = d.mkSrc[f.class](f.id)
	f.src.Start(now)
	d.activeFlows++
	d.obs.SpanDataStart(now, f.id, f.class)
	life := sim.Seconds(d.rngLife.Exp(d.cfg.LifetimeSec))
	d.s.Schedule(&f.timer, now+life)
}

// emitData sends one data packet of flow id: the emit callback of every source.
func (d *domain) emitData(now sim.Time, id, size int) {
	sl := &d.flows[id-d.flowBase]
	pk := d.pool.Get()
	pk.FlowID = id
	pk.Class = int32(sl.class)
	pk.Kind = netsim.Data
	pk.Band = netsim.BandData
	pk.Size = int32(size)
	pk.Seq = sl.seq
	pk.Route = d.tmpl[sl.class]
	sl.seq++
	if now >= d.winStart && now <= d.winEnd {
		d.sentWin[sl.class]++
	}
	netsim.Send(now, pk)
}

// sinkRecv adapts the domain as the terminating endpoint of the routes of the
// classes it owns. It is passive for data — it counts — so it is a
// netsim.Recorder; only a probe's arrival can act (the prober's early stop).
type sinkRecv domain

// Receive implements netsim.Receiver: probes always, data when it arrives
// through a portal from a last link on another domain. A probe of a flow
// already freed is dropped here.
func (k *sinkRecv) Receive(now sim.Time, p *netsim.Packet) {
	if k.Record(now, p) {
		return
	}
	d := (*domain)(k)
	if f := d.flow(p.FlowID); f != nil && f.prober != nil {
		f.prober.OnProbeArrival(now, p)
	}
	d.pool.Put(p)
}

// Record implements netsim.Recorder for data: p arrives at time at, which a
// last link on this domain says when transmission starts. The accumulators
// thus run ahead of the clock, and are complete once Runner.metrics has synced
// every link; nothing in the run path reads them. A packet due after the
// horizon is not booked: its delivery would never have run.
func (k *sinkRecv) Record(at sim.Time, p *netsim.Packet) bool {
	if p.Kind != netsim.Data {
		return false
	}
	d := (*domain)(k)
	if at <= d.cfg.Duration && p.SentAt >= d.winStart && p.SentAt <= d.winEnd {
		dl := at - p.SentAt
		d.delayNs += int64(dl)
		d.delayN++
		d.delayHist[min(int(dl/sim.Millisecond), len(d.delayHist)-1)]++
		d.obs.Delay(int(p.Class), dl)
	}
	d.pool.Put(p)
	return true
}
