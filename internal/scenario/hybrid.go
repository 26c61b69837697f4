package scenario

import (
	"eac/internal/fluid"
	"eac/internal/netsim"
	"eac/internal/sim"
)

// hybridState is the domain-side half of the hybrid fluid/packet engine
// (Config.Hybrid): one netsim.FluidBackground per link carries every
// class's data phase as piecewise-constant fluid rates, and the per-class
// accumulators below book the offered/lost fluid bits over the accounting
// window so metrics() can fold them back into the same ClassMetrics the
// packet path produces.
//
// The accounting is exact for the fluid model: rates only change at flow
// admission/departure events, and advanceBg is called with the old rates
// still in force before every change, so each piecewise-constant segment
// is integrated with the loss probabilities that actually applied to it.
// One deliberate approximation: a multi-hop class's loss is taken as
// 1 - prod(1-p_l) over its path links, each p_l evaluated at the link's
// locally offered load — upstream thinning of this class's own fluid is
// not propagated downstream (see DESIGN.md, Hybrid engine).
//
// The fluid population is a count per class, the live flows and one clock:
// the first of N Exp(τ) lifetimes ends after Exp(τ/N), uniform among them;
// by memorylessness the clock is redrawn whenever N changes.
type hybridState struct {
	bgs []*netsim.FluidBackground // parallel to domain.links

	count   []int       // live fluid flows per class
	live    []fluidFlow // the live fluid flows, in no particular order
	dep     sim.Event   // the next departure among live
	offered []float64   // fluid bits offered inside the window, per class
	lost    []float64   // fluid bits lost inside the window, per class
	lastT   sim.Time    // time the accumulators were last advanced to
}

// fluidFlow is a live fluid flow: its ID, which its spans carry, and class.
type fluidFlow struct{ id, class int32 }

// setupHybrid (re)builds the fluid attachments for an enabled hybrid
// config. Called by Runner.reset after the links are wired, so the
// backgrounds layer on top of whatever marker/tap machinery the method
// installed. A disabled config leaves hyb nil and every hot path
// untouched.
func (d *domain) setupHybrid() {
	d.hyb = nil
	if !d.cfg.Hybrid.Active() {
		return
	}
	d.rngBg.ReseedStream(d.cfg.Seed, "fluidbg")

	// The fluid sees the same queue approximation family the packet path
	// runs: RED links mark/drop on the averaged-queue profile, everything
	// else is drop-tail at the physical buffer.
	model := fluid.QueueDropTail
	if d.cfg.Queue == QueueRED {
		model = fluid.QueueREDApprox
	}

	h := &hybridState{
		bgs:     make([]*netsim.FluidBackground, len(d.links)),
		count:   make([]int, len(d.cfg.Classes)),
		offered: make([]float64, len(d.cfg.Classes)),
		lost:    make([]float64, len(d.cfg.Classes)),
	}
	for i, l := range d.links {
		bg := netsim.NewFluidBackground(l, model, d.cfg.Links[i].BufferPkts, &d.rngBg)
		// The fluid follows the link's marking: the analytic mark signal
		// where wireLink installed a shadow queue, at its service fraction,
		// and virtual dropping folds a probe's mark fate into a drop.
		bg.Marking, bg.VDropProbes, bg.VQFactor = l.Marker != nil, l.VQDropProbes, d.cfg.VQFactor
		h.bgs[i] = bg
	}
	h.dep.Init(d.stopFluid)
	d.hyb = h
}

// joinFluid puts flow id's data phase on the fluid plane's live list; the
// caller adds its rate (addFluidRate) and redraws the departure clock.
func (d *domain) joinFluid(now sim.Time, id, class int) {
	d.hyb.live = append(d.hyb.live, fluidFlow{int32(id), int32(class)})
	d.hyb.count[class]++
	d.activeFlows++
	d.obs.SpanDataStart(now, id, class)
}

// addFluidRate changes the background of every link on class's path by n
// flows' average rate, after integrating the window up to now under the old.
func (d *domain) addFluidRate(now sim.Time, class, n int) {
	d.advanceBg(now)
	for _, li := range d.path(class) {
		d.hyb.bgs[li].Add(now, float64(n)*d.cfg.Classes[class].Preset.AvgRate)
	}
}

// stopFluid is the departure clock's callback: it ends the data phase of a
// live flow drawn uniformly.
func (d *domain) stopFluid(now sim.Time) {
	h := d.hyb
	i, last := d.rngLife.Intn(len(h.live)), len(h.live)-1
	f := h.live[i]
	h.live[i], h.live = h.live[last], h.live[:last]
	d.addFluidRate(now, int(f.class), -1)
	h.count[f.class]--
	d.activeFlows--
	d.obs.SpanDataEnd(now, int(f.id))
	d.redrawDeparture(now)
}

// redrawDeparture arms the departure clock for the live count N now in
// force: the first of N Exp(τ) lifetimes ends after Exp(τ/N).
func (d *domain) redrawDeparture(now sim.Time) {
	if n := len(d.hyb.live); n > 0 {
		d.s.Reschedule(&d.hyb.dep, now+sim.Seconds(d.rngLife.Exp(d.cfg.LifetimeSec/float64(n))))
	}
}

// advanceBg integrates the per-class offered/lost fluid bits over
// [lastT, now] clipped to the accounting window, using the loss
// probabilities currently in force. Must be called BEFORE any rate
// change at now — the elapsed segment belongs to the old rates.
func (d *domain) advanceBg(now sim.Time) {
	h := d.hyb
	lo, hi := h.lastT, now
	h.lastT = now
	if lo < d.winStart {
		lo = d.winStart
	}
	if hi > d.winEnd {
		hi = d.winEnd
	}
	if hi <= lo {
		return
	}
	dt := (hi - lo).Sec()
	for c, n := range h.count {
		if n == 0 {
			continue
		}
		bits := float64(n) * d.cfg.Classes[c].Preset.AvgRate * dt
		keep := 1.0
		for _, li := range d.path(c) {
			keep *= 1 - h.bgs[li].PDrop()
		}
		h.offered[c] += bits
		h.lost[c] += bits * (1 - keep)
	}
}

// mergeFluidClasses folds the fluid plane's window accounting into the
// packet-path class metrics: offered/lost bits become data-packet
// equivalents at each class's packet size. Returns the packet-equivalent
// sent/lost deltas for the aggregate loss probability. (Link utilization
// gains the delivered fluid share separately, once metrics() has built
// the link table.)
func (d *domain) mergeFluidClasses(m *Metrics, now sim.Time) (sent, lost int64) {
	d.advanceBg(now)
	for c := range m.Classes {
		if d.hyb.offered[c] == 0 {
			continue
		}
		pktBits := float64(8 * d.cfg.Classes[c].Preset.PktSize)
		s := int64(d.hyb.offered[c]/pktBits + 0.5)
		l := int64(d.hyb.lost[c]/pktBits + 0.5)
		m.Classes[c].DataSent += s
		m.Classes[c].DataLost += l
		sent += s
		lost += l
	}
	return sent, lost
}
