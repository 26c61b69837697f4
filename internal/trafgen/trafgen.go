// Package trafgen implements the traffic sources of Table 1 of the paper:
// exponential and Pareto on-off sources (EXP1-EXP4, POO1), a constant-bit-
// rate source (used for probe streams), a synthetic self-similar VBR video
// source standing in for the Star Wars MPEG trace, and the token-bucket
// reshaper that drops nonconforming packets.
package trafgen

import (
	"eac/internal/sim"
	"eac/internal/stats"
)

// FlowEmit receives each generated packet as (time, id, size in bytes): one
// callback serves every source, and id — given when the source was built —
// says which is emitting. The flow layer stamps sequence numbers and routes.
type FlowEmit func(now sim.Time, id, size int)

// EmitFunc is a FlowEmit without the id, for a source built alone (NewCBR,
// Preset.New).
type EmitFunc func(now sim.Time, size int)

// Source is a packet generator that can be started and stopped. Sources
// are single-shot per flow: Start begins emission, Stop ends it for good.
type Source interface {
	Start(now sim.Time)
	Stop()
}

// CBR emits fixed-size packets at a constant bit rate.
type CBR struct {
	s       *sim.Sim
	pktSize int
	iv      sim.Time // per-packet interval, precomputed from rate and size
	lane    sim.Lane // the simulator's lane for ticks iv apart
	emit    FlowEmit
	id      int // emit's id argument
	ev      sim.Event
	active  bool
}

// NewCBR returns a constant-bit-rate source.
func NewCBR(s *sim.Sim, rateBps float64, pktSize int, emit EmitFunc) *CBR {
	return new(CBR).Init(s, rateBps, pktSize, func(now sim.Time, _, size int) { emit(now, size) }, 0)
}

// Init builds, in place, a CBR that emits as id: one embedded by value in its
// owner (a prober's probe stream) or a preset's. Call it once, at the CBR's
// final address.
func (c *CBR) Init(s *sim.Sim, rateBps float64, pktSize int, emit FlowEmit, id int) *CBR {
	*c = CBR{s: s, emit: emit, id: id}
	c.Reinit(rateBps, pktSize)
	// A stream head: Start fires the first tick at now and every later one
	// goes through the lane, so the event never waits among the timers.
	c.ev.InitStream(c.tick)
	return c
}

// SetRate changes the emission rate; it takes effect from the next packet.
func (c *CBR) SetRate(rateBps float64) {
	c.iv = sim.Time(float64(c.pktSize*8) / rateBps * float64(sim.Second))
	c.lane = c.s.Lane(c.iv)
}

// Reinit re-parameterizes an idle CBR for another use, keeping its event
// and emit callback (the run-state reuse path recycles prober sources this
// way instead of allocating a CBR per admission attempt).
func (c *CBR) Reinit(rateBps float64, pktSize int) {
	if rateBps <= 0 || pktSize <= 0 {
		panic("trafgen: CBR requires positive rate and packet size")
	}
	if c.active {
		panic("trafgen: CBR.Reinit while active")
	}
	c.pktSize = pktSize
	c.SetRate(rateBps)
}

// Forget clears the source's running state without touching any simulator.
// Valid only across a Sim.Reset (see sim.Event.Forget); use Stop otherwise.
func (c *CBR) Forget() {
	c.active = false
	c.ev.Forget()
}

// Start implements Source. The first packet is emitted immediately.
func (c *CBR) Start(now sim.Time) {
	if c.active {
		return
	}
	c.active = true
	c.s.Schedule(&c.ev, now)
}

// Stop implements Source.
func (c *CBR) Stop() {
	if !c.active {
		return
	}
	c.active = false
	c.s.Cancel(&c.ev)
}

func (c *CBR) tick(now sim.Time) {
	c.emit(now, c.id, c.pktSize)
	// emit may deliver synchronously (zero-delay routes) and the receiver
	// may Stop this source — e.g. a prober rejecting on the packet it just
	// sent; rescheduling unconditionally would tick forever.
	if c.active {
		c.s.ScheduleLane(c.lane, &c.ev, now+c.iv)
	}
}

// OnOff alternates between an on state, during which it emits fixed-size
// packets at the burst rate, and a silent off state. State holding times
// are drawn from the configured samplers (exponential or Pareto). Sources
// are built by a preset's Maker (onOffMaker).
type OnOff struct {
	s       *sim.Sim
	pktSize int
	iv      sim.Time       // per-packet interval at the burst rate, precomputed
	lane    sim.Lane       // the simulator's lane for ticks iv apart
	onDur   func() float64 // seconds
	offDur  func() float64
	emit    FlowEmit
	id      int // emit's id argument
	rng     *stats.RNG

	ev     sim.Event // next packet while on, or on-transition while off
	onEnd  sim.Time
	on     bool
	active bool
}

// expDur and paretoDur are the duration samplers of the on-off sources: they
// capture an RNG and a mean, nothing of the source that calls them.
func expDur(rng *stats.RNG, mean float64) func() float64 {
	return func() float64 { return rng.Exp(mean) }
}

func paretoDur(rng *stats.RNG, shape, mean float64) func() float64 {
	return func() float64 { return rng.Pareto(shape, mean) }
}

// onOffSlab is the OnOff arena block size (cf. netsim's packet slabs).
const onOffSlab = 64

// onOffMaker returns the constructor of on-off sources of one kind. They
// share everything but their state — samplers, emit callback, lane — and are
// carved from slabs with one tick callback each, which finds the source by
// its event's argument: a source costs a 64th of two allocations, not a
// struct, two samplers and a tick and an emit closure per flow (at MetroStar
// scale, most of a run's allocations).
func onOffMaker(s *sim.Sim, rng *stats.RNG, burstBps float64, pktSize int, onDur, offDur func() float64, emit FlowEmit) Maker {
	if burstBps <= 0 || pktSize <= 0 {
		panic("trafgen: an on-off source requires positive rate and packet size")
	}
	iv := sim.Time(float64(pktSize*8) / burstBps * float64(sim.Second))
	proto := OnOff{s: s, rng: rng, pktSize: pktSize, iv: iv, lane: s.Lane(iv), onDur: onDur, offDur: offDur, emit: emit}
	var slab []OnOff
	var tick func(sim.Time)
	return func(id int) Source {
		if len(slab) == 0 {
			blk := make([]OnOff, onOffSlab)
			slab, tick = blk, func(now sim.Time) { blk[s.Arg()].tick(now) }
		}
		o := &slab[0]
		*o = proto
		o.id = id
		o.ev.Init(tick)
		o.ev.SetArg(uint32(onOffSlab - len(slab)))
		slab = slab[1:]
		return o
	}
}

// Start implements Source. The source begins in the on or off state with
// probability proportional to the state mean durations, for approximate
// stationarity from the first packet.
func (o *OnOff) Start(now sim.Time) {
	if o.active {
		return
	}
	o.active = true
	// Estimate state probabilities from single samples of each sampler;
	// for the exponential case this matches the stationary distribution
	// in expectation and keeps the code sampler-agnostic.
	on := o.onDur()
	off := o.offDur()
	if o.rng.Bool(on / (on + off)) {
		o.enterOn(now)
	} else {
		o.enterOff(now)
	}
}

// Stop implements Source.
func (o *OnOff) Stop() {
	if !o.active {
		return
	}
	o.active = false
	o.s.Cancel(&o.ev)
}

func (o *OnOff) enterOn(now sim.Time) {
	o.on = true
	o.onEnd = now + sim.Seconds(o.onDur())
	o.s.Schedule(&o.ev, now) // first packet immediately
}

func (o *OnOff) enterOff(now sim.Time) {
	o.on = false
	o.s.Schedule(&o.ev, now+sim.Seconds(o.offDur()))
}

func (o *OnOff) tick(now sim.Time) {
	if !o.on {
		o.enterOn(now)
		return
	}
	if now >= o.onEnd {
		o.enterOff(now)
		return
	}
	o.emit(now, o.id, o.pktSize)
	if !o.active { // stopped from inside emit (see CBR.tick)
		return
	}
	next := now + o.iv
	if next > o.onEnd {
		next = o.onEnd // fires the off transition (off the lane if that breaks its order)
	}
	o.s.ScheduleLane(o.lane, &o.ev, next)
}
